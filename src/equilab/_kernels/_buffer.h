/* The argument contract of the extension's entry points, shared by
 * _jacobi.c, _reprfmt.cpp, _batchnorm.c and _netstep.c.
 *
 * Every entry point takes positional arguments only, as its numpy
 * fallback does (jacobi_py, reprfmt_py, batchnorm_py, netstep_py).  Each
 * array argument goes through get_array, except the strided parameter
 * rows of get_rows and netstep's all_finite, which reads any strides.
 * Every Py_buffer starts zeroed and is released at the entry point's one
 * exit label; releasing a view that was never filled is a no-op.
 * _reprfmt.cpp, _batchnorm.c and _netstep.c each define one method table,
 * declared here, and PyInit__jacobi adds all three.  The helpers the net
 * kernels share (get_rows to pairwise_sum below) are defined once, in
 * _buffer.c.
 */

#ifndef EQUILAB_KERNELS_BUFFER_H
#define EQUILAB_KERNELS_BUFFER_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#ifdef __cplusplus
extern "C" {
#endif

extern PyMethodDef reprfmt_methods[];
extern PyMethodDef batchnorm_methods[];
extern PyMethodDef netstep_methods[];

/* A (k, f) or (f,) float64 vector family: row r's entry j is at
 * base + r * row + j * col, strides in doubles. */
typedef struct {
    double *base;
    Py_ssize_t row, col;
} Rows;

#define AT(v, r, j) ((v).base[(r) * (v).row + (j) * (v).col])

/* get_array's x of 2 or more dims as a (k, m, f) stack: k is the product
 * of the leading dims, 1 for 2-d x. */
void stack_shape(const Py_buffer *x, Py_ssize_t *k, Py_ssize_t *m, Py_ssize_t *f);

/* Fill rows with obj's float64 buffer, which must have shape
 * x.shape[:-2] + (f,) for a 2-d or 3-d x, any float64-aligned strides and
 * be writable if asked, or raise ValueError naming it.  view is left
 * empty on error. */
int get_rows(PyObject *obj, const char *name, int writable, const Py_buffer *x, Py_ssize_t f,
             Py_buffer *view, Rows *rows);

/* A new float64 numpy array of the given shape, and its data pointer. */
PyObject *new_array(int ndim, const Py_ssize_t *shape, double **data);

/* 0 if a METH_FASTCALL entry point got want arguments, else -1 with
 * TypeError. */
int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want);

/* numpy's pairwise summation of a[0..n) (PW_BLOCKSIZE 128, eight
 * accumulators, halves cut to a multiple of 8), as in numpy's
 * _core/src/umath/loops_utils.h.src; the caller adds it to +0.0, as
 * numpy's reduction does from the identity. */
double pairwise_sum(const double *a, Py_ssize_t n);

#ifdef __cplusplus
}
#endif

/* Fill view from obj's C-contiguous float64 buffer of min_ndim to max_ndim
 * dims, writable if asked, and return 0; or leave view empty and return -1
 * with ValueError naming the argument (TypeError when obj has no
 * buffer). */
static inline int
get_array(PyObject *obj, const char *name, int min_ndim, int max_ndim, int writable,
          Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim < min_ndim || view->ndim > max_ndim) {
        if (min_ndim == max_ndim)
            PyErr_Format(PyExc_ValueError, "%s must be %d-d, not %d-d", name, min_ndim,
                         view->ndim);
        else
            PyErr_Format(PyExc_ValueError, "%s must be %d-d to %d-d, not %d-d", name, min_ndim,
                         max_ndim, view->ndim);
    }
    else if (view->format == NULL || strcmp(view->format, "d") != 0)
        PyErr_Format(PyExc_ValueError, "%s must hold float64", name);
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    else if (writable && view->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

#endif
