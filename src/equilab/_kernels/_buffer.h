/* The argument contract of the extension's entry points, shared by
 * _jacobi.c, _reprfmt.cpp and _batchnorm.c.
 *
 * Every entry point takes positional arguments only, as its numpy
 * fallback does (jacobi_py, reprfmt_py, batchnorm_py).  Each array
 * argument goes through get_array, except the strided parameter rows of
 * _batchnorm.c's get_rows.  Every Py_buffer starts zeroed and is released
 * at the entry point's one exit label; releasing a view that was never
 * filled is a no-op.  _reprfmt.cpp and _batchnorm.c each define one
 * method table, declared here, and PyInit__jacobi adds both.
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
