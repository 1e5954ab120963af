/* The helpers that _batchnorm.c and _netstep.c share, declared and
 * described in _buffer.h: one definition each, so the extension's text
 * holds one copy. */

#include "_buffer.h"

#include <stdint.h>

void
stack_shape(const Py_buffer *x, Py_ssize_t *k, Py_ssize_t *m, Py_ssize_t *f)
{
    *k = 1;
    for (int d = 0; d < x->ndim - 2; d++)
        *k *= x->shape[d];
    *m = x->shape[x->ndim - 2];
    *f = x->shape[x->ndim - 1];
}

int
get_rows(PyObject *obj, const char *name, int writable, const Py_buffer *x, Py_ssize_t f,
         Py_buffer *view, Rows *rows)
{
    const char *problem = NULL;
    int lead = x->ndim - 2;

    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->format == NULL || strcmp(view->format, "d") != 0)
        problem = "must hold float64";
    else if (view->ndim != lead + 1 || view->shape[lead] != f
             || (lead && view->shape[0] != x->shape[0]))
        problem = "must have one entry per feature of each stack member";
    else if ((uintptr_t)view->buf % sizeof(double) != 0
             || view->strides[lead] % (Py_ssize_t)sizeof(double) != 0
             || (lead && view->strides[0] % (Py_ssize_t)sizeof(double) != 0))
        problem = "must be float64-aligned";
    else if (writable && view->readonly)
        problem = "must be writable";
    if (problem != NULL) {
        PyErr_Format(PyExc_ValueError, "%s %s", name, problem);
        PyBuffer_Release(view);
        return -1;
    }
    rows->base = view->buf;
    rows->col = view->strides[lead] / (Py_ssize_t)sizeof(double);
    rows->row = lead ? view->strides[0] / (Py_ssize_t)sizeof(double) : 0;
    return 0;
}

PyObject *
new_array(int ndim, const Py_ssize_t *shape, double **data)
{
    static PyObject *empty = NULL;
    PyObject *dims, *arr;
    Py_buffer view;

    if (empty == NULL) {
        PyObject *numpy = PyImport_ImportModule("numpy");
        if (numpy == NULL)
            return NULL;
        empty = PyObject_GetAttrString(numpy, "empty");
        Py_DECREF(numpy);
        if (empty == NULL)
            return NULL;
    }
    dims = PyTuple_New(ndim);
    if (dims == NULL)
        return NULL;
    for (int d = 0; d < ndim; d++) {
        PyObject *n = PyLong_FromSsize_t(shape[d]);
        if (n == NULL) {
            Py_DECREF(dims);
            return NULL;
        }
        PyTuple_SET_ITEM(dims, d, n);
    }
    arr = PyObject_CallOneArg(empty, dims);
    Py_DECREF(dims);
    if (arr == NULL)
        return NULL;
    if (PyObject_GetBuffer(arr, &view, PyBUF_WRITABLE) < 0) {
        Py_DECREF(arr);
        return NULL;
    }
    *data = view.buf;
    /* arr keeps the memory alive; the view only lent the pointer */
    PyBuffer_Release(&view);
    return arr;
}

int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd positional arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* Every process that imports the extension keeps its whole text resident,
 * so the summing helper stays out of line: inlined, at -O3, into its own
 * recursion, it grows several-fold. */
__attribute__((noinline)) double
pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}
