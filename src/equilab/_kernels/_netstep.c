/* Compiled elementwise work of a net's training step, around its matmuls
 * and transcendentals: the bias add, the relu and tanh vjps, the MSE and
 * BCE loss tails, the finiteness test and the SGD update, with the bits of
 * their numpy fallback equilab._kernels.netstep_py.  netstep_methods, at
 * the end, lists them for _jacobi.c's module.
 *
 * As in _batchnorm.c, only + - * / go into the results, one operation per
 * numpy ufunc of the fallback, in the fallback's order (the build passes
 * -ffp-contract=off).  A member mean is numpy's v.sum() / v.size on the
 * member's contiguous block: the terms are written first, as numpy does,
 * into the gradient buffer that a later loop overwrites, and summed as
 * +0.0 plus _buffer.c's pairwise_sum.  exp and log1p stay numpy's: the
 * BCE tail takes e = exp(-|z|) and log1p(e) from its caller.
 *
 * Arrays are C-contiguous float64 (get_array), except the bias rows
 * (get_rows, any float64-aligned strides) and all_finite's input, which
 * may have any strides.  New outputs are numpy arrays made by numpy.empty.
 */

#include "_buffer.h"

#include <math.h>
#include <stdint.h>

/* 0 if b has a's shape, else -1 with ValueError naming b. */
static int
same_shape(const Py_buffer *b, const char *b_name, const Py_buffer *a, const char *a_name)
{
    if (b->ndim == a->ndim && !memcmp(b->shape, a->shape, a->ndim * sizeof(Py_ssize_t)))
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must have the shape of %s", b_name, a_name);
    return -1;
}

PyDoc_STRVAR(bias_add_doc,
"bias_add(z, b, /)\n--\n\n"
"z += b[..., None, :] in place: the (features,) bias b, or the (k,\n"
"features) rows of a stack, added to every row of the C-contiguous\n"
"(rows, features) float64 z or (k, rows, features) stack.  b may have any\n"
"float64-aligned strides, as a column slice of a parameter stack has.\n"
"See netstep_py.bias_add for the fallback.");

static PyObject *
bias_add(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer z = {0}, b_v = {0};
    Rows b;
    Py_ssize_t k, m, f;
    PyObject *result = NULL;

    (void)self;
    if (check_nargs("bias_add", nargs, 2) < 0 || get_array(args[0], "z", 2, 3, 1, &z) < 0)
        goto done;
    stack_shape(&z, &k, &m, &f);
    if (get_rows(args[1], "b", 0, &z, f, &b_v, &b) < 0)
        goto done;
    for (Py_ssize_t r = 0; r < k; r++) {
        double *zr = (double *)z.buf + r * m * f;
        for (Py_ssize_t i = 0; i < m; i++)
            for (Py_ssize_t j = 0; j < f; j++)
                zr[i * f + j] += AT(b, r, j);
    }
    Py_INCREF(Py_None);
    result = Py_None;

done:
    PyBuffer_Release(&z);
    PyBuffer_Release(&b_v);
    return result;
}

/* The relu and tanh vjps: a new array of g's shape from the arrays a
 * (relu's input z, or tanh's output) and g. */
static PyObject *
activation_vjp(const char *name, const char *a_name, int tanh_form, PyObject *const *args,
               Py_ssize_t nargs)
{
    Py_buffer a = {0}, g = {0};
    PyObject *result = NULL;
    double *out;

    if (check_nargs(name, nargs, 2) < 0
        || get_array(args[0], a_name, 0, PyBUF_MAX_NDIM, 0, &a) < 0
        || get_array(args[1], "g", 0, PyBUF_MAX_NDIM, 0, &g) < 0
        || same_shape(&g, "g", &a, a_name) < 0
        || (result = new_array(g.ndim, g.shape, &out)) == NULL)
        goto done;
    const double *ad = a.buf, *gd = g.buf;
    Py_ssize_t n = g.len / (Py_ssize_t)sizeof(double);
    if (tanh_form)
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = gd[i] * (1.0 - ad[i] * ad[i]);
    else
        /* a product with 1.0 or 0.0, as numpy's g * (z > 0): a NaN or inf
         * of g gives NaN where z <= 0, a -0.0 keeps its sign */
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = gd[i] * (ad[i] > 0.0 ? 1.0 : 0.0);

done:
    PyBuffer_Release(&a);
    PyBuffer_Release(&g);
    return result;
}

PyDoc_STRVAR(relu_vjp_doc,
"relu_vjp(z, g, /)\n--\n\n"
"g * (z > 0): the gradient g through relu at its input z, both\n"
"C-contiguous float64 arrays of one shape, as a new array.  See\n"
"netstep_py.relu_vjp for the fallback.");

static PyObject *
relu_vjp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return activation_vjp("relu_vjp", "z", 0, args, nargs);
}

PyDoc_STRVAR(tanh_vjp_doc,
"tanh_vjp(out, g, /)\n--\n\n"
"g * (1 - out * out): the gradient g through tanh at its output out, both\n"
"C-contiguous float64 arrays of one shape, as a new array.  See\n"
"netstep_py.tanh_vjp for the fallback.");

static PyObject *
tanh_vjp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return activation_vjp("tanh_vjp", "out", 1, args, nargs);
}

/* The shared frame of the loss tails: checks the prediction (args[0],
 * named pred_name) and y (args[1]), then any further arguments of the
 * prediction's shape (extra, named extra_names), and calls tail for each
 * member: the member's prediction, y, extras and a gradient buffer of
 * y's size n, which tail fills and whose member mean it returns.  The
 * result is (loss, gradient): the loss a float, or a (k,) array of member
 * means when the prediction is a (k,) + y.shape stack. */
typedef double (*Tail)(const double *pred, const double *y, const double *const *extra,
                       double *grad, Py_ssize_t n);

/* noipa keeps one copy: -O3 would otherwise clone it for each tail, with
 * the tail inlined, for about 2 KB more resident text. */
__attribute__((noipa)) static PyObject *
loss_tail(const char *name, const char *pred_name, int n_extra, const char *const *extra_names,
          Tail tail, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pred = {0}, y = {0}, extra_v[2] = {{0}, {0}};
    PyObject *grad = NULL, *loss = NULL, *result = NULL;
    double *gradd, *lossd = NULL;

    if (check_nargs(name, nargs, 2 + n_extra) < 0
        || get_array(args[0], pred_name, 0, PyBUF_MAX_NDIM, 0, &pred) < 0
        || get_array(args[1], "y", 0, PyBUF_MAX_NDIM - 1, 0, &y) < 0)
        goto done;
    int stacked = pred.ndim == y.ndim + 1;
    if ((!stacked && pred.ndim != y.ndim)
        || memcmp(pred.shape + stacked, y.shape, y.ndim * sizeof(Py_ssize_t))) {
        PyErr_Format(PyExc_ValueError, "%s must have the shape of y or be a stack of them",
                     pred_name);
        goto done;
    }
    for (int a = 0; a < n_extra; a++)
        if (get_array(args[2 + a], extra_names[a], 0, PyBUF_MAX_NDIM, 0, &extra_v[a]) < 0
            || same_shape(&extra_v[a], extra_names[a], &pred, pred_name) < 0)
            goto done;
    Py_ssize_t k = stacked ? pred.shape[0] : 1, n = y.len / (Py_ssize_t)sizeof(double);
    if ((grad = new_array(pred.ndim, pred.shape, &gradd)) == NULL
        || (stacked && (loss = new_array(1, &k, &lossd)) == NULL))
        goto done;
    for (Py_ssize_t r = 0; r < k; r++) {
        const double *extra[2];
        for (int a = 0; a < n_extra; a++)
            extra[a] = (const double *)extra_v[a].buf + r * n;
        double mean = tail((const double *)pred.buf + r * n, y.buf, extra, gradd + r * n, n);
        if (stacked)
            lossd[r] = mean;
        else if ((loss = PyFloat_FromDouble(mean)) == NULL)
            goto done;
    }
    result = PyTuple_Pack(2, loss, grad);

done:
    Py_XDECREF(grad);
    Py_XDECREF(loss);
    PyBuffer_Release(&pred);
    PyBuffer_Release(&y);
    PyBuffer_Release(&extra_v[0]);
    PyBuffer_Release(&extra_v[1]);
    return result;
}

/* d = pred - y; the mean of d * d; dpred = 2.0 * d / n */
static double
mse_member(const double *pred, const double *y, const double *const *extra, double *grad,
           Py_ssize_t n)
{
    (void)extra;
    for (Py_ssize_t i = 0; i < n; i++) {
        double d = pred[i] - y[i];
        grad[i] = d * d;
    }
    double mean = (0.0 + pairwise_sum(grad, n)) / (double)n;
    for (Py_ssize_t i = 0; i < n; i++)
        grad[i] = 2.0 * (pred[i] - y[i]) / (double)n;
    return mean;
}

PyDoc_STRVAR(mse_tail_doc,
"mse_tail(pred, y, /)\n--\n\n"
"(loss, dpred) of the mean squared error of pred against y, C-contiguous\n"
"float64 arrays; pred is y's shape, giving a float loss, or a (k,) +\n"
"y.shape stack, giving a (k,) array of member means.  See\n"
"netstep_py.mse_tail for the fallback.");

static PyObject *
mse_tail(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return loss_tail("mse_tail", "pred", 0, NULL, mse_member, args, nargs);
}

/* The loss terms max(z, 0) - z * y + log1p(e) and their mean; then
 * dz = (exp(min(z, 0)) / (1 + e) - y) / n, where exp(min(z, 0)) is e
 * (= exp(-|z|) = exp(z)) for z < 0, exp(0) = 1 from 0 up, and z itself for
 * a NaN, which numpy's minimum and exp return unchanged; max(z, 0) is z
 * for z > 0 or a NaN, else +0.0, as numpy's maximum gives it. */
static double
bce_member(const double *z, const double *y, const double *const *extra, double *grad,
           Py_ssize_t n)
{
    const double *e = extra[0], *log1p_e = extra[1];
    for (Py_ssize_t i = 0; i < n; i++) {
        double p = z[i] > 0.0 || isnan(z[i]) ? z[i] : 0.0;
        grad[i] = p - z[i] * y[i] + log1p_e[i];
    }
    double mean = (0.0 + pairwise_sum(grad, n)) / (double)n;
    for (Py_ssize_t i = 0; i < n; i++) {
        double num = z[i] < 0.0 ? e[i] : z[i] >= 0.0 ? 1.0 : z[i];
        grad[i] = (num / (1.0 + e[i]) - y[i]) / (double)n;
    }
    return mean;
}

PyDoc_STRVAR(bce_tail_doc,
"bce_tail(z, y, e, log1p_e, /)\n--\n\n"
"(loss, dz) of the binary cross entropy of the logits z against y, shaped\n"
"as in mse_tail, from e = exp(-|z|) and log1p_e = log1p(e), C-contiguous\n"
"float64 arrays of z's shape that the caller takes with numpy's ufuncs.\n"
"See netstep_py.bce_tail for the fallback.");

static PyObject *
bce_tail(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const extra_names[] = {"e", "log1p_e"};

    (void)self;
    return loss_tail("bce_tail", "z", 2, extra_names, bce_member, args, nargs);
}

/* Whether every entry of the ndim-d block at p, of the given shape and
 * byte strides, is finite.  Out of line: inlined into its own recursion
 * at -O3 it doubles in size, and every process that imports the extension
 * keeps its whole text resident. */
__attribute__((noinline)) static int
finite_block(const char *p, int ndim, const Py_ssize_t *shape, const Py_ssize_t *strides)
{
    for (Py_ssize_t i = 0; i < shape[0]; i++) {
        const char *q = p + i * strides[0];
        if (ndim > 1 ? !finite_block(q, ndim - 1, shape + 1, strides + 1)
                     : !isfinite(*(const double *)q))
            return 0;
    }
    return 1;
}

PyDoc_STRVAR(all_finite_doc,
"all_finite(x, /)\n--\n\n"
"Whether every entry of the float64 array x, of any float64-aligned\n"
"strides (a moveaxis view too), is finite.  See netstep_py.all_finite for\n"
"the fallback.");

static PyObject *
all_finite(PyObject *self, PyObject *x_obj)
{
    Py_buffer x = {0};
    PyObject *result = NULL;
    int ok = 1;

    (void)self;
    if (PyObject_GetBuffer(x_obj, &x, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (x.format == NULL || strcmp(x.format, "d") != 0) {
        PyErr_SetString(PyExc_ValueError, "x must hold float64");
        goto done;
    }
    for (int d = 0; d < x.ndim; d++)
        if (x.strides[d] % (Py_ssize_t)sizeof(double) != 0)
            ok = 0;
    if (!ok || (uintptr_t)x.buf % sizeof(double) != 0) {
        PyErr_SetString(PyExc_ValueError, "x must be float64-aligned");
        goto done;
    }
    if (PyBuffer_IsContiguous(&x, 'C')) {
        /* one row of every entry */
        Py_ssize_t n = x.len / (Py_ssize_t)sizeof(double), step = sizeof(double);
        ok = finite_block(x.buf, 1, &n, &step);
    }
    else
        ok = finite_block(x.buf, x.ndim, x.shape, x.strides);
    result = PyBool_FromLong(ok);

done:
    PyBuffer_Release(&x);
    return result;
}

PyDoc_STRVAR(sgd_step_doc,
"sgd_step(flat, lr, g, bound, /)\n--\n\n"
"flat -= lr[:, None] * g in place, two roundings per entry, for the\n"
"C-contiguous float64 (k, n) parameter stack flat, its (k,) learning\n"
"rates lr and the (k, n) gradient g; returns whether every updated\n"
"parameter is at most bound in absolute value (a NaN is not).  See\n"
"netstep_py.sgd_step for the fallback.");

static PyObject *
sgd_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer flat = {0}, lr = {0}, g = {0};
    PyObject *result = NULL;
    double bound;

    (void)self;
    if (check_nargs("sgd_step", nargs, 4) < 0
        || get_array(args[0], "flat", 2, 2, 1, &flat) < 0
        || get_array(args[1], "lr", 1, 1, 0, &lr) < 0
        || get_array(args[2], "g", 2, 2, 0, &g) < 0
        || same_shape(&g, "g", &flat, "flat") < 0
        || ((bound = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred()))
        goto done;
    if (lr.shape[0] != flat.shape[0]) {
        PyErr_SetString(PyExc_ValueError, "lr must have one entry per row of flat");
        goto done;
    }
    Py_ssize_t k = flat.shape[0], n = flat.shape[1];
    double *fd = flat.buf;
    const double *lrd = lr.buf, *gd = g.buf;
    int within = 1;
    for (Py_ssize_t r = 0; r < k; r++)
        for (Py_ssize_t i = r * n; i < (r + 1) * n; i++) {
            fd[i] -= lrd[r] * gd[i];
            within &= fabs(fd[i]) <= bound;
        }
    result = PyBool_FromLong(within);

done:
    PyBuffer_Release(&flat);
    PyBuffer_Release(&lr);
    PyBuffer_Release(&g);
    return result;
}

#define FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, name##_doc}

PyMethodDef netstep_methods[] = {
    FASTCALL(bias_add),
    FASTCALL(relu_vjp),
    FASTCALL(tanh_vjp),
    FASTCALL(mse_tail),
    FASTCALL(bce_tail),
    {"all_finite", all_finite, METH_O, all_finite_doc},
    FASTCALL(sgd_step),
    {NULL, NULL, 0, NULL}
};
