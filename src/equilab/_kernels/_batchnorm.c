/* Compiled batch norm (forward and vector-Jacobian product) and the row
 * sums of a bias gradient, with the bits of their numpy fallback
 * equilab._kernels.batchnorm_py.  batchnorm_methods, at the end, lists
 * them for _jacobi.c's module.
 *
 * Only + - * / and sqrt go into the results, each correctly rounded, one
 * operation per numpy ufunc of the fallback, in the fallback's order (the
 * build passes -ffp-contract=off, so no a * b + c is fused).  What numpy
 * leaves open is the order of a sum over rows, x.sum(axis=-2), so every
 * such sum takes numpy's own order on a C-contiguous float64 input:
 *   - two or more features: the output row starts at +0.0 and adds the
 *     rows in order, since numpy's inner loop runs along a row;
 *   - one feature: the column is contiguous, so numpy's inner loop is its
 *     reduction loop, +0.0 plus the pairwise sum of the whole column
 *     (_buffer.c's pairwise_sum).
 * Both start from +0.0, so a column of -0.0 sums to +0.0.  A sum of
 * computed terms (xc * xc, g * xhat, ...) first writes the terms, as
 * numpy does, into an output buffer that a later loop overwrites.
 *
 * x, g and xhat must be C-contiguous (rows, features) float64 arrays or
 * (k, rows, features) stacks of them; gamma, beta and the running buffers
 * are (features,) or (k, features) with any float64-aligned strides, as
 * the column slices of a parameter stack are.  The outputs are new numpy
 * arrays, made by numpy.empty.
 */

#include "_buffer.h"

#include <math.h>

/* equilab._kernels.BN_EPS and BN_MOMENTUM; tests/test_kernels.py compares
 * this backend's bits with the fallback's, which read those names */
#define BN_EPS 1e-5
#define BN_MOMENTUM 0.1

/* out[j] = a[:, j].sum() for the C-contiguous (m, f) block a, in numpy's
 * order for a.sum(axis=-2) (see the top of this file).  Every process that
 * imports the extension keeps its whole text resident, so it stays out of
 * line, as pairwise_sum does: inlined, at -O3, into each caller, the two
 * summing helpers tripled this file's code. */
__attribute__((noinline)) static void
column_sums(const double *a, Py_ssize_t m, Py_ssize_t f, double *out)
{
    if (f == 1) {
        out[0] = 0.0 + pairwise_sum(a, m);
        return;
    }
    for (Py_ssize_t j = 0; j < f; j++)
        out[j] = 0.0;
    for (Py_ssize_t i = 0; i < m; i++)
        for (Py_ssize_t j = 0; j < f; j++)
            out[j] += a[i * f + j];
}

PyDoc_STRVAR(batch_norm_doc,
"batch_norm(x, gamma, beta, running_mean, running_var, training, /)\n--\n\n"
"Batch norm of each feature of x over its rows: (out, xhat, s), with s of\n"
"shape x.shape[:-2] + (1, features).  x is a C-contiguous (rows,\n"
"features) float64 array or a (k, rows, features) stack of them; gamma,\n"
"beta and the running buffers are (features,) or (k, features) float64\n"
"arrays of any strides.  In training the batch statistics normalize and\n"
"the running buffers are updated in place; in eval the running\n"
"statistics normalize.  Every sum over rows takes numpy's order, so the\n"
"bits equal batchnorm_py.batch_norm's, the fallback.");

static PyObject *
batch_norm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer x = {0}, gamma_v = {0}, beta_v = {0}, mean_v = {0}, var_v = {0};
    Rows gamma, beta, mean, var;
    Py_ssize_t k, m, f;
    PyObject *out = NULL, *xhat = NULL, *s = NULL, *result = NULL;
    double *outd, *xhatd, *sd, *mu = NULL;
    int training;

    (void)self;
    if (check_nargs("batch_norm", nargs, 6) < 0 || (training = PyObject_IsTrue(args[5])) < 0
        || get_array(args[0], "x", 2, 3, 0, &x) < 0)
        goto done;
    stack_shape(&x, &k, &m, &f);
    if (get_rows(args[1], "gamma", 0, &x, f, &gamma_v, &gamma) < 0
        || get_rows(args[2], "beta", 0, &x, f, &beta_v, &beta) < 0
        || get_rows(args[3], "running_mean", training, &x, f, &mean_v, &mean) < 0
        || get_rows(args[4], "running_var", training, &x, f, &var_v, &var) < 0)
        goto done;

    Py_ssize_t s_shape[3];
    memcpy(s_shape, x.shape, x.ndim * sizeof(Py_ssize_t));
    s_shape[x.ndim - 2] = 1;
    if ((out = new_array(x.ndim, x.shape, &outd)) == NULL
        || (xhat = new_array(x.ndim, x.shape, &xhatd)) == NULL
        || (s = new_array(x.ndim, s_shape, &sd)) == NULL)
        goto done;
    if (training && (mu = PyMem_Malloc((f ? f : 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    for (Py_ssize_t r = 0; r < k; r++) {
        const double *xr = (const double *)x.buf + r * m * f;
        double *outr = outd + r * m * f, *xc = xhatd + r * m * f, *sr = sd + r * f;
        if (training) {
            /* mu = x.sum(-2) / m; xc = x - mu; var = (xc * xc).sum(-2) / m,
             * the squares written to out first and the var kept in s */
            column_sums(xr, m, f, mu);
            for (Py_ssize_t j = 0; j < f; j++)
                mu[j] /= (double)m;
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++) {
                    double d = xr[i * f + j] - mu[j];
                    xc[i * f + j] = d;
                    outr[i * f + j] = d * d;
                }
            column_sums(outr, m, f, sr);
            for (Py_ssize_t j = 0; j < f; j++) {
                sr[j] /= (double)m;
                AT(mean, r, j) *= 1.0 - BN_MOMENTUM;
                AT(mean, r, j) += BN_MOMENTUM * mu[j];
                AT(var, r, j) *= 1.0 - BN_MOMENTUM;
                AT(var, r, j) += BN_MOMENTUM * sr[j];
                sr[j] = sqrt(sr[j] + BN_EPS);
            }
        }
        else {
            for (Py_ssize_t j = 0; j < f; j++)
                sr[j] = sqrt(AT(var, r, j) + BN_EPS);
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++)
                    xc[i * f + j] = xr[i * f + j] - AT(mean, r, j);
        }
        /* xhat = xc / s; out = gamma * xhat + beta */
        for (Py_ssize_t i = 0; i < m; i++)
            for (Py_ssize_t j = 0; j < f; j++) {
                double xh = xc[i * f + j] / sr[j];
                xc[i * f + j] = xh;
                outr[i * f + j] = AT(gamma, r, j) * xh + AT(beta, r, j);
            }
    }
    result = PyTuple_Pack(3, out, xhat, s);

done:
    PyMem_Free(mu);
    Py_XDECREF(out);
    Py_XDECREF(xhat);
    Py_XDECREF(s);
    PyBuffer_Release(&x);
    PyBuffer_Release(&gamma_v);
    PyBuffer_Release(&beta_v);
    PyBuffer_Release(&mean_v);
    PyBuffer_Release(&var_v);
    return result;
}

PyDoc_STRVAR(batch_norm_vjp_doc,
"batch_norm_vjp(g, xhat, s, gamma, training, /)\n--\n\n"
"(dx, dgamma, dbeta) of batch_norm from the gradient g of its output and\n"
"its xhat and s.  g and xhat are C-contiguous float64 arrays of x's\n"
"shape, s is batch_norm's, gamma as there.  The bits equal\n"
"batchnorm_py.batch_norm_vjp's, the fallback.");

static PyObject *
batch_norm_vjp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer g = {0}, xhat = {0}, s = {0}, gamma_v = {0};
    Rows gamma;
    Py_ssize_t k, m, f;
    PyObject *dx = NULL, *dgamma = NULL, *dbeta = NULL, *result = NULL;
    double *dxd, *dgd, *dbd, *sums = NULL;
    int training;

    (void)self;
    if (check_nargs("batch_norm_vjp", nargs, 5) < 0
        || (training = PyObject_IsTrue(args[4])) < 0
        || get_array(args[0], "g", 2, 3, 0, &g) < 0
        || get_array(args[1], "xhat", 2, 3, 0, &xhat) < 0)
        goto done;
    stack_shape(&g, &k, &m, &f);
    if (xhat.ndim != g.ndim || memcmp(xhat.shape, g.shape, g.ndim * sizeof(Py_ssize_t))) {
        PyErr_SetString(PyExc_ValueError, "xhat must have the shape of g");
        goto done;
    }
    if (get_array(args[2], "s", 2, 3, 0, &s) < 0)
        goto done;
    if (s.ndim != g.ndim || memcmp(s.shape, g.shape, (g.ndim - 2) * sizeof(Py_ssize_t))
        || s.shape[g.ndim - 2] != 1 || s.shape[g.ndim - 1] != f) {
        PyErr_SetString(PyExc_ValueError, "s must have the shape of g with one row");
        goto done;
    }
    if (get_rows(args[3], "gamma", 0, &g, f, &gamma_v, &gamma) < 0)
        goto done;

    Py_ssize_t p_shape[2];
    memcpy(p_shape, g.shape, (g.ndim - 2) * sizeof(Py_ssize_t));
    p_shape[g.ndim - 2] = f;
    if ((dx = new_array(g.ndim, g.shape, &dxd)) == NULL
        || (dgamma = new_array(g.ndim - 1, p_shape, &dgd)) == NULL
        || (dbeta = new_array(g.ndim - 1, p_shape, &dbd)) == NULL)
        goto done;
    /* gm and gx, f each */
    if (training && (sums = PyMem_Malloc((f ? 2 * f : 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    for (Py_ssize_t r = 0; r < k; r++) {
        const double *gr = (const double *)g.buf + r * m * f;
        const double *xh = (const double *)xhat.buf + r * m * f;
        const double *sr = (const double *)s.buf + r * f;
        double *dxr = dxd + r * m * f;
        /* dgamma = (g * xhat).sum(-2); dbeta = g.sum(-2) */
        for (Py_ssize_t i = 0; i < m * f; i++)
            dxr[i] = gr[i] * xh[i];
        column_sums(dxr, m, f, dgd + r * f);
        column_sums(gr, m, f, dbd + r * f);
        if (training) {
            /* gi = g * gamma; gx = (gi * xhat).sum(-2) / m;
             * gm = gi.sum(-2) / m; dx = (gi - gm - xhat * gx) / s */
            double *gm = sums, *gx = sums + f;
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++)
                    dxr[i * f + j] = gr[i * f + j] * AT(gamma, r, j) * xh[i * f + j];
            column_sums(dxr, m, f, gx);
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++)
                    dxr[i * f + j] = gr[i * f + j] * AT(gamma, r, j);
            column_sums(dxr, m, f, gm);
            for (Py_ssize_t j = 0; j < f; j++) {
                gm[j] /= (double)m;
                gx[j] /= (double)m;
            }
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++)
                    dxr[i * f + j] = (dxr[i * f + j] - gm[j] - xh[i * f + j] * gx[j]) / sr[j];
        }
        else {
            /* dx = g * gamma / s */
            for (Py_ssize_t i = 0; i < m; i++)
                for (Py_ssize_t j = 0; j < f; j++)
                    dxr[i * f + j] = gr[i * f + j] * AT(gamma, r, j) / sr[j];
        }
    }
    result = PyTuple_Pack(3, dx, dgamma, dbeta);

done:
    PyMem_Free(sums);
    Py_XDECREF(dx);
    Py_XDECREF(dgamma);
    Py_XDECREF(dbeta);
    PyBuffer_Release(&g);
    PyBuffer_Release(&xhat);
    PyBuffer_Release(&s);
    PyBuffer_Release(&gamma_v);
    return result;
}

PyDoc_STRVAR(row_sums_doc,
"row_sums(x, /)\n--\n\n"
"x.sum(axis=-2) of a C-contiguous float64 array of 2 or more dims, with\n"
"numpy's bits: rows added in order from +0.0 for two or more features,\n"
"+0.0 plus numpy's pairwise sum of the column for one.  See\n"
"batchnorm_py.row_sums for the fallback.");

static PyObject *
row_sums(PyObject *self, PyObject *x_obj)
{
    Py_buffer x = {0};
    Py_ssize_t k, m, f, shape[PyBUF_MAX_NDIM];
    double *out;
    PyObject *result = NULL;

    (void)self;
    if (get_array(x_obj, "x", 2, PyBUF_MAX_NDIM, 0, &x) < 0)
        goto done;
    stack_shape(&x, &k, &m, &f);
    memcpy(shape, x.shape, (x.ndim - 2) * sizeof(Py_ssize_t));
    shape[x.ndim - 2] = f;
    result = new_array(x.ndim - 1, shape, &out);
    if (result != NULL)
        for (Py_ssize_t r = 0; r < k; r++)
            column_sums((const double *)x.buf + r * m * f, m, f, out + r * f);

done:
    PyBuffer_Release(&x);
    return result;
}

PyMethodDef batchnorm_methods[] = {
    {"batch_norm", (PyCFunction)(void (*)(void))batch_norm, METH_FASTCALL, batch_norm_doc},
    {"batch_norm_vjp", (PyCFunction)(void (*)(void))batch_norm_vjp, METH_FASTCALL,
     batch_norm_vjp_doc},
    {"row_sums", row_sums, METH_O, row_sums_doc},
    {NULL, NULL, 0, NULL}
};
