/* Compiled trace-CSV formatter: rows of a float64 matrix as text, every
 * cell byte-identical to Python's repr(float(x)).
 *
 * The digits come from std::to_chars(double, chars_format::scientific)
 * with no precision, the shortest string that round-trips (Ryu-class,
 * libstdc++ >= 11), which picks the same digits as the shortest mode of
 * David Gay's dtoa behind repr.  They are laid out as CPython's 'r'
 * format lays them out: exponent form when decpt <= -4 or decpt > 16
 * (decpt being the position of the decimal point after the first digit
 * string, value = 0.d1d2... * 10**decpt), with a sign and at least two
 * exponent digits; otherwise positional, with ".0" on integral values.
 * NaN prints "nan" whatever its sign and payload, infinities "inf" and
 * "-inf".  to_chars does not read the locale.  The function is listed in
 * _jacobi.c's method table.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <charconv>
#include <cmath>
#include <cstring>

#if !defined(__cpp_lib_to_chars) || __cpp_lib_to_chars < 201611L
#error "floating-point std::to_chars is required (GCC >= 11)"
#endif

namespace {

/* Longest repr of a double: "-1.7976931348623157e+308", or a positional
 * form such as "-0.00012345678901234567" (23 characters). */
constexpr Py_ssize_t MAX_CELL = 24;

/* Write repr(x) at out; return the end of what was written. */
char *
write_repr(double x, char *out)
{
    if (std::isnan(x)) {
        std::memcpy(out, "nan", 3);
        return out + 3;
    }
    if (std::isinf(x)) {
        if (x < 0)
            *out++ = '-';
        std::memcpy(out, "inf", 3);
        return out + 3;
    }
    /* [-]d[.ddd]e(+|-)dd[d], at most 17 significant digits */
    char sci[32];
    char *end = std::to_chars(sci, sci + sizeof sci, x, std::chars_format::scientific).ptr;
    const char *p = sci;
    const char *e = static_cast<const char *>(std::memchr(sci, 'e', end - sci));
    int exp10 = 0;
    for (const char *q = e + 2; q < end; q++)
        exp10 = 10 * exp10 + (*q - '0');
    if (e[1] == '-')
        exp10 = -exp10;
    int decpt = exp10 + 1;
    if (decpt <= -4 || decpt > 16) {
        /* to_chars's scientific form is repr's exponent form */
        std::memcpy(out, sci, end - sci);
        return out + (end - sci);
    }
    if (*p == '-')
        *out++ = *p++;
    char digits[17];
    int nd = 0;
    digits[nd++] = *p++;
    if (*p == '.')
        for (p++; p < e; p++)
            digits[nd++] = *p;
    if (decpt <= 0) {
        *out++ = '0';
        *out++ = '.';
        for (int i = decpt; i < 0; i++)
            *out++ = '0';
        std::memcpy(out, digits, nd);
        return out + nd;
    }
    if (decpt < nd) {
        std::memcpy(out, digits, decpt);
        out += decpt;
        *out++ = '.';
        std::memcpy(out, digits + decpt, nd - decpt);
        return out + (nd - decpt);
    }
    std::memcpy(out, digits, nd);
    out += nd;
    for (int i = nd; i < decpt; i++)
        *out++ = '0';
    *out++ = '.';
    *out++ = '0';
    return out;
}

/* The UTF-8 bytes of str obj, or NULL with TypeError naming it. */
const char *
utf8_of(PyObject *obj, const char *name, Py_ssize_t *len)
{
    if (!PyUnicode_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be str, got %s", name, Py_TYPE(obj)->tp_name);
        return NULL;
    }
    return PyUnicode_AsUTF8AndSize(obj, len);
}

/* Rows of the checked (n_rows, n_cols) matrix as a list of str. */
PyObject *
format_matrix(const double *v, Py_ssize_t n_rows, Py_ssize_t n_cols, PyObject *lead,
              const char *sep, Py_ssize_t sep_len)
{
    Py_ssize_t lead_max = 0;
    for (Py_ssize_t i = 0; lead != Py_None && i < n_rows; i++) {
        Py_ssize_t len;
        if (utf8_of(PyList_GET_ITEM(lead, i), "every lead item", &len) == NULL)
            return NULL;
        lead_max = len > lead_max ? len : lead_max;
    }
    if (n_cols > (PY_SSIZE_T_MAX - lead_max) / (MAX_CELL + sep_len + 1))
        return PyErr_NoMemory();
    char *row = static_cast<char *>(PyMem_Malloc(lead_max + n_cols * (MAX_CELL + sep_len) + 1));
    PyObject *rows = PyList_New(n_rows);
    if (row == NULL || rows == NULL) {
        PyMem_Free(row);
        Py_XDECREF(rows);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        char *out = row;
        const double *cells = v + i * n_cols;
        if (lead != Py_None) {
            Py_ssize_t len;
            const char *text = PyUnicode_AsUTF8AndSize(PyList_GET_ITEM(lead, i), &len);
            std::memcpy(out, text, len);
            out += len;
        }
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            if (j > 0 || lead != Py_None) {
                std::memcpy(out, sep, sep_len);
                out += sep_len;
            }
            out = write_repr(cells[j], out);
        }
        PyObject *text = PyUnicode_DecodeUTF8(row, out - row, "strict");
        if (text == NULL) {
            Py_DECREF(rows);
            rows = NULL;
            break;
        }
        PyList_SET_ITEM(rows, i, text);
    }
    PyMem_Free(row);
    return rows;
}

}  // namespace

extern "C" PyObject *
reprfmt_format_rows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static const char *kwlist[] = {"values", "lead", "sep", NULL};
    PyObject *values_obj, *lead, *sep_obj;
    Py_buffer view;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:format_rows",
                                     const_cast<char **>(kwlist),
                                     &values_obj, &lead, &sep_obj))
        return NULL;
    Py_ssize_t sep_len;
    const char *sep = utf8_of(sep_obj, "sep", &sep_len);
    if (sep == NULL)
        return NULL;
    if (PyObject_GetBuffer(values_obj, &view, PyBUF_RECORDS_RO) < 0)
        return NULL;
    PyObject *result = NULL;
    if (view.ndim != 2)
        PyErr_SetString(PyExc_ValueError, "values must be 2-d");
    else if (view.format == NULL || std::strcmp(view.format, "d") != 0)
        PyErr_SetString(PyExc_ValueError, "values must hold float64");
    else if (!PyBuffer_IsContiguous(&view, 'C'))
        PyErr_SetString(PyExc_ValueError, "values must be C-contiguous");
    else if (lead != Py_None && !PyList_Check(lead))
        PyErr_Format(PyExc_TypeError, "lead must be a list or None, got %s",
                     Py_TYPE(lead)->tp_name);
    else if (lead != Py_None && PyList_GET_SIZE(lead) != view.shape[0])
        PyErr_Format(PyExc_ValueError, "lead has %zd items, values has %zd rows",
                     PyList_GET_SIZE(lead), view.shape[0]);
    else
        result = format_matrix(static_cast<const double *>(view.buf), view.shape[0],
                               view.shape[1], lead, sep, sep_len);
    PyBuffer_Release(&view);
    return result;
}
