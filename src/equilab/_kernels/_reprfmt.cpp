/* Compiled trace-CSV formatter: a prefix, then the rows of a float64
 * matrix, every cell byte-identical to Python's repr(float(x)) and every
 * row ended by CRLF, written into one str (format_text).  The str is
 * allocated at an upper bound and shrunk in place, so a file's text
 * exists once, with no row list and no join.
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
 * "-inf".  to_chars does not read the locale.  format_text is listed in
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

/* Write one row at out: lead (unless NULL), then the n_cols cells, each
 * after sep unless it is the row's first item; return the end. */
char *
write_row(char *out, const double *cells, Py_ssize_t n_cols, const char *lead,
          Py_ssize_t lead_len, const char *sep, Py_ssize_t sep_len)
{
    if (lead != NULL) {
        std::memcpy(out, lead, lead_len);
        out += lead_len;
    }
    for (Py_ssize_t j = 0; j < n_cols; j++) {
        if (j > 0 || lead != NULL) {
            std::memcpy(out, sep, sep_len);
            out += sep_len;
        }
        out = write_repr(cells[j], out);
    }
    return out;
}

/* The bytes of str obj if it is ASCII, or NULL with ValueError (TypeError
 * if it is no str) naming it: format_text writes into a 1-byte-kind str,
 * where any other byte would be a wrong character. */
const char *
ascii_of(PyObject *obj, const char *name, Py_ssize_t *len)
{
    if (!PyUnicode_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be str, got %s", name, Py_TYPE(obj)->tp_name);
        return NULL;
    }
    if (!PyUnicode_IS_ASCII(obj)) {
        PyErr_Format(PyExc_ValueError, "%s must be ASCII", name);
        return NULL;
    }
    *len = PyUnicode_GET_LENGTH(obj);
    return reinterpret_cast<const char *>(PyUnicode_1BYTE_DATA(obj));
}

/* prefix, then every row of the checked matrix ended by CRLF, as one str. */
PyObject *
format_matrix_text(const double *v, Py_ssize_t n_rows, Py_ssize_t n_cols, PyObject *lead,
                   const char *sep, Py_ssize_t sep_len, const char *prefix,
                   Py_ssize_t prefix_len)
{
    Py_ssize_t lead_len = 0;
    for (Py_ssize_t i = 0; lead != Py_None && i < n_rows; i++) {
        Py_ssize_t len;
        if (ascii_of(PyList_GET_ITEM(lead, i), "every lead item", &len) == NULL)
            return NULL;
        if (len > PY_SSIZE_T_MAX - lead_len)
            return PyErr_NoMemory();
        lead_len += len;
    }
    /* upper bound: the prefix, every lead, and per row its cells, their
     * separators and the line end */
    if (n_cols > (PY_SSIZE_T_MAX / 2) / (MAX_CELL + sep_len))
        return PyErr_NoMemory();
    Py_ssize_t row_max = n_cols * (MAX_CELL + sep_len) + 2;
    if (n_rows > 0 && row_max > (PY_SSIZE_T_MAX - prefix_len - lead_len) / n_rows)
        return PyErr_NoMemory();
    PyObject *text = PyUnicode_New(prefix_len + lead_len + n_rows * row_max, 127);
    if (text == NULL)
        return NULL;
    char *start = reinterpret_cast<char *>(PyUnicode_1BYTE_DATA(text));
    char *out = start;
    std::memcpy(out, prefix, prefix_len);
    out += prefix_len;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        Py_ssize_t len = 0;
        /* checked above, so this cannot fail */
        const char *text = lead == Py_None
            ? NULL : ascii_of(PyList_GET_ITEM(lead, i), "every lead item", &len);
        out = write_row(out, v + i * n_cols, n_cols, text, len, sep, sep_len);
        *out++ = '\r';
        *out++ = '\n';
    }
    /* a fresh str with one reference: PyUnicode_Resize shrinks it in place */
    if (PyUnicode_Resize(&text, out - start) < 0)
        return NULL;
    return text;
}

/* Parse and check (values, lead, sep): fills view (released by the
 * caller) and returns 0, or returns -1 with an exception set. */
int
checked_matrix(PyObject *values_obj, PyObject *lead, Py_buffer *view)
{
    if (PyObject_GetBuffer(values_obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2)
        PyErr_SetString(PyExc_ValueError, "values must be 2-d");
    else if (view->format == NULL || std::strcmp(view->format, "d") != 0)
        PyErr_SetString(PyExc_ValueError, "values must hold float64");
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_SetString(PyExc_ValueError, "values must be C-contiguous");
    else if (lead != Py_None && !PyList_Check(lead))
        PyErr_Format(PyExc_TypeError, "lead must be a list or None, got %s",
                     Py_TYPE(lead)->tp_name);
    else if (lead != Py_None && PyList_GET_SIZE(lead) != view->shape[0])
        PyErr_Format(PyExc_ValueError, "lead has %zd items, values has %zd rows",
                     PyList_GET_SIZE(lead), view->shape[0]);
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

}  // namespace

extern "C" PyObject *
reprfmt_format_text(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static const char *kwlist[] = {"prefix", "values", "lead", "sep", NULL};
    PyObject *prefix_obj, *values_obj, *lead, *sep_obj;
    Py_buffer view;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:format_text",
                                     const_cast<char **>(kwlist),
                                     &prefix_obj, &values_obj, &lead, &sep_obj))
        return NULL;
    Py_ssize_t prefix_len, sep_len;
    const char *prefix = ascii_of(prefix_obj, "prefix", &prefix_len);
    if (prefix == NULL)
        return NULL;
    const char *sep = ascii_of(sep_obj, "sep", &sep_len);
    if (sep == NULL || checked_matrix(values_obj, lead, &view) < 0)
        return NULL;
    PyObject *result = format_matrix_text(static_cast<const double *>(view.buf),
                                          view.shape[0], view.shape[1], lead, sep, sep_len,
                                          prefix, prefix_len);
    PyBuffer_Release(&view);
    return result;
}
