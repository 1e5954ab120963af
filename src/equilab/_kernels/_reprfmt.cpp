/* Compiled text formatters: the trace-CSV writer format_text and the SVG
 * polyline writer format_points.
 *
 * format_text writes a prefix, then the rows of a float64 matrix, every
 * cell byte-identical to Python's repr(float(x)) and every row ended by
 * CRLF, into one str.  The str is allocated at an upper bound and shrunk
 * in place, so a file's text exists once, with no row list and no join.
 * Its rows are formatted on two threads with the GIL released: the first
 * half on the calling thread, right after the prefix, the second half on
 * a second thread, into the tail of the upper-bound str; after the join
 * the tail is moved down behind the first half.  The lead items are
 * read, and held, before the GIL is released.
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
 * "-inf".  to_chars does not read the locale.
 *
 * format_points writes the "x,y x,y ..." points of an SVG polyline, each
 * coordinate as Python's "%.6g" % x: std::to_chars(chars_format::general,
 * 6) is printf's %.6g, which is what CPython's %-format computes, except
 * that a NaN of either sign prints "nan".  Both functions are listed in
 * _jacobi.c's method table.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

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

/* The rows of one matrix and how to lay them out. */
struct Rows {
    const double *v;
    Py_ssize_t n_cols;
    const char *const *lead;      /* one item per row, or NULL */
    const Py_ssize_t *lead_len;
    const char *sep;
    Py_ssize_t sep_len;
};

/* Write rows [lo, hi), each ended by CRLF, at out; return the end. */
char *
write_rows(const Rows &rows, Py_ssize_t lo, Py_ssize_t hi, char *out)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        out = write_row(out, rows.v + i * rows.n_cols, rows.n_cols,
                        rows.lead == NULL ? NULL : rows.lead[i],
                        rows.lead == NULL ? 0 : rows.lead_len[i], rows.sep, rows.sep_len);
        *out++ = '\r';
        *out++ = '\n';
    }
    return out;
}

/* prefix, then every row of the checked matrix ended by CRLF, as one str;
 * held is a tuple of the lead items (which keeps them alive while the GIL
 * is released) or Py_None. */
PyObject *
format_matrix_text(const double *v, Py_ssize_t n_rows, Py_ssize_t n_cols, PyObject *held,
                   const char *sep, Py_ssize_t sep_len, const char *prefix,
                   Py_ssize_t prefix_len)
{
    std::vector<const char *> lead;
    std::vector<Py_ssize_t> lead_len;
    try {
        if (held != Py_None) {
            lead.resize(n_rows);
            lead_len.resize(n_rows);
        }
    } catch (const std::exception &) {
        return PyErr_NoMemory();
    }
    /* lead bytes of the first and of the second half of the rows */
    Py_ssize_t half = n_rows / 2, lead_bytes[2] = {0, 0};
    for (Py_ssize_t i = 0; held != Py_None && i < n_rows; i++) {
        lead[i] = ascii_of(PyTuple_GET_ITEM(held, i), "every lead item", &lead_len[i]);
        if (lead[i] == NULL)
            return NULL;
        if (lead_len[i] > PY_SSIZE_T_MAX - lead_bytes[0] - lead_bytes[1])
            return PyErr_NoMemory();
        lead_bytes[i >= half] += lead_len[i];
    }
    /* upper bound: the prefix, every lead, and per row its cells, their
     * separators and the line end */
    if (n_cols > (PY_SSIZE_T_MAX / 2) / (MAX_CELL + sep_len))
        return PyErr_NoMemory();
    Py_ssize_t row_max = n_cols * (MAX_CELL + sep_len) + 2;
    Py_ssize_t all_leads = lead_bytes[0] + lead_bytes[1];
    if (n_rows > 0 && row_max > (PY_SSIZE_T_MAX - prefix_len - all_leads) / n_rows)
        return PyErr_NoMemory();
    Py_ssize_t size = prefix_len + all_leads + n_rows * row_max;
    PyObject *text = PyUnicode_New(size, 127);
    if (text == NULL)
        return NULL;
    char *start = reinterpret_cast<char *>(PyUnicode_1BYTE_DATA(text));
    std::memcpy(start, prefix, prefix_len);
    /* the first half ends at most where the second half's bound begins */
    char *out = start + prefix_len;
    char *tail = start + size - (lead_bytes[1] + (n_rows - half) * row_max);
    char *tail_end = tail;
    const Rows rows = {v, n_cols, held == Py_None ? NULL : lead.data(),
                       held == Py_None ? NULL : lead_len.data(), sep, sep_len};
    Py_BEGIN_ALLOW_THREADS
    std::thread second;
    try {
        second = std::thread([&] { tail_end = write_rows(rows, half, n_rows, tail); });
    } catch (const std::exception &) {
        /* no second thread: this one writes both halves, to the same bytes */
    }
    out = write_rows(rows, 0, half, out);
    if (second.joinable())
        second.join();
    else
        tail_end = write_rows(rows, half, n_rows, tail);
    Py_END_ALLOW_THREADS
    std::memmove(out, tail, tail_end - tail);
    out += tail_end - tail;
    /* a fresh str with one reference: PyUnicode_Resize shrinks it in place */
    if (PyUnicode_Resize(&text, out - start) < 0)
        return NULL;
    return text;
}

/* Longest "%.6g" of a double: "-1.23457e-308" (13 characters). */
constexpr Py_ssize_t MAX_G6 = 13;

/* Write "%.6g" % x at out; return the end of what was written. */
char *
write_g6(double x, char *out)
{
    if (std::isnan(x)) {
        std::memcpy(out, "nan", 3);
        return out + 3;
    }
    return std::to_chars(out, out + MAX_G6, x, std::chars_format::general, 6).ptr;
}

/* Fill view (released by the caller) from a C-contiguous 1-d float64
 * buffer and return 0, or return -1 with ValueError naming it. */
int
checked_vector(PyObject *obj, const char *name, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim == 1 && view->format != NULL && std::strcmp(view->format, "d") == 0
            && PyBuffer_IsContiguous(view, 'C'))
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous 1-d float64 array", name);
    PyBuffer_Release(view);
    return -1;
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
    PyObject *held = lead == Py_None ? Py_NewRef(Py_None) : PyList_AsTuple(lead);
    PyObject *result = held == NULL ? NULL : format_matrix_text(
        static_cast<const double *>(view.buf), view.shape[0], view.shape[1], held, sep,
        sep_len, prefix, prefix_len);
    Py_XDECREF(held);
    PyBuffer_Release(&view);
    return result;
}

extern "C" PyObject *
reprfmt_format_points(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static const char *kwlist[] = {"xs", "ys", NULL};
    PyObject *xs_obj, *ys_obj;
    Py_buffer xs, ys;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:format_points",
                                     const_cast<char **>(kwlist), &xs_obj, &ys_obj))
        return NULL;
    if (checked_vector(xs_obj, "xs", &xs) < 0)
        return NULL;
    if (checked_vector(ys_obj, "ys", &ys) < 0) {
        PyBuffer_Release(&xs);
        return NULL;
    }
    PyObject *text = NULL;
    Py_ssize_t n = xs.shape[0];
    /* per point: two cells, the comma between them and a space after */
    if (ys.shape[0] != n)
        PyErr_Format(PyExc_ValueError, "xs has %zd items, ys has %zd", n, ys.shape[0]);
    else if (n > PY_SSIZE_T_MAX / (2 * MAX_G6 + 2))
        PyErr_NoMemory();
    else
        text = PyUnicode_New(n * (2 * MAX_G6 + 2), 127);
    if (text != NULL) {
        const double *x = static_cast<const double *>(xs.buf);
        const double *y = static_cast<const double *>(ys.buf);
        char *start = reinterpret_cast<char *>(PyUnicode_1BYTE_DATA(text));
        char *out = start;
        for (Py_ssize_t i = 0; i < n; i++) {
            if (i > 0)
                *out++ = ' ';
            out = write_g6(x[i], out);
            *out++ = ',';
            out = write_g6(y[i], out);
        }
        /* a fresh str with one reference: PyUnicode_Resize shrinks it in place */
        if (PyUnicode_Resize(&text, out - start) < 0)
            text = NULL;
    }
    PyBuffer_Release(&xs);
    PyBuffer_Release(&ys);
    return text;
}
