/* Compiled text formatters: the trace-CSV row writer format_ranges and
 * the SVG polyline writer format_points.
 *
 * format_ranges writes two ranges of rows of a float64 matrix, [start,
 * mid) and [mid, stop), as two strs: each row is its 0-based index in the
 * whole matrix, then its cells, each after a comma and byte-identical to
 * Python's repr(float(x)), then CRLF.  equilab._csvfmt.csv_blocks calls it
 * once per block of rows, split in halves, and each str goes to the file
 * before the next call, so a trace file's whole text never exists.  The
 * second range is formatted on a second thread while the calling thread
 * formats the first, both with the GIL released; an empty second range
 * starts no thread.  Each range is written into its part of one scratch
 * buffer, sized at an upper bound, and copied into an exact-size str after
 * the join.  With the GIL released the threads read only the matrix's
 * buffer and write only the scratch buffer.
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

/* Decimal digits of n >= 0. */
int
digits_of(Py_ssize_t n)
{
    int d = 1;
    for (; n >= 10; n /= 10)
        d++;
    return d;
}

/* The rows of one matrix; index_digits bounds the digits of a row index. */
struct Rows {
    const double *v;
    Py_ssize_t n_cols;
    int index_digits;
};

/* Write rows [lo, hi) at out, each as its index, its comma-led cells and
 * CRLF; return the end. */
char *
write_rows(const Rows &rows, Py_ssize_t lo, Py_ssize_t hi, char *out)
{
    for (Py_ssize_t i = lo; i < hi; i++) {
        out = std::to_chars(out, out + rows.index_digits, i).ptr;
        const double *cells = rows.v + i * rows.n_cols;
        for (Py_ssize_t j = 0; j < rows.n_cols; j++) {
            *out++ = ',';
            out = write_repr(cells[j], out);
        }
        *out++ = '\r';
        *out++ = '\n';
    }
    return out;
}

/* The ASCII bytes [start, end) as an exact-size str. */
PyObject *
ascii_text(const char *start, const char *end)
{
    PyObject *text = PyUnicode_New(end - start, 127);
    if (text != NULL)
        std::memcpy(PyUnicode_1BYTE_DATA(text), start, end - start);
    return text;
}

/* (rows [start, mid), rows [mid, stop)) of the checked matrix, as
 * write_rows lays them out, as a tuple of two strs; 0 <= start <= mid <=
 * stop.  The second range is written on a second thread when it is not
 * empty. */
PyObject *
format_row_ranges(const double *v, Py_ssize_t n_cols, Py_ssize_t start, Py_ssize_t mid,
                  Py_ssize_t stop)
{
    /* upper bound per row: its index, its cells with their commas and the
     * line end */
    if (n_cols > (PY_SSIZE_T_MAX / 2) / (MAX_CELL + 1))
        return PyErr_NoMemory();
    const Rows rows = {v, n_cols, digits_of(stop > 0 ? stop - 1 : 0)};
    Py_ssize_t row_max = rows.index_digits + n_cols * (MAX_CELL + 1) + 2;
    if (stop > start && row_max > PY_SSIZE_T_MAX / (stop - start))
        return PyErr_NoMemory();
    char *first = static_cast<char *>(PyMem_Malloc((stop - start) * row_max));
    if (first == NULL)
        return PyErr_NoMemory();
    char *second = first + (mid - start) * row_max;
    char *first_end = first, *second_end = second;
    Py_BEGIN_ALLOW_THREADS
    std::thread worker;
    if (stop > mid) {
        try {
            worker = std::thread([&] { second_end = write_rows(rows, mid, stop, second); });
        } catch (const std::exception &) {
            /* no second thread: this one writes both ranges, to the same bytes */
        }
    }
    first_end = write_rows(rows, start, mid, first);
    if (worker.joinable())
        worker.join();
    else
        second_end = write_rows(rows, mid, stop, second);
    Py_END_ALLOW_THREADS
    PyObject *texts = NULL;
    PyObject *head = ascii_text(first, first_end);
    PyObject *tail = head != NULL ? ascii_text(second, second_end) : NULL;
    PyMem_Free(first);
    if (tail != NULL)
        texts = PyTuple_Pack(2, head, tail);
    Py_XDECREF(head);
    Py_XDECREF(tail);
    return texts;
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

/* Fill view (released by the caller) from a C-contiguous 2-d float64
 * buffer and return 0, or return -1 with an exception set. */
int
checked_matrix(PyObject *values_obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(values_obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2)
        PyErr_SetString(PyExc_ValueError, "values must be 2-d");
    else if (view->format == NULL || std::strcmp(view->format, "d") != 0)
        PyErr_SetString(PyExc_ValueError, "values must hold float64");
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_SetString(PyExc_ValueError, "values must be C-contiguous");
    else
        return 0;
    PyBuffer_Release(view);
    return -1;
}

}  // namespace

extern "C" PyObject *
reprfmt_format_ranges(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static const char *kwlist[] = {"values", "start", "mid", "stop", NULL};
    PyObject *values_obj;
    Py_ssize_t start, mid, stop;
    Py_buffer view;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Onnn:format_ranges",
                                     const_cast<char **>(kwlist), &values_obj, &start, &mid,
                                     &stop))
        return NULL;
    if (checked_matrix(values_obj, &view) < 0)
        return NULL;
    PyObject *result = NULL;
    if (0 <= start && start <= mid && mid <= stop && stop <= view.shape[0])
        result = format_row_ranges(static_cast<const double *>(view.buf), view.shape[1], start,
                                   mid, stop);
    else
        PyErr_Format(PyExc_ValueError,
                     "rows must satisfy 0 <= start <= mid <= stop <= %zd, got %zd, %zd, %zd",
                     view.shape[0], start, mid, stop);
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
