/* Fixed part of the C build of the observer kernels: no law lives here.
 *
 * _ctranslate.py prepends this file to the C it generates from
 * _laws.py.  It holds the value types of the translated code, the
 * per-call arena every list and tuple is allocated from, the float
 * operations that raise in Python (each records the exception CPython
 * would raise and the translated code runs on; the entry point raises
 * the first one recorded), and the marshalling between Python lists and
 * C arrays at the entry points.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>
#include <setjmp.h>
#include <stdlib.h>
#include <string.h>

/* a list or tuple of floats; rows of 3 (n rows) for nested lists */
typedef struct {
    double *p;
    Py_ssize_t n, cap;
} lk_seq;

/* one argument at the boundary: a sequence, a float or an int */
typedef struct {
    lk_seq s;
    double d;
    Py_ssize_t i;
} lk_item;

enum { LK_OK, LK_ZERODIV, LK_OVERFLOW, LK_MATHDOMAIN, LK_INDEX, LK_UNPACK };

typedef struct lk_block {
    struct lk_block *prev;
    Py_ssize_t cap, used;
    double data[];
} lk_block;

typedef struct {
    lk_block *top;
    int err, busy, own;
    jmp_buf nomem;
} lk_arena;

/* The arena of a call; the shared one keeps its memory between calls.
 * A call made while another is in flight (from a __float__ of an
 * argument, or another thread while one runs Python code) gets its own. */
static lk_arena lk_shared;

static void lk_error(lk_arena *A, int code)
{
    if (!A->err)
        A->err = code;
}

static void lk_free_blocks(lk_arena *A)
{
    while (A->top) {
        lk_block *b = A->top;
        A->top = b->prev;
        free(b);
    }
}

static lk_arena *lk_open(void)
{
    lk_arena *A = &lk_shared;
    if (A->busy) {
        A = calloc(1, sizeof(lk_arena));
        if (!A)
            return NULL;
        A->own = 1;
    }
    else if (A->top && A->top->prev) {
        /* last call outgrew the first block: keep one as big as all */
        Py_ssize_t total = 0;
        for (lk_block *b = A->top; b; b = b->prev)
            total += b->cap;
        lk_free_blocks(A);
        A->top = malloc(sizeof(lk_block) + total * sizeof(double));
        if (A->top) {
            A->top->prev = NULL;
            A->top->cap = total;
        }
    }
    if (A->top)
        A->top->used = 0;
    A->busy = 1;
    A->err = LK_OK;
    return A;
}

static PyObject *lk_close(lk_arena *A, PyObject *result)
{
    A->busy = 0;
    if (A->own) {
        lk_free_blocks(A);
        free(A);
    }
    return result;
}

static double *lk_alloc(lk_arena *A, Py_ssize_t n)
{
    lk_block *b = A->top;
    if (!b || b->used + n > b->cap) {
        Py_ssize_t cap = b ? 2 * b->cap : 4096;
        if (cap < n)
            cap = n;
        lk_block *nb = malloc(sizeof(lk_block) + cap * sizeof(double));
        if (!nb)
            longjmp(A->nomem, 1);
        nb->prev = b;
        nb->cap = cap;
        nb->used = 0;
        A->top = b = nb;
    }
    double *p = b->data + b->used;
    b->used += n;
    return p;
}

static lk_seq lk_new(lk_arena *A, Py_ssize_t n)
{
    lk_seq s = {lk_alloc(A, n), n, n};
    return s;
}

static lk_seq lk_empty(void)
{
    lk_seq s = {NULL, 0, 0};
    return s;
}

/* room for need doubles in a list built by append, used of them taken */
static void lk_reserve(lk_arena *A, lk_seq *s, Py_ssize_t used, Py_ssize_t need)
{
    if (need <= s->cap)
        return;
    Py_ssize_t cap = 2 * s->cap + 24;
    double *p = lk_alloc(A, cap);
    if (used)
        memcpy(p, s->p, used * sizeof(double));
    s->p = p;
    s->cap = cap;
}

static void lk_push(lk_arena *A, lk_seq *s, double v)
{
    lk_reserve(A, s, s->n, s->n + 1);
    s->p[s->n++] = v;
}

/* rows: n counts rows of 3 */
static void lk_push_row(lk_arena *A, lk_seq *s, lk_seq row)
{
    if (row.n != 3) {
        lk_error(A, LK_UNPACK);
        return;
    }
    lk_reserve(A, s, 3 * s->n, 3 * s->n + 3);
    memcpy(s->p + 3 * s->n, row.p, 3 * sizeof(double));
    s->n++;
}

static lk_seq lk_concat(lk_arena *A, lk_seq a, lk_seq b)
{
    lk_seq s = lk_new(A, a.n + b.n);
    if (a.n)
        memcpy(s.p, a.p, a.n * sizeof(double));
    if (b.n)
        memcpy(s.p + a.n, b.p, b.n * sizeof(double));
    return s;
}

/* the target of an n-name unpacking: s itself, or zeros after an error */
static lk_seq lk_fit(lk_arena *A, lk_seq s, Py_ssize_t n)
{
    if (s.n == n)
        return s;
    lk_error(A, LK_UNPACK);
    lk_seq z = lk_new(A, n);
    memset(z.p, 0, n * sizeof(double));
    return z;
}

static Py_ssize_t lk_index(lk_arena *A, Py_ssize_t n, Py_ssize_t i)
{
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        lk_error(A, LK_INDEX);
        return -1;
    }
    return i;
}

static double lk_at(lk_arena *A, lk_seq s, Py_ssize_t i)
{
    i = lk_index(A, s.n, i);
    return i < 0 ? 0.0 : s.p[i];
}

static lk_seq lk_row(lk_arena *A, lk_seq rows, Py_ssize_t i)
{
    i = lk_index(A, rows.n, i);
    if (i < 0)
        return lk_fit(A, lk_empty(), 3);
    lk_seq s = {rows.p + 3 * i, 3, 3};
    return s;
}

/* s[lo:hi] with Python's clamping, as a view (lists are never changed
 * in place, only appended to) */
static lk_seq lk_slice(lk_seq s, Py_ssize_t lo, Py_ssize_t hi)
{
    if (lo < 0)
        lo = lo + s.n < 0 ? 0 : lo + s.n;
    if (hi < 0)
        hi = hi + s.n < 0 ? 0 : hi + s.n;
    if (hi > s.n)
        hi = s.n;
    if (lo > hi)
        lo = hi;
    lk_seq v = {s.p + lo, hi - lo, hi - lo};
    return v;
}

static Py_ssize_t lk_min(Py_ssize_t a, Py_ssize_t b)
{
    return a < b ? a : b;
}

/* float.__truediv__ */
static double lk_div(lk_arena *A, double a, double b)
{
    if (b == 0.0) {
        lk_error(A, LK_ZERODIV);
        return 0.0;
    }
    return a / b;
}

/* float.__pow__ for a positive integral exponent w */
static double lk_pow(lk_arena *A, double v, double w)
{
    int odd = fmod(w, 2.0) == 1.0, negate = 0;
    if (isnan(v))
        return v;
    if (isinf(v))
        return odd ? v : fabs(v);
    if (v == 0.0)
        return odd ? v : 0.0;
    if (v < 0.0) {
        v = -v;
        negate = odd;
    }
    if (v == 1.0)
        return negate ? -1.0 : 1.0;
    errno = 0;
    double r = pow(v, w);
    if (errno == 0) {
        if (isinf(r))
            errno = ERANGE;
    }
    else if (errno == ERANGE && r == 0.0)
        errno = 0;
    if (negate)
        r = -r;
    if (errno)  /* ERANGE: a positive integral power has no domain error */
        lk_error(A, LK_OVERFLOW);
    return r;
}

/* math.sqrt */
static double lk_sqrt(lk_arena *A, double x)
{
    double r = sqrt(x);
    if (isnan(r) && !isnan(x))
        lk_error(A, LK_MATHDOMAIN);
    return r;
}

/* ------------------------------------------------------------ boundary */

static int lk_floats(PyObject *const *items, double *out, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *v = items[k];
        out[k] = PyFloat_CheckExact(v) ? PyFloat_AS_DOUBLE(v) : PyFloat_AsDouble(v);
        if (out[k] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* a flat list or tuple of floats (rows == 0), or a list of 3-rows */
static int lk_seq_from(lk_arena *A, PyObject *obj, lk_seq *s, int rows)
{
    PyObject *fast = PySequence_Fast(obj, "kernel argument: expected a sequence");
    if (!fast)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    int rc = 0;
    *s = lk_new(A, rows ? 3 * n : n);
    s->n = n;
    if (!rows)
        rc = lk_floats(items, s->p, n);
    for (Py_ssize_t k = 0; rows && k < n && rc == 0; k++) {
        PyObject *row = PySequence_Fast(items[k], "kernel argument: expected rows");
        if (!row) {
            rc = -1;
            break;
        }
        if (PySequence_Fast_GET_SIZE(row) != 3) {
            PyErr_SetString(PyExc_ValueError, "kernel argument: rows must have 3 entries");
            rc = -1;
        }
        else
            rc = lk_floats(PySequence_Fast_ITEMS(row), s->p + 3 * k, 3);
        Py_DECREF(row);
    }
    Py_DECREF(fast);
    return rc;
}

static int lk_item_from(lk_arena *A, PyObject *obj, char type, lk_item *it)
{
    switch (type) {
    case 'F':
        it->d = PyFloat_AsDouble(obj);
        return it->d == -1.0 && PyErr_Occurred() ? -1 : 0;
    case 'I':
        it->i = PyLong_AsSsize_t(obj);
        return it->i == -1 && PyErr_Occurred() ? -1 : 0;
    default:
        return lk_seq_from(A, obj, &it->s, type == 'R');
    }
}

/* Fill items from the call's nargs arguments by a signature such as
 * "S(RSSFFSS)FI": S a flat sequence, R rows of 3, F a float, I an int,
 * a parenthesized group one sequence argument taking an item per entry. */
static int lk_args(lk_arena *A, PyObject *const *args, Py_ssize_t nargs, const char *sig,
                   Py_ssize_t want, lk_item *items)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "kernel takes %zd arguments (%zd given)", want, nargs);
        return -1;
    }
    for (Py_ssize_t a = 0; a < nargs; a++, sig++) {
        if (*sig != '(') {
            if (lk_item_from(A, args[a], *sig, items++) < 0)
                return -1;
            continue;
        }
        Py_ssize_t size = strchr(sig, ')') - sig - 1;
        PyObject *fast = PySequence_Fast(args[a], "kernel argument: expected a tuple");
        if (!fast)
            return -1;
        int rc = 0;
        if (PySequence_Fast_GET_SIZE(fast) != size) {
            PyErr_Format(PyExc_ValueError, "kernel argument %zd: expected %zd values", a, size);
            rc = -1;
        }
        for (Py_ssize_t k = 0; k < size && rc == 0; k++)
            rc = lk_item_from(A, PySequence_Fast_GET_ITEM(fast, k), sig[k + 1], items++);
        Py_DECREF(fast);
        if (rc < 0)
            return -1;
        sig += size + 1;
    }
    return 0;
}

/* The kernel's result as a list of floats, or the first recorded error. */
static PyObject *lk_result(lk_arena *A, lk_seq s)
{
    switch (A->err) {
    case LK_ZERODIV:
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    case LK_OVERFLOW:
        errno = ERANGE;
        return PyErr_SetFromErrno(PyExc_OverflowError);
    case LK_MATHDOMAIN:
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return NULL;
    case LK_INDEX:
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    case LK_UNPACK:
        PyErr_SetString(PyExc_ValueError, "wrong number of values to unpack");
        return NULL;
    }
    PyObject *list = PyList_New(s.n);
    for (Py_ssize_t k = 0; list && k < s.n; k++) {
        PyObject *v = PyFloat_FromDouble(s.p[k]);
        if (!v) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, k, v);
    }
    return list;
}
