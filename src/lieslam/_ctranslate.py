"""Translate the observer laws of ``_laws.py`` into a C extension.

Imported only when the compiled kernels are missing from the cache
(see ``_kernels._compiled``).  :func:`build` reads ``_laws.py``, the
file ``_kernels`` passes it, parses it with :mod:`ast` and turns each
entry point of :data:`ENTRIES`, and every kernel function it calls,
into C, one specialisation per argument types.  It accepts only the
subset the ``_laws`` docstring describes and raises
:class:`BuildError` on anything else.

Values are ``double`` (F), ``Py_ssize_t`` (I), C bools (B), flat
float sequences (S) and rows of 3 floats (R), the last two as
``lk_seq`` views into a per-call arena; a parameter tuple (P) is an
array of ``lk_item`` filled at the boundary.  Every call, including the
division, ``**`` and ``sqrt`` that raise in Python, is hoisted into a
temporary in Python's evaluation order, so the C performs the same
float operations in the same order and the first exception it records
is the one the Python kernel raises.  The fixed helpers live in
``_cprelude.h``.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

# No contraction into FMA, and no builtin expansion of pow/sqrt: every
# operation is the one CPython performs.  Part of the cache key.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")
PRELUDE = Path(__file__).with_name("_cprelude.h")

# entry points and their argument types: S the flat state, F dt, I nsub,
# a parenthesized group the parameter tuple built by ``basic_params``
# or ``imu_params``
_BASIC, _IMU = "(RSSFFSS)", "(RRRSFSSFFFSSSF)"
ENTRIES = {
    "_basic_rates": "S" + _BASIC, "basic_sample": "S" + _BASIC + "FI",
    "_imu_rates": "S" + _IMU, "imu_sample": "S" + _IMU + "FI",
    "_quat_rates": "S" + _IMU, "quat_sample": "S" + _IMU + "FI",
}
_CTYPE = {"F": "double", "I": "Py_ssize_t", "B": "int", "S": "lk_seq", "R": "lk_seq",
          "E": "lk_seq"}
_FIELD = {"F": "d", "I": "i"}  # lk_item field of a scalar; sequences are .s
_BINOP = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMPOP = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">="}


class BuildError(ImportError):
    """The compiled kernels cannot be built here."""


def _is_call(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _types(sig: str) -> list:
    """Argument types of a signature: "S(RF)I" -> ["S", ("P", "RF"), "I"]."""
    return [("P", t[1:-1]) if t[0] == "(" else t for t in re.findall(r"\(\w*\)|\w", sig)]


class _Func:
    """One specialisation of a kernel function for fixed argument types."""

    def __init__(self, tr: "_Translator", node: ast.FunctionDef, types: tuple, cname: str):
        self.tr, self.node, self.cname = tr, node, cname
        self.env, self.decls, self.lines = {}, {}, []
        self.ret, self.depth, self.ntemp = None, 1, 0
        self.params = ["lk_arena *A"]
        a = node.args
        if len(a.args) != len(types) or a.vararg or a.kwarg or a.kwonlyargs or a.posonlyargs:
            self.fail(node, "this signature")
        if not isinstance(node.body[-1], ast.Return):
            self.fail(node, "a function without a final return")
        for arg, t in zip(node.args.args, types):
            if isinstance(t, tuple) and t[0] == "P":
                self.params.append(f"const lk_item *v_{arg.arg}")
            elif not isinstance(t, tuple):
                self.params.append(f"{_CTYPE[t]} v_{arg.arg}")
            self.env[arg.arg] = (f"v_{arg.arg}", t)
        self.fixed = dict(self.env.values())
        self.block(node.body)

    def fail(self, node, what: str):
        raise BuildError(f"_laws.py:{node.lineno}: {what} is outside the translated subset")

    def emit(self, line: str):
        self.lines.append("    " * self.depth + line)

    def declare(self, cname: str, t):
        if cname in self.fixed or self.decls.setdefault(cname, t) != t:
            raise BuildError(f"{self.node.name}: {cname} changes type")

    def temp(self, t, code: str) -> str:
        name = f"t{self.ntemp}"
        self.ntemp += 1
        self.declare(name, t)
        self.emit(f"{name} = {code};")
        return name

    def bind(self, name: str, t) -> str:
        cname, old = self.env.get(name, (f"v_{name}", None))
        if isinstance(t, tuple):
            raise BuildError(f"{self.node.name}: {name} takes a function or a parameter tuple")
        if old == "E" and t in ("S", "R"):
            self.decls[cname] = t
        elif self.fixed.get(cname) != t:
            self.declare(cname, t)
        self.env[name] = (cname, t)
        return cname

    # ------------------------------------------------------------ statements
    def block(self, body):
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, s):
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant):
            return  # docstring
        if isinstance(s, ast.Assign):
            code, t = self.expr(s.value)
            for target in s.targets:
                self.assign(target, code, t)
        elif isinstance(s, ast.AugAssign):
            code, t = self.expr(ast.BinOp(s.target, s.op, s.value, lineno=s.lineno))
            self.assign(s.target, code, t)
        elif isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
                and isinstance(s.value.func, ast.Attribute) and s.value.func.attr == "append" \
                and isinstance(s.value.func.value, ast.Name) and len(s.value.args) == 1:
            name = s.value.func.value.id
            cname, lt = self.env.get(name, (None, None))
            code, t = self.expr(s.value.args[0])
            row = t == "S"
            if lt not in ("E", "R" if row else "S") or t not in ("S", "F"):
                self.fail(s, "this append")
            self.bind(name, "R" if row else "S")
            self.emit(f"lk_push{'_row' if row else ''}(A, &{cname}, {code});")
        elif isinstance(s, ast.For) and isinstance(s.target, ast.Name) \
                and _is_call(s.iter, "range") \
                and len(s.iter.args) == 1 and not s.orelse:
            stop = self.temp("I", self.int_expr(s.iter.args[0]))
            var = self.bind(s.target.id, "I")
            self.emit(f"for ({var} = 0; {var} < {stop}; {var}++) {{")
            self.nested(s.body)
        elif isinstance(s, ast.If):
            self.emit(f"if ({self.expr(s.test)[0]}) {{")
            self.nested(s.body)
            if s.orelse:
                self.lines[-1] += " else {"
                self.nested(s.orelse)
        elif isinstance(s, ast.Return) and s.value is not None:
            code, t = self.expr(s.value)
            if self.ret not in (None, t):
                self.fail(s, "a return of another type")
            self.ret = t
            self.emit(f"return {code};")
        else:
            self.fail(s, type(s).__name__)

    def nested(self, body):
        self.depth += 1
        self.block(body)
        self.depth -= 1
        self.emit("}")

    def assign(self, target, code: str, t):
        if isinstance(target, ast.Name):
            self.emit(f"{self.bind(target.id, t)} = {code};")
        elif isinstance(target, ast.Tuple) and all(isinstance(e, ast.Name) for e in target.elts):
            names = [e.id for e in target.elts]
            if isinstance(t, tuple) and t[0] == "P" and len(t[1]) == len(names):
                for k, (name, et) in enumerate(zip(names, t[1])):
                    self.emit(f"{self.bind(name, et)} = {code}[{k}].{_FIELD.get(et, 's')};")
            elif t == "S":
                seq = self.temp("S", f"lk_fit(A, {code}, {len(names)})")
                for k, name in enumerate(names):
                    self.emit(f"{self.bind(name, 'F')} = {seq}.p[{k}];")
            else:
                self.fail(target, "this unpacking")
        else:
            self.fail(target, "this assignment target")

    # ----------------------------------------------------------- expressions
    def int_expr(self, node) -> str:
        code, t = self.expr(node)
        if t != "I":
            self.fail(node, "a non-integer index or count")
        return code

    def float_expr(self, node) -> str:
        code, t = self.expr(node)
        if t not in ("F", "I"):
            self.fail(node, "a non-numeric operand")
        return code if t == "F" else f"(double){code}"

    def expr(self, n) -> tuple[str, object]:
        """(pure C expression, type) of a Python expression; anything with
        an effect has been emitted into a temporary before."""
        if isinstance(n, ast.Constant) and type(n.value) in (int, float):
            return (str(n.value), "I") if type(n.value) is int else (n.value.hex(), "F")
        if isinstance(n, ast.Name):
            if n.id in self.env:
                return self.env[n.id]
            if n.id in self.tr.consts:
                return self.expr(ast.Constant(self.tr.consts[n.id], lineno=n.lineno))
            if n.id in self.tr.defs:
                return None, ("FN", n.id)
            self.fail(n, f"the name {n.id!r}")
        if isinstance(n, ast.BinOp):
            return self.binop(n)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            code, t = self.expr(n.operand)
            if t not in ("F", "I"):
                self.fail(n, "negating a non-number")
            return f"(-{code})", t
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not):
            return f"(!{self.expr(n.operand)[0]})", "B"
        if isinstance(n, ast.BoolOp):
            parts = []
            for v in n.values:
                mark = len(self.lines)
                code, t = self.expr(v)
                if t != "B" or (parts and len(self.lines) != mark):
                    self.fail(n, "'and'/'or' on a non-bool or before a call")
                parts.append(code)
            op = " && " if isinstance(n.op, ast.And) else " || "
            return f"({op.join(parts)})", "B"
        if isinstance(n, ast.Compare) and len(n.ops) == 1 and type(n.ops[0]) in _CMPOP:
            left, right = self.float_expr(n.left), self.float_expr(n.comparators[0])
            return f"({left} {_CMPOP[type(n.ops[0])]} {right})", "B"
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            return self.call(n)
        if isinstance(n, ast.Subscript):
            return self.subscript(n)
        if isinstance(n, (ast.Tuple, ast.List)):
            items = [self.float_expr(e) for e in n.elts]
            if not items:
                return "lk_empty()", "E"
            seq = self.temp("S", f"lk_new(A, {len(items)})")
            for k, item in enumerate(items):
                self.emit(f"{seq}.p[{k}] = {item};")
            return seq, "S"
        if isinstance(n, ast.ListComp):
            return self.listcomp(n)
        self.fail(n, type(n).__name__)

    def binop(self, n):
        (lc, lt), (rc, rt) = self.expr(n.left), self.expr(n.right)
        if isinstance(n.op, ast.Add) and lt == rt == "S":
            return self.temp("S", f"lk_concat(A, {lc}, {rc})"), "S"
        if lt not in ("F", "I") or rt not in ("F", "I"):
            self.fail(n, "arithmetic on sequences")
        if isinstance(n.op, ast.Pow):
            if not (lt == "F" and isinstance(n.right, ast.Constant)
                    and type(n.right.value) is int and n.right.value > 0):
                self.fail(n, "a power other than float ** positive integer literal")
            return self.temp("F", f"lk_pow(A, {lc}, {n.right.value}.0)"), "F"
        if isinstance(n.op, ast.Div):
            return self.temp("F", f"lk_div(A, {self.cast(lc, lt)}, {self.cast(rc, rt)})"), "F"
        if type(n.op) not in _BINOP:
            self.fail(n, type(n.op).__name__)
        if lt == rt == "I":
            return f"({lc} {_BINOP[type(n.op)]} {rc})", "I"
        return f"({self.cast(lc, lt)} {_BINOP[type(n.op)]} {self.cast(rc, rt)})", "F"

    @staticmethod
    def cast(code: str, t) -> str:
        return f"(double){code}" if t == "I" else code

    def call(self, n):
        name, args = n.func.id, n.args
        if n.keywords or any(isinstance(a, ast.Starred) for a in args):
            self.fail(n, "a call with keywords or *args")
        if name == "len" and len(args) == 1:
            code, t = self.expr(args[0])
            if t not in ("S", "R"):
                self.fail(n, "len of a non-sequence")
            return f"{code}.n", "I"
        if name == "sqrt":
            return self.temp("F", f"lk_sqrt(A, {self.float_expr(args[0])})"), "F"
        if name == "isfinite":
            return f"isfinite({self.float_expr(args[0])})", "B"
        fn = self.env.get(name, (None, ("FN", name) if name in self.tr.defs else None))[1]
        if not (isinstance(fn, tuple) and fn[0] == "FN"):
            self.fail(n, f"a call of {name!r}")
        values = [self.expr(a) for a in args]
        cname, ret = self.tr.specialise(fn[1], tuple(t for _, t in values))
        actual = ", ".join(["A"] + [c for c, t in values if not (isinstance(t, tuple)
                                                               and t[0] == "FN")])
        return self.temp(ret, f"{cname}({actual})"), ret

    def subscript(self, n):
        code, t = self.expr(n.value)
        if isinstance(n.slice, ast.Slice) and n.slice.step is None and t == "S":
            lo = self.int_expr(n.slice.lower) if n.slice.lower else "0"
            hi = self.int_expr(n.slice.upper) if n.slice.upper else "PY_SSIZE_T_MAX"
            return self.temp("S", f"lk_slice({code}, {lo}, {hi})"), "S"
        index = self.int_expr(n.slice)
        if t == "S":
            return self.temp("F", f"lk_at(A, {code}, {index})"), "F"
        if t == "R":
            return self.temp("S", f"lk_row(A, {code}, {index})"), "S"
        self.fail(n, "this subscript")

    def listcomp(self, n):
        gen = n.generators[0]
        if len(n.generators) != 1 or gen.ifs or gen.is_async or not _is_call(gen.iter, "zip"):
            self.fail(n, "a comprehension other than one over a zip")
        sources, targets = gen.iter.args, gen.target.elts
        seqs = []
        for src in sources:
            code, t = self.expr(src)
            if t != "S":
                self.fail(src, "iterating a non-flat sequence")
            seqs.append(code)
        size = seqs[0] + ".n"
        for seq in seqs[1:]:
            size = f"lk_min({size}, {seq}.n)"
        size = self.temp("I", size)
        out = self.temp("S", f"lk_new(A, {size})")
        index = self.temp("I", "0")
        self.emit(f"for (; {index} < {size}; {index}++) {{")
        self.depth += 1
        saved = dict(self.env)
        for target, seq in zip(targets, seqs):
            cname = f"c_{target.id}"
            self.declare(cname, "F")
            self.env[target.id] = (cname, "F")
            self.emit(f"{cname} = {seq}.p[{index}];")
        self.emit(f"{out}.p[{index}] = {self.float_expr(n.elt)};")
        self.env = saved
        self.depth -= 1
        self.emit("}")
        return out, "S"

    def source(self) -> str:
        ret = _CTYPE[self.ret]
        decls = [f"    {_CTYPE[t]} {name};" for name, t in self.decls.items()]
        return "\n".join([f"static {ret} {self.cname}({', '.join(self.params)})", "{"]
                         + decls + self.lines + ["}", ""])


class _Translator:
    """The kernels of one module source, specialised on demand."""

    def __init__(self, source: str):
        tree = ast.parse(source)
        self.defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        self.consts = {t.id: n.value.value for n in tree.body if isinstance(n, ast.Assign)
                       and isinstance(n.value, ast.Constant)
                       and type(n.value.value) in (int, float) for t in n.targets}
        self.done: dict = {}
        self.functions: list[str] = []
        self.count = 0

    def specialise(self, name: str, types: tuple) -> tuple[str, object]:
        key = (name, types)
        if name not in self.defs:
            raise BuildError(f"no kernel function {name!r}")
        if key not in self.done:
            self.count += 1
            cname = f"lk_{name}_{self.count}"
            func = _Func(self, self.defs[name], types, cname)
            self.functions.append(func.source())
            self.done[key] = (cname, func.ret)
        return self.done[key]

    def wrapper(self, name: str, sig: str) -> str:
        types = _types(sig)
        cname, ret = self.specialise(name, tuple(types))
        if ret != "S":
            raise BuildError(f"{name}: an entry point must return a list of floats")
        actual, k = [], 0
        for t in types:
            if isinstance(t, tuple):
                actual.append(f"it + {k}")
                k += len(t[1])
            else:
                actual.append(f"it[{k}].{_FIELD.get(t, 's')}")
                k += 1
        return (f"static PyObject *py_{name}(PyObject *self, PyObject *const *args, "
                f"Py_ssize_t nargs)\n{{\n    lk_item it[{k}];\n"
                f"    lk_arena *A = lk_open();\n"
                f"    if (!A)\n        return PyErr_NoMemory();\n"
                f"    if (setjmp(A->nomem))\n        return lk_close(A, PyErr_NoMemory());\n"
                f"    if (lk_args(A, args, nargs, \"{sig}\", {len(types)}, it) < 0)\n"
                f"        return lk_close(A, NULL);\n"
                f"    return lk_close(A, lk_result(A, {cname}("
                f"{', '.join(['A'] + actual)})));\n}}\n")


def translate(source: str, module: str) -> str:
    """C source of the extension ``module`` holding every entry point."""
    tr = _Translator(source)
    wrappers = [tr.wrapper(name, sig) for name, sig in ENTRIES.items()]
    methods = "".join(f"    {{\"{name}\", (PyCFunction)(void (*)(void))py_{name}, "
                      f"METH_FASTCALL, NULL}},\n" for name in ENTRIES)
    return "\n".join([PRELUDE.read_text(), *tr.functions, *wrappers,
                      f"static PyMethodDef methods[] = {{\n{methods}    {{NULL}}\n}};\n",
                      f"static struct PyModuleDef def = {{PyModuleDef_HEAD_INIT, "
                      f"\"{module}\", NULL, -1, methods}};\n",
                      f"PyMODINIT_FUNC PyInit_{module}(void)\n{{\n"
                      f"    return PyModule_Create(&def);\n}}\n"])


def build(laws: str, target: str, module: str, cc: str, replaces: str) -> None:
    """Translate the ``laws`` source file (``_laws.py``) and compile it
    with the compiler command ``cc`` into ``target``; the file appears
    whole or not at all (built beside it, then renamed).  Then the other
    files beside it whose names start with ``replaces`` are deleted."""
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise BuildError(f"no Python.h in {include}")
    try:
        cc_args = shlex.split(cc)
    except ValueError as exc:
        raise BuildError(f"CC={cc!r}: {exc}") from None
    code = translate(Path(laws).read_text(), module)
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src, out = Path(tmp, f"{module}.c"), Path(tmp, target.name)
        src.write_text(code)
        try:
            done = subprocess.run([*cc_args, *CFLAGS, f"-I{include}", "-o", str(out), str(src),
                                   "-lm"], capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise BuildError(f"{cc}: {exc}") from None
        if done.returncode != 0:
            raise BuildError(f"{cc} exited with status {done.returncode}: "
                             f"{done.stderr.strip()[-500:]}")
        os.replace(out, target)
    for old in target.parent.glob(replaces + "*"):
        if old != target:
            old.unlink(missing_ok=True)
