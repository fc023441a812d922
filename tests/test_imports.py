"""Static guards on degcert's source.

The certificate commands start without numpy, so no module may import it,
or concurrent.futures, at module level, and every function that reads the
name np must bind it first, in its own body or in an enclosing function.
A function that forgot its local import would raise NameError only when it
runs, so this walks the source instead of running every path.

A second guard lists the parameters that a function never reads, so an
option that stops acting shows up here instead of being silently ignored.
A third lists the private top-level functions that nothing in the package
calls, so a helper that only the tests still use cannot linger.  A fourth
lists the public top-level functions that neither the package nor the
benchmark reads, so a library entry point that only the tests call shows up.
A fifth keeps the CLI to one integer reader: no option of cli.py passes
type=int, which would refuse the e-notation that cli._integer reads exactly.
A sixth keeps output in the CLI: no other module imports csv or reads the
builtins print or open, so the library only computes and cli.py alone decides
what a command writes.  A seventh keeps the sieve's segment and block lengths
in arith: no other module reads SEGMENT_SIZE or _SIEVE_BLOCK.  An eighth holds
only the sieves and the walks to the sieve budget: no function but
arith.map_sieve, certify._walk and certify._walk_counts reads check_sieve_bound.
A ninth keeps the qualification inequality in one value: no function takes
parameters named a, b and c together, so its coefficients are passed as one
certify._Inequality, not by position.  A tenth keeps the leading coefficient
inside that value: no code outside class _Inequality reads an attribute named
a, so every bound on a prime power comes from _Inequality.top.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import degcert

SOURCES = sorted(Path(degcert.__file__).parent.glob("*.py"))
BENCHMARK_SOURCES = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
DEFERRED = ("numpy", "concurrent.futures")


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _bindings(fn: ast.AST) -> dict[str, int]:
    """Name -> first line binding it directly in fn's body (parameters at
    the def line); nested functions and classes are their own scopes."""
    out: dict[str, int] = {}
    args = fn.args
    for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
        if a is not None:
            out.setdefault(a.arg, fn.lineno)
    todo = fn.body[:] if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                out[name] = min(out.get(name, node.lineno), node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out[node.id] = min(out.get(node.id, node.lineno), node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
    return out


def _annotations(tree: ast.AST) -> set[int]:
    """ids of every node inside an annotation: with postponed evaluation
    they are strings at run time and read no name."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def violations(source: str) -> list[str]:
    """Module-level imports of DEFERRED modules, and reads of np in a scope
    where no enclosing function has bound it on an earlier line."""
    tree = ast.parse(source)
    skip = _annotations(tree)
    found = []

    def visit(node: ast.AST, scopes: list[dict[str, int]]) -> None:
        if not scopes and any(m == d or m.startswith(d + ".") for m in _imported(node) for d in DEFERRED):
            found.append(f"line {node.lineno}: module-level import of {', '.join(_imported(node))}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scopes = scopes + [_bindings(node)]
        if (isinstance(node, ast.Name) and node.id == "np" and isinstance(node.ctx, ast.Load)
                and id(node) not in skip
                and not any(s.get("np", node.lineno + 1) <= node.lineno for s in scopes)):
            found.append(f"line {node.lineno}: np read where no enclosing function binds it")
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_numpy_and_thread_pool_are_imported_inside_functions(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize(
    "source,count",
    [
        ("import numpy as np\n", 1),
        ("from concurrent.futures import ThreadPoolExecutor\n", 1),
        ("import concurrent.futures\n", 1),
        ("def f(x: np.ndarray) -> np.ndarray:\n    return x.sum()\n", 0),
        ("def f(x):\n    return np.sum(x)\n", 1),
        ("def f(x):\n    y = np.sum(x)\n    import numpy as np\n    return y\n", 1),
        ("def f(x):\n    import numpy as np\n    return np.sum(x)\n", 0),
        ("def f(x):\n    import numpy as np\n\n    def g():\n        return np.sum(x)\n    return g\n", 0),
        ("def f(x):\n    def g():\n        import numpy as np\n    return np.sum(x)\n", 1),
    ],
)
def test_the_guard_reports_what_it_should(source, count):
    assert len(violations(source)) == count


def unread_parameters(source: str) -> list[str]:
    """function.parameter for every parameter that its function's body,
    nested functions included, never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        params = [a.arg for a in every if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        found += [f"{getattr(fn, 'name', 'lambda')}.{p}" for p in params if p not in read]
    return found


# The walk functions run one sequential walk and ignore threads; they keep
# the parameter only because the committed benchmark (perfbench/workloads.py)
# passes threads= to all four.  Any other unread parameter is an option that
# changes nothing, and should go.
BENCHMARK_PINNED = [
    "certify.enumerate_qualifying.threads",
    "certify.scan_qualifying.threads",
    "certify.smallest_qualifying.threads",
    "density.empirical_density.threads",
]


def test_every_parameter_is_read_except_the_benchmark_pinned_threads():
    found = [f"{path.stem}.{name}" for path in SOURCES for name in unread_parameters(path.read_text())]
    assert sorted(found) == BENCHMARK_PINNED


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f(x, y):\n    return x\n", ["f.y"]),
        ("def f(x, *rest, key=None, **kw):\n    return x\n", ["f.key", "f.rest", "f.kw"]),
        ("def f(x):\n    def g():\n        return x\n    return g\n", []),
        ("def f(x):\n    x = 1\n    return 0\n", ["f.x"]),
        ("g = lambda x, y: y\n", ["lambda.x"]),
    ],
)
def test_the_unread_parameter_guard_reports_what_it_should(source, found):
    assert unread_parameters(source) == found


def _read(n: ast.AST) -> str | None:
    """The name that the node n itself reads, if it is a loaded name or
    attribute or an import."""
    if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
        return n.id if isinstance(n, ast.Name) else n.attr
    return n.name if isinstance(n, ast.alias) else None


def _reads(node: ast.AST) -> list[str]:
    """Every name that node reads: loaded names and attributes, and imports."""
    return [name for n in ast.walk(node) if (name := _read(n)) is not None]


def uncalled_functions(sources: dict[str, str], outside: list[str]) -> list[str]:
    """module.name for every top-level function name (not a dunder) of
    sources, module name -> text, that no source reads outside its own def
    and no text of outside reads at all; a recursive call does not count,
    and names inside strings are not reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in _reads(tree))
    everywhere.update(name for text in outside for name in _reads(ast.parse(text)))
    return [
        f"{module}.{fn.name}"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.endswith("__")
        and everywhere[fn.name] == _reads(fn).count(fn.name)
    ]


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """module._name for every private function of uncalled_functions(sources, [])."""
    return [name for name in uncalled_functions(sources, []) if name.split(".")[1].startswith("_")]


def test_every_private_function_has_a_caller_in_the_package():
    # a private helper that only tests call is dead code of the package;
    # move it into the tests or delete it
    assert unused_private_functions({path.stem: path.read_text() for path in SOURCES}) == []


@pytest.mark.parametrize(
    "sources,found",
    [
        ({"m": "def _f():\n    return 1\n"}, ["m._f"]),
        ({"m": "def _f():\n    return 1\n\nx = _f()\n"}, []),
        ({"m": "def _f(n):\n    return _f(n - 1)\n"}, ["m._f"]),
        ({"a": "def _f():\n    return 1\n", "b": "from . import a\n\ny = a._f\n"}, []),
        ({"a": "def _f():\n    return 1\n", "b": "from .a import _f\n"}, []),
        ({"m": "def __getattr__(name):\n    return name\n\ndef g():\n    return 1\n"}, []),
    ],
)
def test_the_private_function_guard_reports_what_it_should(sources, found):
    assert unused_private_functions(sources) == found


def public_functions_only_tests_call(sources: dict[str, str], outside: list[str]) -> list[str]:
    """module.name for every public function of uncalled_functions(sources,
    outside): outside holds the texts that call the package, the tests aside."""
    return [name for name in uncalled_functions(sources, outside) if not name.split(".")[1].startswith("_")]


# perfbench/tracer.py wraps largest_prime_power_segment by name, and
# perfbench/test_perfbench.py::test_missing_traced_name_is_reported_absent
# asserts that no traced name is missing from the package.  Any other public
# function that only the tests call should move into the tests or go.
TRACER_PINNED = ["arith.largest_prime_power_segment"]


def test_every_public_function_has_a_caller_in_the_package_or_the_benchmark():
    sources = {path.stem: path.read_text() for path in SOURCES}
    outside = [path.read_text() for path in BENCHMARK_SOURCES]
    assert public_functions_only_tests_call(sources, outside) == TRACER_PINNED


@pytest.mark.parametrize(
    "sources,outside,found",
    [
        ({"m": "def f():\n    return 1\n"}, [], ["m.f"]),
        ({"m": "def f(n):\n    return f(n - 1)\n"}, [], ["m.f"]),
        ({"m": "def f():\n    return 1\n\nx = f()\n"}, [], []),
        ({"a": "def f():\n    return 1\n", "b": "from . import a\n\ny = a.f()\n"}, [], []),
        ({"m": "def f():\n    return 1\n"}, ["from degcert import m\n\nm.f()\n"], []),
        ({"m": "def f():\n    return 1\n"}, ["from degcert.m import f\n"], []),
        ({"m": "def f():\n    return 1\n"}, ["NAMES = ['f']\n"], ["m.f"]),
        ({"m": "def _f():\n    return 1\n\ndef g():\n    return 1\n"}, ["g()\n"], []),
    ],
)
def test_the_public_function_guard_reports_what_it_should(sources, outside, found):
    assert public_functions_only_tests_call(sources, outside) == found


def int_typed_options(source: str) -> list[str]:
    """line N for every add_argument call that passes type=int."""
    return [
        f"line {call.lineno}"
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "add_argument"
        and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int" for k in call.keywords)
    ]


def test_no_cli_option_is_read_by_int():
    source = next(path for path in SOURCES if path.name == "cli.py").read_text()
    assert int_typed_options(source) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ('p.add_argument("--n", type=int)\n', ["line 1"]),
        ('p.add_argument("--n", required=True,\n               type=int)\n', ["line 1"]),
        ('p.add_argument("--n", type=_integer)\np.add_argument("--d", type=int)\n', ["line 2"]),
        ('p.add_argument("--u", type=float)\n', []),
        ('p.add_argument("--n", default=int)\nx = int("3")\n', []),
    ],
)
def test_the_int_option_guard_reports_what_it_should(source, found):
    assert int_typed_options(source) == found


def output_uses(source: str) -> list[str]:
    """line N: what, for every import of csv and every read of print or open."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if any(m == "csv" or m.startswith("csv.") for m in _imported(node)):
            found.append(f"line {node.lineno}: import of csv")
        elif isinstance(node, ast.Name) and node.id in ("print", "open") and isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: {node.id}")
    return found


LIBRARY_SOURCES = [path for path in SOURCES if path.name != "cli.py"]


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=[p.name for p in LIBRARY_SOURCES])
def test_only_the_cli_writes_output(path):
    assert output_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("import csv\n", ["line 1: import of csv"]),
        ("import csv as table\n", ["line 1: import of csv"]),
        ("from csv import writer\n", ["line 1: import of csv"]),
        ("x = 1\nprint(x)\n", ["line 2: print"]),
        ("with open('f', 'w') as fh:\n    fh.write('x')\n", ["line 1: open"]),
        ("emit = print\n", ["line 1: print"]),
        ("def f(out):\n    out.write('x')\n", []),
        ("import csvkit\nfrom io import StringIO\ns = 'print(1)'\n", []),
    ],
)
def test_the_output_guard_reports_what_it_should(source, found):
    assert output_uses(source) == found


SIEVE_LENGTHS = ("SEGMENT_SIZE", "_SIEVE_BLOCK")


def sieve_length_reads(source: str) -> list[str]:
    """line N: name, for every read or import of a name of SIEVE_LENGTHS."""
    return [f"line {n.lineno}: {_read(n)}" for n in ast.walk(ast.parse(source)) if _read(n) in SIEVE_LENGTHS]


NOT_ARITH = [path for path in SOURCES if path.name != "arith.py"]


@pytest.mark.parametrize("path", NOT_ARITH, ids=[p.name for p in NOT_ARITH])
def test_only_arith_reads_the_sieve_lengths(path):
    assert sieve_length_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("from . import arith\nx = arith.SEGMENT_SIZE\n", ["line 2: SEGMENT_SIZE"]),
        ("from .arith import _SIEVE_BLOCK\n", ["line 1: _SIEVE_BLOCK"]),
        ("import degcert.arith as a\n\ndef f():\n    return range(0, 9, a._SIEVE_BLOCK)\n", ["line 4: _SIEVE_BLOCK"]),
        ("SEGMENT_SIZE = 4\n", []),
        ("x = 'SEGMENT_SIZE'\nsize = 1 << 22\n", []),
    ],
)
def test_the_sieve_length_guard_reports_what_it_should(source, found):
    assert sieve_length_reads(source) == found


def sieve_bound_readers(sources: dict[str, str]) -> list[str]:
    """module.name for every top-level function or class of sources, module
    name -> text, that reads check_sieve_bound in its body, and module for a
    read outside them, such as an import."""
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if "check_sieve_bound" in _reads(node):
                named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                found.append(f"{module}.{node.name}" if named else module)
    return found


def test_only_the_sieve_and_the_walks_check_the_sieve_bound():
    # smallest's branch and bound runs no sieve, so --budget alone bounds it
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert sieve_bound_readers(sources) == ["arith.map_sieve", "certify._walk", "certify._walk_counts"]


@pytest.mark.parametrize(
    "sources,found",
    [
        ({"m": "def f():\n    arith.check_sieve_bound(9)\n"}, ["m.f"]),
        ({"m": "def f():\n    def g():\n        check_sieve_bound(9)\n\n    return g\n"}, ["m.f"]),
        ({"m": "class C:\n    def f(self):\n        check_sieve_bound(9)\n"}, ["m.C"]),
        ({"m": "from .arith import check_sieve_bound\n"}, ["m"]),
        ({"m": "def check_sieve_bound(bound):\n    return bound\n"}, []),
        ({"m": "def f():\n    return 'check_sieve_bound'\n"}, []),
    ],
)
def test_the_sieve_bound_guard_reports_what_it_should(sources, found):
    assert sieve_bound_readers(sources) == found


def coefficient_parameters(source: str) -> list[str]:
    """The name of every function (lambda for a lambda) that takes
    parameters named a, b and c together."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = fn.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if {"a", "b", "c"} <= {a.arg for a in every if a is not None}:
                found.append(getattr(fn, "name", "lambda"))
    return found


def test_no_function_takes_the_coefficients_by_position():
    found = [f"{path.stem}.{name}" for path in SOURCES for name in coefficient_parameters(path.read_text())]
    assert found == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f(a, b, c):\n    return a\n", ["f"]),
        ("def f(n, N, a, b, c, scale=1):\n    return n\n", ["f"]),
        ("def f(x, *, a, b, c=0):\n    return x\n", ["f"]),
        ("def f(x):\n    def g(a, b, c):\n        return a\n    return g\n", ["g"]),
        ("h = lambda a, b, c: a\n", ["lambda"]),
        ("def f(a, b, *c):\n    return a\n", ["f"]),
        ("def f(a, b):\n    return a\n", []),
        ("def f(ineq):\n    n, a, b, c = ineq\n    return a\n", []),
        ("class I:\n    a: int\n    b: int\n    c: int\n\n    def thr(self, v):\n        return self.a * v\n", []),
    ],
)
def test_the_coefficient_guard_reports_what_it_should(source, found):
    assert coefficient_parameters(source) == found


def leading_coefficient_reads(source: str) -> list[str]:
    """line N for every read of an attribute named a outside class _Inequality."""
    tree = ast.parse(source)
    inside = {
        id(n) for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_Inequality" for n in ast.walk(cls)
    }
    return [
        f"line {n.lineno}" for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "a" and isinstance(n.ctx, ast.Load) and id(n) not in inside
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_inequality_reads_its_leading_coefficient(path):
    assert leading_coefficient_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source,found",
    [
        ("x = ineq.a\n", ["line 1"]),
        ("def f(ineq, best):\n    return best // ineq.a\n", ["line 2"]),
        ("class Other:\n    def thr(self, v):\n        return self.a * v\n", ["line 3"]),
        ("class _Inequality:\n    def thr(self, v):\n        return self.a * v\n", []),
        ("class _Inequality:\n    a: int\n\nx = _Inequality(1).a\n", ["line 4"]),
        ("ineq.a = 1\nn, a, b = ineq\nx = ineq.ab + a\n", []),
        ("s = 'ineq.a'\n", []),
    ],
)
def test_the_leading_coefficient_guard_reports_what_it_should(source, found):
    assert leading_coefficient_reads(source) == found
