"""Guards against leftovers: dangling exports, scipy imports, threads and
environment reads, global state, unused imports, options no caller sets,
members no caller reads."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import epiconv

SRC = Path(epiconv.__file__).parent
REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(f"epiconv.{m.name}" for m in pkgutil.iter_modules([str(SRC)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [n for n in imported if not hasattr(epiconv, n)]
    assert not missing, f"epiconv does not resolve {missing}"


def _import_roots(node):
    """The top-level packages an import node imports; none for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_and_no_recursion_limit(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        assert "scipy" not in _import_roots(node), f"{path.name}:{node.lineno} imports scipy"
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name
        assert name != "setrecursionlimit", f"{path.name} uses sys.setrecursionlimit"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_threads_and_no_environment_reads(path):
    # checks run in order on one thread, and a run is set by its config and
    # arguments alone
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        for root in ("threading", "concurrent"):
            assert root not in _import_roots(node), f"{path.name}:{node.lineno} imports {root}"
        name = getattr(node, "attr", None) or getattr(node, "name", None)
        assert name not in ("environ", "getenv"), f"{path.name}:{node.lineno} reads os.{name}"


def _defaulted_parameters():
    """(owner, parameter name) -> (position or None, name a call uses) for
    every parameter with a default of every function, class constructor and
    public method that a module's __all__ names."""
    found = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", []):
            obj = getattr(mod, attr)
            # (name a call uses, qualified name, function, leading params to skip)
            targets = []
            if inspect.isclass(obj):
                targets.append((obj.__name__, obj.__qualname__, obj, 0))
                for meth, fn in vars(obj).items():
                    skip = 0 if isinstance(fn, staticmethod) else 1
                    fn = getattr(fn, "__func__", fn)
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets.append((meth, f"{obj.__qualname__}.{meth}", fn, skip))
            elif inspect.isfunction(obj):
                targets.append((obj.__name__, obj.__qualname__, obj, 0))
            for call_name, qualname, fn, skip in targets:
                params = list(inspect.signature(fn).parameters.values())[skip:]
                for i, prm in enumerate(params):
                    if prm.default is prm.empty:
                        continue
                    positional = prm.kind in (prm.POSITIONAL_ONLY, prm.POSITIONAL_OR_KEYWORD)
                    key = (f"{obj.__module__}.{qualname}", prm.name)
                    found[key] = (i if positional else None, call_name)
    return found


def _calls():
    """(callee name, positional argument count, keyword names) of every call
    in the package and the benchmark, import aliases resolved. A starred
    positional argument counts as passing every later position."""
    calls = []
    for top in ("src", "perfbench"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            alias = {
                a.asname: a.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for a in node.names
                if a.asname
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    callee = alias.get(node.func.id, node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    callee = node.func.attr
                else:
                    continue
                npos = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    npos = float("inf")
                calls.append((callee, npos, {kw.arg for kw in node.keywords if kw.arg}))
    return calls


def test_every_public_option_is_set_by_some_caller():
    # an option no call sets has a single value in use, so it belongs in the
    # code as a constant; the scope is the public API, the callers are the
    # package and the benchmark (a test setting an option does not make it
    # used)
    calls = _calls()
    unused = [
        f"{owner}({param}=)"
        for (owner, param), (pos, call_name) in sorted(_defaulted_parameters().items())
        if not any(
            callee == call_name and (param in kws or (pos is not None and pos < npos))
            for callee, npos, kws in calls
        )
    ]
    assert not unused, f"{len(unused)} defaulted parameters no call sets: {unused}"


def _public_members():
    """(qualified name, member name) of every public method and property of a
    class that a module's __all__ names."""
    found = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", []):
            obj = getattr(mod, attr)
            if not inspect.isclass(obj):
                continue
            for member, value in vars(obj).items():
                fn = getattr(value, "__func__", value)
                if not member.startswith("_") and (
                    isinstance(value, property) or inspect.isfunction(fn)
                ):
                    found.add((f"{obj.__module__}.{obj.__qualname__}.{member}", member))
    return sorted(found)


def _module_names(tree):
    """Names a file binds to modules: every ``import m [as x]``, and
    ``from epiconv import m`` or ``from . import m`` of a package module."""
    submodules = {m.rsplit(".", 1)[1] for m in MODULES}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "epiconv"):
            names.update(a.asname or a.name for a in node.names if a.name in submodules)
    return names


def _member_reads(tree):
    """Attribute names a file reads off anything but a module it imports, so
    ``np.empty`` does not count as reading a member named ``empty``."""
    modules = _module_names(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }


def test_every_public_member_is_read_by_some_caller():
    # a method or property only tests read is a test helper, and belongs in
    # tests/; the readers are the package and the benchmark
    read = set().union(
        *(
            _member_reads(ast.parse(path.read_text()))
            for top in ("src", "perfbench")
            for path in sorted((REPO / top).rglob("*.py"))
        )
    )
    unread = [qualname for qualname, member in _public_members() if member not in read]
    assert not unread, f"{len(unread)} public members no caller reads: {unread}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_global_caches_or_globals(path):
    # memoized values live in objects a caller owns (the CLI keeps one per
    # config), never in a module-level cache or a rebound module global
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Global), f"{path.name}:{node.lineno} uses global"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", None) or getattr(target, "id", None)
                assert name not in ("cache", "lru_cache"), (
                    f"{path.name}:{dec.lineno} decorates {node.name} with {name}"
                )


def _unused_imports(path):
    """Names a file imports and never reads; ``__future__`` imports aside."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted((REPO / "tests").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    # the package __init__ imports only to re-export, so it is not scanned
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_public_private_twins(path):
    # a public x beside a private _x is one formula with two entry points,
    # the private one typically taking a cached input as a callable; the
    # cache belongs in an object both callers share
    tree = ast.parse(path.read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    twins = sorted(n for n in defined if f"_{n}" in defined)
    assert not twins, f"{path.name} defines both x and _x for x in {twins}"
