"""API hygiene: every public module, class and function carries a docstring,
the declared public surfaces import cleanly, and the package layering
(sim -> hdfs/cluster -> yarn -> engines -> experiments/multijob) holds."""

import ast
import importlib
import inspect
import math
import pkgutil
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.engines.registry import ENGINES

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its definition site
        if not inspect.getdoc(obj):
            undocumented.append(name)
        elif inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_") or not inspect.isfunction(meth):
                    continue
                if not inspect.getdoc(meth):
                    undocumented.append(f"{name}.{meth_name}")
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_import_repro_emits_no_deprecation_warning():
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro" or name.startswith("repro.")
    }
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            importlib.import_module("repro")
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ], "plain `import repro` must not touch deprecated paths"
    finally:
        sys.modules.update(saved)


def test_subpackage_alls_resolve():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"


# ---------------------------------------------------------------------------
# layering lint: the import graph between top-level repro packages is pinned.
#
# Only *load-bearing* imports count: module-level statements outside
# ``if TYPE_CHECKING:`` blocks.  Annotation-only imports and imports inside
# functions are free (they cannot create import-time cycles or hidden
# runtime coupling).
# ---------------------------------------------------------------------------
SRC_ROOT = Path(repro.__file__).parent

#: Every allowed package-level import edge.  An edge absent here is a
#: layering violation: fix the import, or — if the dependency is genuinely
#: part of the architecture — add it here *and* update DESIGN.md.
ALLOWED_EDGES = {
    "repro": {
        "cluster", "core", "engines", "experiments", "mapreduce", "metrics",
        "workloads",
    },
    "__main__": {"cli"},
    "check": {"cluster", "engines", "hdfs", "mapreduce", "obs", "sim", "yarn"},
    "cli": {"engines", "experiments", "workloads"},
    "cluster": {"sim"},
    "core": {"hdfs", "mapreduce"},
    "engines": {
        "cluster", "core", "hdfs", "mapreduce", "metrics", "obs", "sim",
        "workloads", "yarn",
    },
    "experiments": {
        "cluster", "core", "engines", "hdfs", "mapreduce", "metrics", "sim",
        "workloads", "yarn",
    },
    "localrt": {"core"},
    "mapreduce": {"cluster", "hdfs", "sim"},
    "metrics": {"sim"},
    "multijob": {
        "core", "engines", "hdfs", "mapreduce", "metrics", "obs", "sim",
        "workloads", "yarn",
    },
    "obs": {"metrics", "viz"},
    "viz": {"sim"},
    "workloads": {"mapreduce"},
    "yarn": {"cluster", "sim"},
}


def _runtime_imports(tree: ast.Module) -> set[str]:
    """repro.* modules imported at module scope, outside TYPE_CHECKING."""
    found: set[str] = set()

    def visit(nodes, type_checking: bool) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If):
                guarded = type_checking or "TYPE_CHECKING" in ast.unparse(node.test)
                visit(node.body, guarded)
                visit(node.orelse, type_checking)
                continue
            if isinstance(node, (ast.Try, ast.ClassDef, ast.With)):
                visit(node.body, type_checking)
                continue
            if type_checking:
                continue
            if isinstance(node, ast.Import):
                found.update(
                    a.name for a in node.names if a.name.startswith("repro")
                )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("repro"):
                    found.add(node.module)

    visit(tree.body, False)
    return found


def _package_edges() -> dict[str, set[str]]:
    """Import edges between top-level repro packages, from the source AST."""
    edges: dict[str, set[str]] = {}
    for py in sorted(SRC_ROOT.rglob("*.py")):
        rel = py.relative_to(SRC_ROOT).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts.pop()
        source_pkg = parts[0] if parts else "repro"
        imports = _runtime_imports(ast.parse(py.read_text(), filename=str(py)))
        for target in imports:
            pieces = target.split(".")
            target_pkg = pieces[1] if len(pieces) > 1 else "repro"
            if target_pkg != source_pkg:
                edges.setdefault(source_pkg, set()).add(target_pkg)
    return edges


def test_layering_edges_are_pinned():
    for source, targets in sorted(_package_edges().items()):
        extra = targets - ALLOWED_EDGES.get(source, set())
        assert not extra, (
            f"new import edge from repro.{source} into {sorted(extra)} — "
            "layering violation (see DESIGN.md) or an intentional change "
            "that must update ALLOWED_EDGES"
        )


def test_foundation_layers_import_nothing_above():
    edges = _package_edges()
    assert edges.get("sim", set()) == set(), "repro.sim must stay dependency-free"
    assert edges.get("hdfs", set()) == set(), "repro.hdfs must stay dependency-free"


def test_engines_and_multijob_never_import_experiments():
    edges = _package_edges()
    assert "experiments" not in edges.get("engines", set())
    assert "experiments" not in edges.get("multijob", set())
    assert "experiments" not in edges.get("check", set())


# ---------------------------------------------------------------------------
# unused imports: a module-level import nothing in the module reads is dead
# code.  Package ``__init__`` re-exports and ``TYPE_CHECKING`` imports are
# exempt; names a module lists in ``__all__`` count as used.
# ---------------------------------------------------------------------------
def _module_level_imports(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each module-level import outside TYPE_CHECKING."""
    bound: dict[str, int] = {}

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(node, ast.If):
                if "TYPE_CHECKING" not in ast.unparse(node.test):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno

    visit(tree.body)
    return bound


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations and ``__all__`` included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            annotation = None
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _names_read(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return names


def test_no_unused_module_level_imports():
    unused = []
    for py in sorted(SRC_ROOT.rglob("*.py")):
        if py.name == "__init__.py":
            continue
        tree = ast.parse(py.read_text(), filename=str(py))
        read = _names_read(tree)
        for name, line in sorted(_module_level_imports(tree).items()):
            if name not in read:
                unused.append(f"{py.relative_to(SRC_ROOT)}:{line} {name}")
    assert not unused, f"unused module-level imports: {unused}"


# ---------------------------------------------------------------------------
# unreferenced definitions: a ``def`` or ``class`` in ``src/repro`` that
# nothing outside the tests reads is code only the tests keep alive.  A name
# counts as read when it appears in ``src/repro``, ``benchmarks/``,
# ``examples/`` or ``perfbench/`` as a name, an attribute, an import or an
# identifier string (getattr, registries); a package ``__all__`` exports it.
# Names are not resolved to their owners, so a method counts as read
# whenever any method with the same name is read.
# ---------------------------------------------------------------------------
REPO_ROOT = SRC_ROOT.parent.parent
USE_DIRS = ("benchmarks", "examples", "perfbench")

#: Definitions kept although only the tests read them.  Reason: these are
#: ClusterService's progress counters, and the composed failure tests assert
#: their balance.
TEST_ONLY_ALLOWED = frozenset({
    "jobs_expected", "jobs_submitted", "jobs_running", "jobs_completed",
    "jobs_pending",
})


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Every function and class definition, dunders excluded."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _is_all_assignment(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names the module reads, names its ``__all__`` lists)."""
    used: set[str] = set()
    exported: set[str] = set()

    def visit(node: ast.AST) -> None:
        if _is_all_assignment(node):
            exported.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
            return
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            used.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return used, exported


def _non_test_trees() -> dict[Path, ast.Module]:
    """The parsed modules of ``src/repro`` and of ``USE_DIRS``."""
    return {
        py: ast.parse(py.read_text(), filename=str(py))
        for root in [SRC_ROOT, *(REPO_ROOT / d for d in USE_DIRS)]
        for py in sorted(root.rglob("*.py"))
    }


def _unreferenced_definitions() -> list[tuple[str, str]]:
    """(location, name) of every definition nothing outside tests/ reads."""
    trees = _non_test_trees()
    used: set[str] = set()
    exported: set[str] = set()
    for tree in trees.values():
        module_used, module_exported = _references(tree)
        used |= module_used
        exported |= module_exported
    return [
        (f"{py.relative_to(SRC_ROOT)}:{node.lineno}", node.name)
        for py, tree in trees.items()
        if py.is_relative_to(SRC_ROOT)
        for node in _definitions(tree)
        if node.name not in used and node.name not in exported
    ]


def test_no_definitions_only_tests_reach():
    unreferenced = _unreferenced_definitions()
    flagged = [
        f"{where} {name}" for where, name in unreferenced
        if name not in TEST_ONLY_ALLOWED
    ]
    assert not flagged, (
        "definitions nothing outside tests/ reads (delete them, or move "
        f"them into the tests): {flagged}"
    )
    # An allowlisted name that gains a reader outside tests/ leaves the list.
    assert TEST_ONLY_ALLOWED <= {name for _, name in unreferenced}


# ---------------------------------------------------------------------------
# settable values only tests set: every defaulted parameter of a function or
# method in ``src/repro`` must be passed to a callable of its own name (a
# class's ``__init__`` by the class name) by code in ``src/repro`` or
# ``USE_DIRS``: as a keyword, positionally, or through a ``*args`` or
# ``**kwargs`` spread, which counts as passing every position or keyword.
# ``super().__init__(...)`` passes to the enclosing class's bases.  An
# engine's constructor also takes the keywords ``register_engine`` and
# ``EngineSpec.build`` spread into it, so ``register_engine`` keywords and
# the string keys of dict literals (engine extras, ablation kwargs) count
# as passed to every registered engine class.  A value nothing outside the
# tests sets is a constant; tests monkeypatch it.
# ---------------------------------------------------------------------------
#: Parameters kept although only the tests pass them, each with its reason.
PARAMS_ONLY_TESTS_SET = frozenset({
    # The console entry point reads ``sys.argv`` when ``argv`` is None.
    "main(argv)",
    # The closed-loop golden trace runs its jobs at ``input_mb=384.0``.
    "ClosedLoopArrivals(input_mb)",
})

#: A keyword set holding this passes every keyword (a ``**kwargs`` spread).
ANY_KEYWORD = "**"


def _callee_names(call: ast.Call, owner: ast.ClassDef | None) -> list[str]:
    """The names a call passes its arguments to: the called name, or the
    enclosing class's bases for ``super().__init__``."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    receiver = func.value
    if (
        func.attr == "__init__" and owner is not None
        and isinstance(receiver, ast.Call) and ast.unparse(receiver.func) == "super"
    ):
        return [ast.unparse(base).rsplit(".", 1)[-1] for base in owner.bases]
    return [func.attr]


def _calls(tree: ast.Module):
    """(call, enclosing class or None) of every call in the module."""

    def visit(node: ast.AST, owner: ast.ClassDef | None):
        if isinstance(node, ast.ClassDef):
            owner = node
        elif isinstance(node, ast.Call):
            yield node, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def _engine_extras(trees) -> set[str]:
    """``register_engine`` keywords and the string keys of dict literals."""
    extras: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "register_engine":
                extras.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Dict):
                extras.update(
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
    return extras


def _passed(trees) -> tuple[dict[str, set[str]], dict[str, float]]:
    """(callable name -> the keywords calls pass it, callable name -> the
    most positional arguments one call passes it)."""
    keywords: dict[str, set[str]] = {}
    positional: dict[str, float] = {}
    for tree in trees:
        for call, owner in _calls(tree):
            names = {k.arg if k.arg else ANY_KEYWORD for k in call.keywords}
            count = (
                math.inf if any(isinstance(a, ast.Starred) for a in call.args)
                else len(call.args)
            )
            for callee in _callee_names(call, owner):
                keywords.setdefault(callee, set()).update(names)
                positional[callee] = max(positional.get(callee, 0), count)
    extras = _engine_extras(trees)
    for spec in ENGINES.values():
        keywords.setdefault(spec.factory.__name__, set()).update(extras)
    return keywords, positional


def _defaulted_parameters(tree: ast.Module):
    """(callable name, parameter, index among the positional arguments a
    caller passes, or None for keyword-only) of every defaulted parameter."""
    methods = {
        id(item): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "staticmethod" not in {ast.unparse(d) for d in item.decorator_list}
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = methods.get(id(fn))
        name = owner if owner is not None and fn.name == "__init__" else fn.name
        positional = [*fn.args.posonlyargs, *fn.args.args][owner is not None:]
        first_defaulted = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first_defaulted:], first_defaulted):
            yield name, arg.arg, index
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _parameters_only_tests_set() -> list[str]:
    """``name(parameter)`` of every defaulted parameter nothing outside
    tests/ passes."""
    trees = _non_test_trees()
    keywords, positional = _passed(trees.values())
    return [
        f"{name}({param})"
        for py, tree in trees.items()
        if py.is_relative_to(SRC_ROOT)
        for name, param, index in _defaulted_parameters(tree)
        if not keywords.get(name, set()) & {param, ANY_KEYWORD}
        and (index is None or positional.get(name, 0) <= index)
    ]


def test_no_parameters_only_tests_set():
    unset = _parameters_only_tests_set()
    flagged = [p for p in unset if p not in PARAMS_ONLY_TESTS_SET]
    assert not flagged, (
        "defaulted parameters nothing outside tests/ passes (make each a "
        f"module constant; tests monkeypatch it): {flagged}"
    )
    # An allowlisted parameter that gains a caller outside tests/ leaves the
    # list.
    assert PARAMS_ONLY_TESTS_SET <= set(unset)
