"""Exports stay in step with the modules: deleting a name must also delete
it from ``__all__`` and from the package namespace."""

import ast
import importlib
import inspect
import os
import pkgutil
import textwrap

import pytest

import mongeval

MODULES = [info.name for info in pkgutil.iter_modules(mongeval.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mongeval.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mongeval.{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_public_names():
    with open(mongeval.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own modules"
        module = importlib.import_module(f"mongeval.{node.module}")
        public = set(getattr(module, "__all__", ()))
        unlisted = [alias.name for alias in node.names if alias.name not in public]
        assert not unlisted, f"mongeval imports {unlisted}, not in mongeval.{node.module}.__all__"


def _tracer_patch_points():
    """(owner, attr) of every ``_patch``/``_patch_stencil`` call in the
    benchmark's tracer, with loop variables expanded over their tuples."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    points = []

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops = {**loops, node.target.id: [ast.unparse(e) for e in node.iter.elts]}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_patch", "_patch_stencil")):
            owner, attr = ast.unparse(node.args[0]), node.args[1].value
            points.extend((o, attr) for o in loops.get(owner, [owner]))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return points


def test_benchmark_patch_points_resolve():
    # the tracer wraps these attributes; a refactor that drops one would
    # break ``perfbench/run.py --trace 1``
    points = _tracer_patch_points()
    assert ("valuation", "gaussian_filter") in points
    assert ("valuation.Grid", "nodes") in points
    for owner, attr in points:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"mongeval.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert hasattr(obj, attr), f"tracer patch point {owner}.{attr} is gone"


def test_tracer_patch_points_are_on_the_grid_route(monkeypatch):
    # resolving is not enough: a route that stops calling a patched name
    # through the module would leave it untraced.  One grid-route
    # evaluation calls ``valuation.grid_hessian`` once and reaches
    # ``valuation.gaussian_filter`` for its kernel.
    import numpy as np

    from mongeval import convex, valuation

    calls = {"grid_hessian": 0, "gaussian_filter": 0}
    for name in calls:
        orig = getattr(valuation, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(valuation, name, counted)
    K = convex.random_shell_polytope(np.random.default_rng(0), dim=3)
    spec = valuation.ValuationSpec("R", 3, 3, valuation.BumpWeight(np.zeros(3), 0.45))
    grid = valuation.Grid.cube(np.zeros(3), 0.5, 12, 3)
    valuation.body_valuation(spec, K, grid, sigma_cells=1.5)
    assert calls["grid_hessian"] == 1
    assert calls["gaussian_filter"] >= 1


def _workload_calls():
    """(name, target, positional count, keywords) of every call into
    ``mongeval.verify``, ``valuation`` or ``convex`` in the benchmark's
    workloads: direct calls, and ``ctx.experiment(verify.fn, **kw)``,
    which calls ``fn(**kw)``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())

    def resolve(node):
        name = ast.unparse(node)
        module, _, attrs = name.partition(".")
        if module not in ("verify", "valuation", "convex") or not attrs:
            return None
        obj = importlib.import_module(f"mongeval.{module}")
        for attr in attrs.split("."):
            assert hasattr(obj, attr), f"perfbench/workloads.py uses {name}, which is gone"
            obj = getattr(obj, attr)
        return name, obj

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target, args = resolve(node.func), node.args
        if target is None and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "experiment":
            target, args = resolve(node.args[0]), []
        if target is not None:
            keywords = [k.arg for k in node.keywords]
            assert None not in keywords, f"a ** argument to {target[0]} cannot be checked"
            calls.append((*target, len(args), keywords))
    return calls


def test_benchmark_workload_calls_bind_to_signatures():
    # the benchmark calls the library by keyword; a signature change that
    # drops one of those keywords would break ``perfbench/run.py``
    calls = _workload_calls()
    names = {name for name, *_ in calls}
    assert {"verify.valuation_identity", "verify.linear_invariance", "verify.parity_break",
            "valuation.MatrixBump", "valuation.ValuationSpec",
            "convex.PLConvexFunction.from_polytope_support"} <= names
    for name, fn, n_args, keywords in calls:
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"perfbench/workloads.py calls {name} with "
                                 f"{n_args} positional and {keywords}: {exc}") from None


# experiment parameters that only reach the report's ``parameters``, with
# the reason each one stays
_REPORT_ONLY = {
    ("parity_break", "seed"): "perfbench/workloads.py passes it",
}


def test_every_experiment_parameter_is_read():
    # an option that is only copied into the report changes nothing the
    # experiment computes; the CLI would still offer it as a flag
    from mongeval.verify import EXPERIMENTS

    unread = set()
    for fn, _desc in EXPERIMENTS.values():
        func = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        reported = set()
        for call in ast.walk(func):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "ExperimentReport":
                params = call.args[1] if len(call.args) > 1 else next(
                    k.value for k in call.keywords if k.arg == "parameters")
                reported.update(id(node) for node in ast.walk(params))
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and id(node) not in reported}
        unread.update((fn.__name__, a.arg) for a in func.args.args + func.args.kwonlyargs
                      if a.arg not in read)
    assert unread == set(_REPORT_ONLY), \
        f"parameters read only into the report: {sorted(unread)}, allowed: {sorted(_REPORT_ONLY)}"
