"""Exports stay in step with the modules: deleting a name must also delete
it from ``__all__`` and from the package namespace."""

import ast
import collections
import glob
import importlib
import inspect
import os
import pkgutil
import textwrap

import pytest

import mongeval

MODULES = [info.name for info in pkgutil.iter_modules(mongeval.__path__)]
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _readme_example():
    """The code block of the README's library example."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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


def _mongeval_reads(tree):
    """(module, name) of every mongeval name that ``tree`` imports or reads
    as an attribute of a mongeval module; module "" is the package."""
    bound, reads = {}, set()  # bound: local name -> the mongeval module it is
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "mongeval":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if not module and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                else:
                    reads.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mongeval":
                    # "import mongeval.x as y" binds x; "import mongeval[.x]" the package
                    bound[alias.asname or "mongeval"] = (alias.name.partition(".")[2]
                                                         if alias.asname else "")
    for node in ast.walk(tree):  # after every import, wherever it sits
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.add((bound[node.value.id], node.attr))
    return reads


def _yielded_names(node):
    """Names in what a definition raises, in its annotations and in the
    calls it returns."""
    exprs = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            exprs.append(sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc)
        elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Call):
            exprs.append(sub.value.func)
        elif isinstance(sub, ast.arg) and sub.annotation is not None:
            exprs.append(sub.annotation)
        elif isinstance(sub, ast.FunctionDef) and sub.returns is not None:
            exprs.append(sub.returns)
    names = set()
    for expr in exprs:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            expr = ast.parse(expr.value, mode="eval")  # a quoted annotation
        names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _with_their_types(kept, candidates, trees):
    """``kept`` with every class among ``candidates`` that a kept function
    or class raises, takes or returns, to a fixed point."""
    defs = {(m, node.name): node for m, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    classes = {pair for pair in candidates if isinstance(defs.get(pair), ast.ClassDef)}
    kept = set(kept)
    while True:
        yielded = set().union(*(_yielded_names(defs[pair]) for pair in kept if pair in defs))
        new = {pair for pair in classes - kept if pair[1] in yielded}
        if not new:
            return kept
        kept |= new


def test_every_public_name_has_a_consumer():
    # no public API that no experiment, CLI path or paper claim needs.  A
    # name in a module's __all__ is read outside its module (in src/, in
    # perfbench/ or in the README example), is held by the registry, or is
    # a class that such a name raises, takes or returns.  A name in the
    # package namespace is read by verify, cli, perfbench/ or the README
    # example, or is such a class of a namespace name.  Methods are not
    # checked here: an attribute match cannot tell HermitianMatrix.det
    # from np.linalg.det
    from mongeval.verify import EXPERIMENTS

    src = os.path.dirname(mongeval.__file__)
    trees = {m: _parse(os.path.join(src, f"{m}.py")) for m in MODULES}
    readers = dict(trees)
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        readers[f"perfbench/{os.path.basename(path)}"] = _parse(path)
    readers["README"] = ast.parse(_readme_example())
    exports = {alias.name: node.module for node in _parse(mongeval.__file__).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    read_by = collections.defaultdict(set)
    for label, tree in readers.items():
        for module, name in _mongeval_reads(tree):
            read_by[module or exports.get(name), name].add(label)

    listed = {(m, n) for m in MODULES
              for n in getattr(importlib.import_module(f"mongeval.{m}"), "__all__", ())}
    registry = {(fn.__module__.rpartition(".")[2], fn.__name__)
                for entry in EXPERIMENTS.values() for fn in entry[:2]}
    kept = {pair for pair in listed if read_by[pair] - {pair[0]} or pair in registry}
    unread = listed - _with_their_types(kept, listed, trees)
    assert not unread, f"names in __all__ with no consumer: {sorted(unread)}"

    namespace = {(m, n) for n, m in exports.items()}
    consumers = {"verify", "cli", "README"} | {k for k in readers if k.startswith("perfbench/")}
    kept = {pair for pair in namespace if read_by[pair] & consumers}
    unread = namespace - _with_their_types(kept, namespace, trees)
    assert not unread, f"package names with no consumer: {sorted(unread)}"


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


def test_tracer_patch_points_are_on_the_stencil_route(monkeypatch):
    # the stencil-route twin of the grid-route guard: one stencil-route
    # evaluation calls ``valuation.fd_hessian_batch`` once per 8,192-node
    # block, with f first and the step and the polynomial form's entries
    # after it, which the tracer's stencil wrapper passes through unchanged
    # to count ``hessian.stencil.*``.  Two unit bumps at degree 1 leave the
    # form the one entry f_33, flat index 8.
    import numpy as np

    from mongeval import algebra, valuation

    calls = []
    orig = valuation.fd_hessian_batch

    def counted(f, *args, **kwargs):
        calls.append((args, kwargs))
        return orig(f, *args, **kwargs)

    monkeypatch.setattr(valuation, "fd_hessian_batch", counted)
    unit = [algebra.HermitianMatrix("R", np.diag(e)) for e in np.eye(3)]
    bumps = tuple(valuation.MatrixBump(m, np.zeros(3), 0.45) for m in unit[:2])
    spec = valuation.ValuationSpec("R", 3, 1, valuation.BumpWeight(np.zeros(3), 0.45), bumps)
    grid = valuation.Grid.cube(np.zeros(3), 0.5, 32, 3)
    f = lambda x: np.sum(np.asarray(x) ** 2, axis=-1) + np.asarray(x)[:, 2] ** 4
    value = valuation.eval_valuation(spec, f, grid)
    active = len(valuation._quadrature(spec, grid, 0.0, None)[0])
    assert active > 8192 and value != 0.0
    assert [len(args[0]) for args, _ in calls] == [8192, active - 8192]
    assert all(args[1] is None and args[2].tolist() == [8] and not kwargs for args, kwargs in calls)


def _verify_imports(module):
    """Names that ``mongeval.<module>`` imports from ``verify``; the module
    itself, imported whole, counts as ``"verify"``."""
    with open(os.path.join(os.path.dirname(mongeval.__file__), f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("verify", "mongeval.verify"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update("verify" for alias in node.names if alias.name.endswith("verify"))
    return names


def test_cli_imports_no_experiment_rule():
    # each experiment's argument rules are its registry check in verify; a
    # rule imported into the CLI would hold for a CLI run and not for a
    # library call.  NAMED_BODIES names the bodies in ``--help``.
    assert _verify_imports("cli") == {"EXPERIMENTS", "NAMED_BODIES", "run_experiment"}


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
# the reason each one stays.  parity_break's seed and the experiments'
# threads are not among them: each is read by its experiment's check,
# though nothing computed reads it, and threads stays while the
# benchmark's workloads pass it
_REPORT_ONLY = {}


def _library_functions(module):
    """(name, function) of every function defined in ``module``, private
    ones too, and of every method its classes define, ``__init__``
    included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class and static methods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", ["valuation", "hessian", "algebra", "convex"])
def test_no_library_callable_below_the_experiments_takes_threads(name):
    # every layer below the experiments runs in one thread of its caller:
    # ``chunked_apply`` runs its blocks in order and each route is
    # ``integral(f)``, so a ``threads`` parameter there would be a knob
    # that changes nothing
    module = importlib.import_module(f"mongeval.{name}")
    taking = [qual for qual, obj in _library_functions(module)
              if "threads" in inspect.signature(obj).parameters]
    assert not taking, f"mongeval.{name} callables take threads: {taking}"


def test_every_experiment_parameter_is_read():
    # an option that is only copied into the report changes nothing the
    # experiment computes; the CLI would still offer it as a flag
    from mongeval.verify import EXPERIMENTS

    unread = set()
    for fn, _check, _desc in EXPERIMENTS.values():
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


def test_every_experiment_calls_its_check_first():
    # a rule that only the CLI applied let a library call run, or pass with
    # no checks (valuation_identity(fields=())), on inputs the CLI rejects
    from mongeval.verify import EXPERIMENTS

    for name, (fn, check, _desc) in EXPERIMENTS.items():
        assert callable(check), f"{name} has no registry check"
        func = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        first = func.body[0 if ast.get_docstring(func) is None else 1]
        call = getattr(first, "value", None)
        assert isinstance(call, ast.Call) and ast.unparse(call.func) == check.__name__, \
            f"{fn.__name__} does not call {check.__name__} as its first statement"


def test_registry_checks_take_no_defaults():
    # each default lives on its experiment, which passes every argument to
    # its check; a default on the check could drift from the experiment's
    from mongeval.verify import EXPERIMENTS

    for name, (_fn, check, _desc) in EXPERIMENTS.items():
        defaults = [p.name for p in inspect.signature(check).parameters.values()
                    if p.default is not p.empty]
        assert not defaults, f"{name}'s check {check.__name__} has defaults for {defaults}"


def test_readme_library_example_prints_its_values():
    # the README's example says it prints 1/3 and 4/3 (0.3333332 and
    # 1.3333327); run its code block as written, from the package exports
    printed = []
    exec(compile(_readme_example(), "README.md", "exec"), {"print": printed.append})
    assert len(printed) == 2
    for value, expected in zip(printed, (1 / 3, 4 / 3)):
        assert abs(value - expected) <= 0.01 * expected
