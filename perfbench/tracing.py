"""Spans and work counts recorded around calls into mongeval's layers.

The library is not modified.  Each layer's public function is wrapped at
the module attribute its caller looks up (``mongeval.algebra.det_batch``
is looked up by ``polarized_det_batch``, ``mongeval.valuation.
fd_hessian_batch`` by ``eval_valuation``, and so on), so every call from
inside the library passes through a wrapper that records one span:
name, start, end, the span open when it started (its parent) and the
root of that chain (the request it belongs to).  Counts are added at the
same boundaries.  Everything is kept in memory; ratios that need extra
work (hull vertex counts, active cells) are derived after the pass, out
of the timed region.

Only single-threaded runs are traced: spans of one thread nest, so a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from mongeval import algebra, cli, convex, valuation, verify


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matrices(field, data):
    """Number of matrices in a (..., n, n[, comps]) field batch."""
    shape = np.shape(data)
    lead = shape[:-3] if field in ("H", "O2") else shape[:-2]
    return math.prod(lead)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        # [name, start, end, parent index or -1, root index]
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.support_temp_max = 0
        self._clip_results = []
        self._grid_evals = []  # (span index, spec, grid)
        self._patches = []

    # -- recording -----------------------------------------------------
    def wrap(self, name, fn, after=None):
        """``fn`` with a span around each call; ``after(span, args,
        kwargs, result)`` adds counts once the span has closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, spans[parent][4] if parent >= 0 else idx]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))

    def _patch_stencil(self, owner, attr):
        """Stencil span whose function evaluations are child spans, so the
        stencil's self time excludes them."""
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))

        def count_fevals(_idx, args, kwargs, _result):
            self.counts["hessian.stencil.fevals"] += np.shape(args[0])[0]

        def stencil(f, *args, **kwargs):
            return orig(self.wrap("hessian.feval", f, count_fevals), *args, **kwargs)

        setattr(owner, attr, self.wrap("hessian.stencil", stencil))

    def install(self):
        """Wrap every layer boundary; ``uninstall`` restores them."""
        c = self.counts

        def on_support(idx, args, kwargs, result):
            rows = math.prod(np.shape(args[1])[:-1])
            verts = args[0].vertices.shape[0]
            c["convex.support.points"] += rows
            c["convex.support.products"] += rows * verts
            self.support_temp_max = max(self.support_temp_max, rows * verts * 8)

        def on_clip(idx, args, kwargs, result):
            c["convex.clip.points_kept"] += result.vertices.shape[0]
            self._clip_results.append(result.vertices)

        def on_det(idx, args, kwargs, result):
            c["algebra.det.matrices"] += _matrices(args[0], args[1])

        def on_grid_hessian(idx, args, kwargs, result):
            c["hessian.grid.cells"] += math.prod(result.shape[:-2])
            c["hessian.grid.ext_points"] += np.size(args[0])

        def on_nodes(idx, args, kwargs, result):
            c["valuation.nodes.points"] += result.shape[0]

        def on_smooth(idx, args, kwargs, result):
            c["valuation.smooth.points"] += np.size(args[0])

        def on_eval(idx, args, kwargs, result):
            spec = _arg(args, kwargs, 0, "spec")
            grid = _arg(args, kwargs, 2, "grid")
            if grid is not None and spec.atom is None:
                self._grid_evals.append((idx, spec, grid))

        def on_write(idx, args, kwargs, result):
            c["serialize.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        self._patch(convex.Polytope, "support", "convex.support", on_support)
        self._patch(convex, "halfspace_clip", "convex.clip", on_clip)
        for mod in (valuation, verify):
            self._patch(mod, "polarized_det_batch", "algebra.polar")
            self._patch(mod, "assemble_structured", "hessian.assemble")
            self._patch(mod, "eval_valuation", "valuation.eval", on_eval)
        for mod in (algebra, verify):
            self._patch(mod, "det_batch", "algebra.det", on_det)
        for mod in (valuation, verify, convex):
            self._patch_stencil(mod, "fd_hessian_batch")
        self._patch_stencil(verify, "fd_laplacian_batch")
        self._patch(valuation, "grid_hessian", "hessian.grid", on_grid_hessian)
        self._patch(valuation, "gaussian_filter", "valuation.smooth", on_smooth)
        self._patch(valuation.Grid, "nodes", "valuation.nodes", on_nodes)
        self._patch(valuation, "ma_measure_pl", "valuation.exact")
        self._patch(cli, "write_json_atomic", "serialize.write", on_write)
        self._patch(cli, "run_experiment", "verify")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened from the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- derived metrics -----------------------------------------------
    def metrics(self):
        """Per-layer metrics of everything recorded; call after ``uninstall``,
        since deriving the ratios calls into the library again."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        polar_dets = 0
        for name, t0, t1, parent, _root in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name == "algebra.det" and spans[parent][0] == "algebra.polar":
                    polar_dets += 1
        for i, (name, t0, t1, _parent, _root) in enumerate(spans):
            calls[name] += 1
            busy[name] += t1 - t0
            self_time[name] += (t1 - t0) - child_time[i]

        c = self.counts
        out = {}
        for layer in ("convex.support", "convex.clip", "algebra.polar", "algebra.det",
                      "hessian.stencil", "hessian.grid", "hessian.assemble",
                      "valuation.nodes", "valuation.eval", "valuation.exact",
                      "serialize.write"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
        for layer in ("algebra.polar", "hessian.stencil", "valuation.eval"):
            out[f"{layer}.self_s"] = self_time[layer]
        out["valuation.smooth.busy_s"] = busy["valuation.smooth"]
        out["verify.self_s"] = self_time["verify"]
        out["cli.main.busy_s"] = busy["cli.main"]

        for key in ("convex.support.points", "convex.support.products",
                    "convex.clip.points_kept", "hessian.stencil.fevals",
                    "hessian.grid.cells", "algebra.det.matrices",
                    "valuation.nodes.points", "valuation.smooth.points",
                    "serialize.write.bytes"):
            out[key] = c[key]
        out["convex.support.vertices_mean"] = _ratio(c["convex.support.products"],
                                                     c["convex.support.points"])
        out["convex.support.temp_bytes"] = self.support_temp_max
        out["algebra.det.passes_per_polar"] = _ratio(polar_dets, calls["algebra.polar"])
        out["convex.clip.hull_ratio"] = _ratio(
            sum(_hull_vertex_count(v) for v in self._clip_results),
            c["convex.clip.points_kept"])
        out["valuation.ext_useful_ratio"] = _ratio(c["hessian.grid.cells"],
                                                   c["hessian.grid.ext_points"])
        cells, active = self._grid_cells()
        out["valuation.eval.cells"] = cells
        out["valuation.active_ratio"] = _ratio(active, cells)
        return out

    def _grid_cells(self):
        """(cells, active cells) over grid-route evaluations that reached
        the quadrature; a cell is active where B and every matrix-slot
        weight are nonzero."""
        cache = {}
        cells = active = 0
        has_nodes = {s[3] for s in self.spans
                     if s[0] == "valuation.nodes" and s[3] >= 0}
        for idx, spec, grid in self._grid_evals:
            if idx not in has_nodes:
                continue
            key = (id(spec), id(grid))
            if key not in cache:
                nodes = grid.nodes()
                mask = np.asarray(spec.scalar_weight(nodes)) != 0
                for w in spec.weights:
                    mask &= np.asarray(w.scalar(nodes)) != 0
                cache[key] = int(np.count_nonzero(mask))
            cells += grid.n_cells
            active += cache[key]
        return cells, active


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def _hull_vertex_count(points):
    try:
        return len(ConvexHull(points).vertices)
    except QhullError:
        return len(points)
