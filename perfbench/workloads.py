"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks that gate every output of that pass.

A workload object is built from its seed (that is set-up, and timed as
such); ``run(ctx)`` then makes one pass of calls into mongeval's public
API.  Every call goes through ``ctx``: ``ctx.span`` opens a span when the
pass is traced, ``ctx.rec`` times valuation calls and keeps their values,
and ``ctx.gate`` counts checks and failures.  Tolerances are those of the
experiments and of tests/test_acceptance.py, never looser.

Why these three workloads (see also BENCHMARK.json and README.md):

* grid-identity - the smoothed grid route on kinked polytope support
  functions, the heaviest route of the acceptance gate: support
  functions on the extended grid, Gaussian smoothing, grid stencils and
  batched determinants over 10^4 to 10^5 cells.  No per-node stencil.
* smooth-stencil - the per-node difference stencil on C^2 functions, with
  no polytope support and no Gaussian work: the control on which a
  support or grid-route change should show nothing.
* small-calls - point atoms, the exact PL route, 16-dimensional O2 probes
  and a CLI report: batches of 1 to a few hundred matrices, where per-call
  overhead dominates.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
from scipy.spatial import ConvexHull

from mongeval import cli, convex, valuation, verify
from mongeval.algebra import HermitianMatrix

from checks import Gate

#: union-convex pairs per field in one grid-identity pass
GRID_PAIRS = 1
#: rounds of a smooth-stencil pass, and random linear functionals per field
#: in each linear-invariance call.  A round makes trials + 1 calls on each of
#: R, C and H and twice that on O2, so the median call of a pass is the 13th
#: fastest of its 48 O2 calls, which sit between the faster R and C atom
#: calls and the slower H grid calls
STENCIL_ROUNDS = 4
STENCIL_TRIALS = 5
#: rounds of small calls in one small-calls pass, and the sizes of a round.
#: A round makes 24 atom and probe calls faster than an exact PL call and 7
#: slower ones, so with 36 PL bodies the median call of a pass is a PL call,
#: 95 calls above the fastest of them and well away from the atom calls
SMALL_ROUNDS = 10
SMALL_PL_BODIES = 36
SMALL_O2_PAIRS = 2


class Recorder:
    """Start, end and value of every valuation call a pass makes.

    Experiments reach the valuation layer through the names they import
    into ``mongeval.verify``; wrapping those names times each call the
    experiment makes.  Calls the benchmark makes itself go through
    ``timed``.  Times are ``time.perf_counter()`` readings; calls never
    overlap.  With a ``pacer``, a reference block runs before a call when
    one is due (see pace.py), outside the call's time.
    """

    NAMES = ("body_valuation", "eval_valuation", "pl_valuation")

    def __init__(self, pacer=None):
        self.calls = []
        self.values = []
        self.pacer = pacer
        self._saved = []

    def pace(self):
        if self.pacer is not None:
            self.pacer.due()

    def timed(self, fn):
        calls, values = self.calls, self.values

        def call(*args, **kwargs):
            self.pace()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((t0, time.perf_counter()))
            values.append(float(result))
            return result

        return call

    def install(self):
        for name in self.NAMES:
            orig = getattr(verify, name)
            self._saved.append((name, orig))
            setattr(verify, name, self.timed(orig))

    def uninstall(self):
        for name, orig in reversed(self._saved):
            setattr(verify, name, orig)
        self._saved.clear()

    def o2_pairs(self, run, n_pairs):
        """Run ``run()`` (an O2 identity of ``n_pairs`` pairs) and record one
        call per probe pair.

        Each pair of the O2 probe identity starts by building its three
        sliced-ball supports, so a pair spans from one such triple of
        ``ball_slab_support`` calls to the next (or to the end).
        """
        orig = convex.ball_slab_support
        calls = 0
        start = None

        def boundary(*args, **kwargs):
            nonlocal calls, start
            if calls % 3 == 0:
                if start is not None:
                    self.calls.append((start, time.perf_counter()))
                self.pace()
                start = time.perf_counter()
            calls += 1
            return orig(*args, **kwargs)

        convex.ball_slab_support = boundary
        try:
            result = run()
        finally:
            convex.ball_slab_support = orig
        if start is not None:
            self.calls.append((start, time.perf_counter()))
        return result, calls == 3 * n_pairs


class Context:
    """What a pass reports into: spans, latencies and values, checks."""

    def __init__(self, tracer=None, out_dir=None, pacer=None):
        self.tracer = tracer
        self.rec = Recorder(pacer)
        self.gate = Gate()
        self.out_dir = out_dir
        self.reports = []

    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def experiment(self, fn, **kwargs):
        """Run an experiment of mongeval.verify and gate its report."""
        rep = self.span("verify", fn, **kwargs)
        self.reports.append(json.dumps(rep.canonical(), sort_keys=True))
        self.gate.report(rep)
        return rep


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class GridIdentity:
    """valuation-identity over R, C and H by smoothed grid quadrature,
    with the mutated-functional control."""

    FIELDS = ("R", "C", "H")
    TOL = 0.02  # the experiment's residual tolerance

    def __init__(self, seed):
        self.seed = seed

    def run(self, ctx):
        g = ctx.gate
        rep = ctx.experiment(verify.valuation_identity, fields=self.FIELDS,
                             n_pairs=GRID_PAIRS, seed=self.seed, threads=1)
        for field in self.FIELDS:
            det = rep.details[field]
            g.check(f"{field}: {GRID_PAIRS} residuals", len(det["residuals"]) == GRID_PAIRS)
            for k, r in enumerate(det["residuals"]):
                g.near(f"{field}: identity residual of pair {k}", r, 0.0, self.TOL)
            g.check(f"{field}: mutated control breaks the identity",
                    det["control_residual"] > 3 * self.TOL)


class SmoothStencil:
    """Rounds of linear-invariance over all four fields, then over O2.

    The O2 calls hold the median latency.  Spread over rounds, they are
    timed at several points of the pass rather than in one burst, so one
    slow phase of the machine cannot set their median.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.round_seeds = [int(s) for s in rng.integers(0, 2**31, STENCIL_ROUNDS)]

    def run(self, ctx):
        for s in self.round_seeds:
            for fields in (("R", "C", "H", "O2"), ("O2",)):
                rep = ctx.experiment(verify.linear_invariance, fields=fields,
                                     trials=STENCIL_TRIALS, seed=s, threads=1)
                for field in fields:
                    ctx.gate.near(f"{field}: linear invariance",
                                  rep.details[field]["worst_relative"], 0.0, 1e-9)


class SmallCalls:
    """Point atoms, the exact PL route, O2 probes and a CLI report, in
    rounds of small calls."""

    DIM = 3

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.round_seeds = [int(s) for s in rng.integers(0, 2**31, SMALL_ROUNDS)]
        self.weight = valuation.BumpWeight(np.zeros(3), 0.45, 1.0, plateau=0.7)
        self.b0 = float(self.weight(np.zeros(3)))
        self.rounds = []
        for s in self.round_seeds:
            r = np.random.default_rng(s)
            bodies = [convex.random_shell_polytope(r) for _ in range(SMALL_PL_BODIES)]
            self.rounds.append({
                "seed": s,
                "pl": [(convex.PLConvexFunction.from_polytope_support(K),
                        float(ConvexHull(K.vertices).volume)) for K in bodies],
                "probe_body": convex.random_shell_polytope(r),
            })
        # the acceptance-07 functionals: one atom at v0 = e_1, unit-diagonal
        # bumps in the remaining slots, B = 1 near v0
        self.two_ball = convex.make_two_ball_body(self.DIM)
        v0 = np.eye(self.DIM)[0]
        self.homog_specs = {}
        for degree in (1, 2):
            weights = [valuation.MatrixAtom(_unit_diag(self.DIM, 0), v0)]
            weights += [valuation.MatrixBump(_unit_diag(self.DIM, l), v0, 0.5, plateau=0.5)
                        for l in range(1, self.DIM - degree)]
            self.homog_specs[degree] = valuation.ValuationSpec(
                "R", self.DIM, degree, valuation.BumpWeight(v0, 0.5, plateau=0.5),
                tuple(weights))

    def run(self, ctx):
        for rnd in self.rounds:
            self._round(ctx, rnd)

    def _round(self, ctx, rnd):
        g, rec, s = ctx.gate, ctx.rec, rnd["seed"]
        n = self.DIM

        # parity break: phi(K) = 1/binom(n,i), phi(-K) = 2^i/binom(n,i)
        for degree in (1, 2):
            rep = ctx.experiment(verify.parity_break, dim=n, degree=degree, seed=s, threads=1)
            if degree == 1:
                first = rep
            plus = 1.0 / math.comb(n, degree)
            minus = 2.0**degree / math.comb(n, degree)
            d = rep.details
            g.near(f"parity d{degree}: phi(K)", d["phi_plus"], plus, 0.01 * plus)
            g.near(f"parity d{degree}: phi(-K)", d["phi_minus"], minus, 0.01 * minus)
            g.near(f"parity d{degree}: finest bump", d["bump_values"][-1], plus, 0.03 * plus)

        # acceptance-07 probe: Vandermonde components sit at the degree
        phi = rec.timed(valuation.body_valuation)
        for degree, spec in self.homog_specs.items():
            comps = valuation.homogeneous_components(lambda K, spec=spec: phi(spec, K),
                                                     self.two_ball, n)
            lead = comps[degree]
            g.near(f"homogeneous d{degree}: leading component", lead,
                   1.0 / math.comb(n, degree), 0.01 / math.comb(n, degree))
            g.check(f"homogeneous d{degree}: other components <= 1e-3 lead",
                    np.abs(np.delete(comps, degree)).max() <= 1e-3 * abs(lead))
        K = rnd["probe_body"]
        comps = valuation.homogeneous_components(_pl_volume, K, n)
        vol = float(ConvexHull(K.vertices).volume)
        g.check("homogeneous volume: components below n <= 1e-3 lead",
                np.abs(comps[:n]).max() <= 1e-3 * abs(comps[n]))
        g.near("homogeneous volume: lead = vol(K)", comps[n], vol, 1e-9 * max(1.0, vol))

        # exact PL route: Phi(h_K) = B(0) vol(K)
        pl = rec.timed(valuation.pl_valuation)
        for k, (f, vol) in enumerate(rnd["pl"]):
            g.near(f"exact PL body {k}: B(0) vol(K)", pl(self.weight, f),
                   self.b0 * vol, 1e-9 * max(1.0, abs(self.b0) * vol))

        # O2 probe identity, one latency per probe pair
        rep, in_step = rec.o2_pairs(
            lambda: ctx.experiment(verify.valuation_identity, fields=("O2",),
                                   n_pairs=SMALL_O2_PAIRS, seed=s, threads=1),
            SMALL_O2_PAIRS)
        g.check("O2 pair boundaries seen", in_step)
        for k, r in enumerate(rep.details["O2"]["residuals"]):
            g.near(f"O2 probe residual {k}", r, 0.0, 1e-6)

        # mongeval run parity-break: exit 0 and the report of the same run
        argv = ["run", "parity-break", "--dim", str(n), "--degree", "1", "--seed", str(s),
                "--quiet", "--out", ctx.out_dir]
        code = ctx.span("cli.main", cli.main, argv)
        g.check("mongeval run parity-break exits 0", code == 0)
        with open(os.path.join(ctx.out_dir, "parity-break.json"), "rb") as fh:
            raw = fh.read()
        ctx.reports.append(raw.decode())
        g.check("CLI report equals the in-process report",
                json.loads(raw) == json.loads(json.dumps(first.canonical())))


def _unit_diag(n, p):
    m = np.zeros((n, n))
    m[p, p] = 1.0
    return HermitianMatrix("R", m)


def _pl_volume(body):
    f = convex.PLConvexFunction.from_polytope_support(body)
    return valuation.ma_measure_pl(f).total_mass


WORKLOADS = {
    "grid-identity": GridIdentity,
    "smooth-stencil": SmoothStencil,
    "small-calls": SmallCalls,
}
