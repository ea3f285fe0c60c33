"""The machine's current speed, read from a fixed reference block.

The benchmark's machine shares its cores with other work, and its speed
changes by a third and more, in phases from a tenth of a second to
minutes.  A pass therefore runs a short reference block between
valuation calls, at most every ``INTERVAL_S``: interpreter work, numpy
calls on small arrays, a batch of small LAPACK determinants, a cached
matrix product and a sweep over memory, the kinds of work mongeval's
calls are made of.  Each stretch of the pass is divided by the speed the
blocks on either side of it read.  A timed figure is then in seconds at
the speed at which one block takes ``NOMINAL_S``.  The block calls numpy
only, never mongeval, so a change to the program cannot move it; its own
time is left out of every figure.
"""

import time

import numpy as np

#: seconds one block takes at the nominal speed
NOMINAL_S = 0.02
#: a pass runs a block before a valuation call when the last one ended
#: longer ago than this
INTERVAL_S = 0.1

_rng = np.random.default_rng(20170324)
_DETS = _rng.standard_normal((15000, 3, 3))
_LEFT = _rng.standard_normal((400, 500))
_RIGHT = _rng.standard_normal((500, 400))
_SWEEP = _rng.standard_normal(1 << 20)
_POINT = _rng.standard_normal((1, 16))
_STEP = np.full(1, 1e-4)
_EYE = np.eye(16)
_SQUARE = _rng.standard_normal((3, 3))


def _interpreter(n=50000):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _small_arrays(n=6):
    """Many numpy calls on one-row arrays and single small matrices, as a
    difference stencil and the exact PL route make them."""
    for _ in range(n):
        rows = [_POINT]
        for a in range(16):
            for b in range(a + 1, 16):
                rows.append(_POINT + _STEP[:, None] * (_EYE[a] - _EYE[b]))
        np.einsum("...i,...i->...", _POINT, _POINT)
        for _ in range(16):
            np.linalg.det(_SQUARE)
        np.linalg.svd(_SQUARE)
        np.unique(_SQUARE.round(1))


def block():
    """Run the reference block once; return its seconds."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    np.linalg.det(_DETS)
    _LEFT @ _RIGHT
    np.multiply(_SWEEP, 1.0, out=_SWEEP)
    return time.perf_counter() - t0


def slowdown(n=3):
    """Slowdown against the nominal speed: the median over ``n`` blocks,
    after one block that warms the caches and pages up."""
    block()
    times = sorted(block() for _ in range(n))
    return times[n // 2] / NOMINAL_S


class Pacer:
    """Reference blocks run during one pass: ``(start, end)`` of each, in
    ``time.perf_counter()`` seconds."""

    def __init__(self):
        self.blocks = []

    def now(self):
        """Run a block."""
        t0 = time.perf_counter()
        block()
        self.blocks.append((t0, time.perf_counter()))

    def due(self):
        """Run a block if the last one ended ``INTERVAL_S`` ago or more."""
        if not self.blocks or time.perf_counter() - self.blocks[-1][1] >= INTERVAL_S:
            self.now()

    def _factor(self, i):
        """Slowdown read by block ``i``, against the nominal speed."""
        a, b = self.blocks[i]
        return (b - a) / NOMINAL_S

    def paced(self, start, end):
        """Seconds at the nominal speed of the stretch ``[start, end]``,
        with no block inside it: divided by the mean slowdown of the last
        block before it and the first block after it."""
        before = [i for i, (_, b) in enumerate(self.blocks) if b <= start]
        after = [i for i, (a, _) in enumerate(self.blocks) if a >= end]
        around = before[-1:] + after[:1]
        factor = sum(self._factor(i) for i in around) / len(around)
        return (end - start) / factor

    def paced_span(self, start, end):
        """Seconds at the nominal speed of ``[start, end]`` with the blocks
        inside it left out: each stretch between blocks is paced on its own."""
        total = 0.0
        edge = start
        for a, b in self.blocks:
            if start <= a and b <= end:
                if a > edge:
                    total += self.paced(edge, a)
                edge = b
        if end > edge:
            total += self.paced(edge, end)
        return total

    def raw_span(self, start, end):
        """Seconds of ``[start, end]`` with the blocks inside it left out."""
        inside = sum(b - a for a, b in self.blocks if start <= a and b <= end)
        return end - start - inside
