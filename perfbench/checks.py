"""Counting of output checks, shared by the run and its pass processes."""


class Gate:
    """Counts checks attempted and remembers the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    def near(self, label, observed, expected, tol):
        # written so that a NaN observation fails
        ok = bool(abs(observed - expected) <= tol)
        return self.check(f"{label}: observed {observed!r}, expected {expected!r} "
                          f"within {tol!r}", ok)

    def report(self, rep):
        """An experiment report of mongeval.verify must pass."""
        return self.check(f"{rep.name}: report passed", rep.passed)
