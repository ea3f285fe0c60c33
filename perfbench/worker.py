"""One benchmark process: set up a workload, make one pass, report it.

Started by run.py, never by hand.  The process imports mongeval from the
checkout's ``src`` directory, builds the workload's inputs from the seed
(that is its set-up, timed from the moment run.py started the process),
makes one pass untraced or traced, and prints one JSON object as its last
line.  ``--mode setup`` stops after set-up.  Untraced passes and set-up
are also reported paced: at the nominal speed of pace.py's reference
block, whose own time is left out.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _loaded_blas_libraries():
    """Paths of the OpenBLAS libraries loaded into this process: numpy's
    and scipy's wheels each bundle their own."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    except OSError:
        import glob

        import numpy as np
        import scipy

        paths = set()
        for pkg in (np, scipy):
            libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                                f"{pkg.__name__}.libs")
            paths.update(glob.glob(os.path.join(libs, "*")))
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _blas_fingerprint():
    """BLAS build of numpy, and the thread count each loaded OpenBLAS
    library reports (``None`` where it exports no thread query)."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for path in _loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        threads[os.path.basename(path)] = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _digest(ctx):
    """Hash of every number the pass produced, in call order."""
    h = hashlib.sha256()
    for v in ctx.rec.values:
        h.update(float(v).hex().encode())
        h.update(b"\n")
    for text in ctx.reports:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="time.monotonic_ns() when the parent started this process")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import mongeval

    if os.path.dirname(os.path.abspath(mongeval.__file__)) != os.path.join(SRC, "mongeval"):
        print(f"mongeval was imported from {mongeval.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    import numpy
    import scipy

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    import pace

    out = {"setup_s": setup_s, "setup_paced_s": setup_s / pace.slowdown()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    pacer = pace.Pacer() if args.mode == "plain" else None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
    out_base = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_base, prefix="pass-") as out_dir:
        ctx = workloads.Context(tracer, out_dir, pacer)
        if tracer is not None:
            tracer.install()
        ctx.rec.install()
        if pacer is not None:
            pacer.now()
        t0 = time.perf_counter()
        try:
            workload.run(ctx)
        except Exception:  # a crash is a failed pass, reported like a failed check
            traceback.print_exc()
            ctx.gate.check(f"pass raised {sys.exc_info()[0].__name__}", False)
        t1 = time.perf_counter()
        if pacer is not None:
            pacer.now()
        ctx.rec.uninstall()
        if tracer is not None:
            tracer.uninstall()

    if pacer is not None:
        out.update({
            "wall_paced_s": pacer.paced_span(t0, t1),
            "calls_paced_s": [pacer.paced(a, b) for a, b in ctx.rec.calls],
            "pace_blocks": len(pacer.blocks),
        })
    out.update({
        "wall_s": pacer.raw_span(t0, t1) if pacer is not None else t1 - t0,
        "calls_s": [b - a for a, b in ctx.rec.calls],
        "values": len(ctx.rec.values),
        "digest": _digest(ctx),
        "attempted": ctx.gate.attempted,
        "failures": ctx.gate.failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_fingerprint(),
    })
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        spans_dir = os.path.join(out_base, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, f"{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "root"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
