"""mongeval benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid-identity --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in its
own process (perfbench/worker.py) with BLAS fixed to one thread, so every
pass pays the set-up a user pays and reports its own peak memory.  With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it prints the per-layer metrics of a traced pass, and
checks that tracing changed no number and that the work counts repeat.
Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 0 only when every check passed.

Every pass of a run works on the same inputs, made from ``--seed``, so
the passes must agree bit for bit, and each valuation call of a pass is
matched with the same call of the others.  Timed figures are paced (see
pace.py): each stretch of a pass is divided by the machine's speed as a
reference block read it just before and after, because the machine the
figures were taken on changes speed by a third and more in phases of a
tenth of a second to minutes.  A figure is then centred over the run's
passes (a mean with the fifth of the passes at each end left out), and a
call's latency is that call's latency centred over the passes.
The numbers of passes and of set-up samples follow from ``--seconds``
and the workload alone, never from a clock, so two commits compared at
the same ``--seconds`` do the same work.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from checks import Gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

#: nominal seconds of one pass on a 2-core machine, its process start
#: included, which sets the number of passes in a run; a run makes at least two
NOMINAL_PASS_S = {"grid-identity": 10.0, "smooth-stencil": 3.5, "small-calls": 3.0}
#: processes whose set-up is timed in a run: its passes, and set-up-only
#: processes spread between them to make up the number
SETUP_SAMPLES = 9
#: a run that has not finished its processes after this long fails, so it
#: ends within 180 s
DEADLINE_S = 165.0

#: counts that depend only on a workload's size, never on its seed: they
#: must repeat exactly across passes with different seeds
SEED_INVARIANT_COUNTS = (
    "valuation.eval.cells",
    "valuation.smooth.points",
    "hessian.grid.cells",
    "algebra.det.matrices",
    "hessian.stencil.fevals",
)

#: every deterministic work count; the seed-dependent ones (polytope
#: vertex counts follow the random bodies) must repeat for a fixed seed
WORK_COUNTS = SEED_INVARIANT_COUNTS + (
    "convex.support.products",
    "convex.clip.points_kept",
    "serialize.write.bytes",
)


SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, mode, deadline):
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{mode} pass of {workload} seed {seed} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{mode} pass of {workload} seed {seed} exited "
                           f"{proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree_digest(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(d):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(args, passes):
    first = passes[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "blas": first.get("blas"),
        "blas_env": SINGLE_THREAD_ENV,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(os.path.join(ROOT, "src")),
        "bench_sha256": _tree_digest(HERE),
    }


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, i.e. the eleventh largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def absorb(gate, result):
    """Add a pass's checks to the run's, and check its BLAS thread counts."""
    gate.attempted += result["attempted"]
    gate.failures += result["failures"]
    threads = result["blas"]["threads"]
    gate.check(f"every loaded BLAS library runs on one thread ({threads})",
               bool(threads) and all(n == 1 for n in threads.values()))


def center(values):
    """Mean of ``values`` with the fifth of them at each end left out.  A
    median over a few passes jumps whenever a pass or two more fall in a
    slow phase of the machine; this moves with their share instead."""
    ordered = sorted(values)
    cut = len(ordered) // 5
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def paced_times(passes):
    """(per-call latencies, pass time) of passes that made the same calls:
    each call's paced latency, and the paced pass time, centred over the
    passes."""
    latencies = [center(p["calls_paced_s"][k] for p in passes)
                 for k in range(len(passes[0]["calls_paced_s"]))]
    return latencies, center(p["wall_paced_s"] for p in passes)


def run_plain(args, deadline, checks):
    """Untraced passes on the run's seed, each in a fresh process, with
    set-up-only processes between them."""
    n_passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    extra = max(0, SETUP_SAMPLES - n_passes)
    passes, setups = [], []
    for i in range(n_passes):
        result = _worker(args.workload, args.seed, "plain", deadline)
        absorb(checks, result)
        passes.append(result)
        setups.append(result["setup_paced_s"])
        for _ in range(extra * (i + 1) // n_passes - extra * i // n_passes):
            setups.append(_worker(args.workload, args.seed, "setup", deadline)["setup_paced_s"])

    if any(p["digest"] != passes[0]["digest"] or len(p["calls_s"]) != len(passes[0]["calls_s"])
           for p in passes):
        raise WorkerFailed("passes on one seed gave different values or reports")
    latencies, wall = paced_times(passes)
    tail_s, pct = tail(latencies)
    metrics = {
        "wall_s": wall,
        "eval_p50_ms": 1e3 * statistics.median(latencies),
        "eval_tail_ms": 1e3 * tail_s,
        "setup_s": center(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in passes) * 1024 / 1e6,
    }
    notes = {
        "passes": n_passes,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_paced_s": [p["wall_paced_s"] for p in passes],
        "pace_blocks": [p["pace_blocks"] for p in passes],
        "eval_paced_s": latencies,
        "eval_tail_percentile": pct,
        "setup_samples": setups,
    }
    print(f"{args.workload}: {n_passes} passes of {len(latencies)} valuation calls; "
          f"eval_tail_ms is p{pct:.2f} of {len(latencies)} per-call centred times; "
          f"setup_s is centred over {len(setups)} processes")
    return passes, metrics, notes


def run_traced(args, deadline, checks):
    """An untraced and a traced pass on the run's seed, then a traced pass
    on a second seed of the same size."""
    seeds = (args.seed, random.Random(args.seed).randrange(2**31))
    plain = _worker(args.workload, seeds[0], "plain", deadline)
    traced = [_worker(args.workload, s, "traced", deadline) for s in seeds]
    for result in (plain, *traced):
        absorb(checks, result)

    checks.check("tracing changed no valuation value or report",
                 traced[0]["digest"] == plain["digest"]
                 and traced[0]["values"] == plain["values"])
    layers = [t["layers"] for t in traced]
    for key in SEED_INVARIANT_COUNTS:
        checks.check(f"{key} repeats across seeds ({layers[0][key]} vs {layers[1][key]})",
                     layers[0][key] == layers[1][key])
    counts = {key: layers[0][key] for key in WORK_COUNTS}
    _check_count_ledger(args, seeds[0], counts, checks)

    metrics = {key: statistics.median(lay[key] for lay in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - plain["wall_s"]
    notes = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced[0]["wall_s"],
        "spans": [t["spans"] for t in traced],
        "work_counts": counts,
    }
    print(f"{args.workload}: traced wall {traced[0]['wall_s']:.3f} s, untraced "
          f"{plain['wall_s']:.3f} s, overhead {metrics['trace.overhead_s']:.3f} s; "
          f"{traced[0]['spans']} spans")
    return [plain, *traced], metrics, notes


def _check_count_ledger(args, seed, counts, checks):
    """Work counts of a seed must repeat exactly in every later run of the
    same code in this checkout."""
    key = hashlib.sha256(json.dumps([
        args.workload, seed, _tree_digest(os.path.join(ROOT, "src")), _tree_digest(HERE),
    ]).encode()).hexdigest()[:24]
    path = os.path.join(OUT, "counts", f"{args.workload}-{key}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        for name, value in counts.items():
            checks.check(f"{name} repeats across runs ({earlier.get(name)} vs {value})",
                         earlier.get(name) == value)
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "mongeval", "__init__.py")):
        print(f"no mongeval sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    checks = Gate()
    try:
        run = run_traced if args.trace else run_plain
        passes, measured, notes = run(args, deadline, checks)
    except WorkerFailed as exc:
        for label in checks.failures:
            print(f"FAILED: {label}", file=sys.stderr)
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"benchmark failed: no measurement for {missing}", file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in units}

    fail_frac = len(checks.failures) / checks.attempted
    fp = fingerprint(args, passes)
    record = {"fingerprint": fp, "metrics": measured, "units": units, "notes": notes,
              "fail_frac": fail_frac, "failures": checks.failures,
              "passes": passes}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {fail_frac:.6g} ratio ({len(checks.failures)} of {checks.attempted} "
          f"checks failed)")
    for label in checks.failures:
        print(f"FAILED: {label}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
