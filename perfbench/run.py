"""Benchmark runner for ksatlas.

    python3 perfbench/run.py --workload bell-lift --seed 1 --seconds 20 --trace 0

Runs one workload as a single-client closed loop: the batch of queries
made from --seed is sent one query at a time, repeated while another
batch fits in --seconds (at least once). Set-up (importing the package
and building the workload's objects) is measured several times and its
median reported. Every answer is then checked against an independent
oracle. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1; the line before it is the run record (environment,
seed, input digest, sample counts, error_rate, tracing overhead).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
TAIL_LEVELS = (0.99, 0.95, 0.9, 0.8, 0.75, 0.5)
IMPORT_PROBE = (
    "import time, sys\n"
    "t = time.perf_counter()\n"
    "import ksatlas, ksatlas.bridge, ksatlas.cli, ksatlas.graphs, ksatlas.polytope, "
    "ksatlas.quantum, ksatlas.ratlp, ksatlas.scenario\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)


def child_env():
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds():
    """Wall time of `import ksatlas` and its submodules in a fresh process."""
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", IMPORT_PROBE],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def tail_level(per_batch):
    """Highest listed percentile with at least ten of one batch's samples
    beyond it; fixed per workload, so it does not move with the batch count."""
    for level in TAIL_LEVELS:
        if per_batch - math.ceil(level * per_batch) >= 10:
            return level
    return 0.5


def percentile(samples, level):
    ordered = sorted(samples)
    k = max(0, math.ceil(level * len(ordered)) - 1)
    return ordered[k], len(ordered) - (k + 1)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_batches(queries, seconds, started):
    """Closed loop over the batch; returns per-batch times, per-query
    latencies, the first batch's answers, later batches' answers, and the
    peak RSS at the end of the first batch (so it does not depend on how
    many batches fit)."""
    from ksatlas.errors import AtlasError

    batch_times, latencies, first, later = [], [], [], []
    rss = None
    while True:
        t_batch = time.perf_counter()
        answers = []
        for q in queries:
            t0 = time.perf_counter()
            try:
                ans = ("ok", q.run())
            except AtlasError as exc:
                ans = ("typed", exc)
            except Exception as exc:  # counted as an untyped failure
                ans = ("untyped", exc)
            latencies.append(time.perf_counter() - t0)
            answers.append(ans)
        now = time.perf_counter()
        batch_times.append(now - t_batch)
        if not first:
            first, rss = answers, peak_rss_mb()
        else:
            later.append(answers)
        if now - started + batch_times[-1] > seconds:
            return batch_times, latencies, first, later, rss


def grade(queries, first, later):
    """Oracle verdicts: failures by cause and the strict audit of known
    defects (ROADMAP items 3 and 4)."""
    from ksatlas.errors import ResourceError

    failures = {"oracle": [], "untyped": [], "resource": [], "typed": [], "unstable": []}
    audits = []
    results = {(q.kind, q.label): ans[1] for q, ans in zip(queries, first) if ans[0] == "ok"}
    for i, (q, (status, value)) in enumerate(zip(queries, first)):
        if status != "ok":
            cause = "untyped" if status == "untyped" else (
                "resource" if isinstance(value, ResourceError) else "typed")
            failures[cause].append(f"{q.kind} {q.label}: {type(value).__name__}: {value}")
            continue
        problem = q.check(value, results)
        if problem:
            failures["oracle"].append(f"{q.kind} {q.label}: {problem}")
            continue
        base = q.canon(value)
        if any(rep[i][0] != "ok" or q.canon(rep[i][1]) != base for rep in later):
            failures["unstable"].append(f"{q.kind} {q.label}: answer changed between batches")
            continue
        if q.audit is not None:
            audits.append((q, q.audit(value)))
    return failures, audits


def run_probes(probes):
    """Untimed queries that exercise a known limit; a refusal or a failed
    audit is a recorded defect."""
    from ksatlas.errors import AtlasError, ResourceError

    out = []
    for q in probes:
        try:
            problem = q.audit(q.run())
        except ResourceError as exc:
            problem = f"refused: {type(exc).__name__}: {exc}"
        except AtlasError as exc:
            problem = f"{type(exc).__name__}: {exc}"
        out.append((q, problem))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "ksatlas" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'ksatlas'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        import ksatlas
        import ksatlas._kernels
    if Path(ksatlas.__file__).resolve().parent != (SRC / "ksatlas").resolve():
        print(f"perfbench: imported ksatlas from {ksatlas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracer as tracing
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    raw = spec.generate(args.seed)
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]
    builds, imports = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        objs = spec.build(raw)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    workdir = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        queries = spec.queries(objs, raw, workdir)
        started = time.perf_counter()
        overhead = None
        tracer = None
        if args.trace:
            plain = run_batches(queries, 0, time.perf_counter())[0]
            tracer = tracing.Tracer()
            with tracer:
                batch_times, latencies, first, later, rss = run_batches(
                    queries, args.seconds, started)
            overhead = statistics.median(batch_times) - plain[0]
        else:
            batch_times, latencies, first, later, rss = run_batches(
                queries, args.seconds, started)
        failures, audits = grade(queries, first, later)
        probes = run_probes(spec.probes(objs, raw))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = len(first)
    failed = sum(len(v) for v in failures.values())
    level = tail_level(len(queries))
    p50 = statistics.median(latencies)
    tail, beyond = percentile(latencies, level)
    defects = [(q, prob) for q, prob in audits + probes if prob]
    strict_attempts = attempted + len(probes)
    strict_failed = failed + len(defects)
    causes = {k: len(v) for k, v in failures.items()}
    causes["audit"] = sum(1 for _, prob in audits if prob)
    causes["probe"] = sum(1 for _, prob in probes if prob)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": digest,
        "trace": args.trace,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
                "kernel": "numba" if ksatlas._kernels.USE_NUMBA else "numpy scan",
                "client": "single closed loop"},
        "queries_per_batch": len(queries),
        "batches": len(batch_times),
        "batch_s_all": batch_times,
        "latency_samples": len(latencies),
        "query_tail": {"percentile": level * 100, "samples": len(latencies),
                       "beyond": beyond},
        "setup": {"import_s": statistics.median(imports), "build_s": statistics.median(builds),
                  "repeats": SETUP_REPEATS},
        "error_rate": strict_failed / strict_attempts,
        "error_breakdown": causes,
        "failures": {k: v for k, v in failures.items() if v},
        "defects": [f"{q.kind} {q.label}: {prob}" for q, prob in defects],
        "tracing_overhead_s": overhead,
    }
    if tracer is not None:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in tracer.metrics(len(batch_times)).items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": statistics.median(batch_times), "unit": "s"},
            "query_p50_s": {"value": p50, "unit": "s"},
            "query_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps(record, sort_keys=True))
    correct = not (failures["oracle"] or failures["untyped"] or failures["unstable"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
