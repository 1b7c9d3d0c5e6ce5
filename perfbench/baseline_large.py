"""Traced one-off run of the instances too large for a timed batch: the
16-cycle and 7x7 chained Bell tightness checks and the full nine-removal
PM-square lift. Prints wall time and the top layers by self time.

    python3 perfbench/baseline_large.py
"""

import random
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    from ksatlas import bridge, polytope
    from ksatlas.scenario import Scenario, correlator_inequality

import tracer as tracing
import workloads


def chained_bell(m):
    s = Scenario.from_json(workloads.dichotomic(
        [f"A{i}" for i in range(m)] + [f"B{i}" for i in range(m)],
        workloads.bipartite_edges(m, m)))
    corr = [(tuple(ms), c) for ms, c in workloads.chained(m, random.Random(0))]
    return s, correlator_inequality(s, corr, 2 * m - 2, "LR", f"chained-{m}")


def main():
    cases = [
        ("tightness_test 16-cycle", lambda s=bridge.n_cycle(16): polytope.tightness_test(s[1], s[0])),
        ("tightness_test 7x7 chained Bell",
         lambda s=chained_bell(7): polytope.tightness_test(s[1], s[0])),
        ("sic_to_bell PM square, nine removals", lambda: bridge.sic_to_bell(bridge.pm_square())),
    ]
    for label, run in cases:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracer:
            run()
        wall = time.perf_counter() - t0
        selfs = {k[:-len(".self_s")]: v for k, v in tracer.metrics().items()
                 if k.endswith(".self_s") and v > 0}
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        print(f"{label}: {wall:.2f} s; " + ", ".join(
            f"{k} {v:.2f} s ({100 * v / wall:.0f}%)" for k, v in top))


if __name__ == "__main__":
    main()
