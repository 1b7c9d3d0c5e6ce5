"""Checks of the benchmark itself (not collected by the package's test
suite; run with `python3 -m pytest perfbench/test_perfbench.py`).

- the same seed gives identical inputs, another seed other inputs;
- traced answers equal untraced ones, and every layer a workload is
  mapped to fires there, so a renamed function fails loudly instead of
  silently zeroing a layer;
- the result line carries exactly the metrics BENCHMARK.json names;
- without the package source the benchmark fails without a result.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    import ksatlas.bridge  # noqa: F401
    import ksatlas.polytope  # noqa: F401

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 7919

EXPECTED_LAYERS = {
    "bell-lift": {"kernels.best_assignment", "polytope.classical_bound",
                  "graphs.is_complete_n_partite", "bridge.sic_to_bell",
                  "quantum.verify_sic", "quantum.remove_measurement",
                  "scenario.check_inequality"},
    "facet-member": {"polytope.enumerate_vertices", "polytope.int_rank",
                     "polytope.tightness_test", "ratlp.solve_feasibility",
                     "polytope.membership_test", "scenario.validate_behavior"},
    "theta-seesaw": {"graphs.lovasz_theta", "graphs.independence_number",
                     "quantum.seesaw_max", "quantum.verify_sic",
                     "quantum.remove_measurement", "quantum.neumark_dilation"},
    "cli-small": {"cli.main", "bridge.map_report", "bridge.bell_to_ks", "bridge.ks_to_bell",
                  "scenario.build_scenario", "scenario.check_inequality",
                  "scenario.validate_behavior", "polytope.membership_test",
                  "ratlp.solve_feasibility", "quantum.seesaw_max"},
}
# derived counters that must be nonzero on the workload they are mapped to
EXPECTED_COUNTERS = {
    "bell-lift": ("polytope.classical_bound.scan_calls",),
    "theta-seesaw": ("graphs.independence_number.in_theta_calls",),
    "cli-small": ("bridge.map_report.polytope_calls",),
}


def digest(raw):
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    gen = workloads.WORKLOADS[name].generate
    assert digest(gen(1)) == digest(gen(1))
    assert len({digest(gen(1)), digest(gen(2)), digest(gen(HELD_OUT_SEED))}) == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_answers_equal_untraced_and_layers_fire(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    raw = spec.generate(1)
    queries = spec.queries(spec.build(raw), raw, tmp_path)
    plain = [q.canon(q.run()) for q in queries]
    tracer = tracing.Tracer()
    with tracer:
        traced = [q.canon(q.run()) for q in queries]
    assert traced == plain
    assert not EXPECTED_LAYERS[name] - tracer.fired()
    metrics = tracer.metrics()
    for counter in EXPECTED_COUNTERS.get(name, ()):
        assert metrics[counter] > 0, counter
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    # uninstalled: the package is back to its own functions
    assert not any(getattr(f, "__wrapped__", None) for f in (
        ksatlas.polytope.classical_bound, ksatlas.bridge.classical_bound,
        ksatlas.polytope.best_assignment, ksatlas.graphs.independence_number))


def _result(cwd, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace):
    code, lines = _result(ROOT, trace)
    assert code == 0
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _result(tmp_path, 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
