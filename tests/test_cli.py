import json
import math
import random

import numpy as np
import pytest

from conftest import rotated_a11
from ksatlas.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def workdir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for which in ("pearle", "chsh", "pm-square"):
        assert main(["examples", which, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path


def test_examples_then_tight_pearle(workdir, capsys):
    code, doc = run(capsys, "tight", "pearle.scenario.json", "pearle.gamma.json")
    assert code == 0
    assert doc["result"]["verdict"] == "facet"
    code, doc = run(capsys, "tight", "pearle.bell_scenario.json",
                    "pearle.gamma_prime.json")
    assert code == 0
    assert doc["result"]["verdict"] == "lower-dimensional face"


def test_bound_and_empty_inequality(workdir, capsys, tmp_path):
    code, doc = run(capsys, "bound", "pearle.scenario.json", "pearle.gamma.json")
    assert code == 0 and doc["result"]["classical_bound"] == "4"
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"terms": [], "bound": "0", "kind": "NCHV"}))
    code, doc = run(capsys, "bound", "pearle.scenario.json", str(empty))
    assert code == 0 and doc["result"]["classical_bound"] == "0"


def test_map_hexagon_partial(workdir, capsys):
    code, doc = run(capsys, "map", "pearle.scenario.json", "pearle.gamma.json")
    assert code == 0
    r = doc["result"]
    assert r["connection"] == "partial"
    assert r["tightness_preserved"] is False


def test_validate_round_trips_uniform(workdir, capsys, tmp_path):
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "pearle.scenario.json").read_text()))
    beh = uniform_behavior(scenario)
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(beh.to_json()))
    code, doc = run(capsys, "validate", "pearle.scenario.json", str(path))
    assert code == 0 and doc["result"]["ok"]
    code, doc = run(capsys, "member", "pearle.scenario.json", str(path))
    assert code == 0 and doc["result"]["member"]


def test_graph_subcommands(workdir, capsys, tmp_path):
    gpath = tmp_path / "c5.json"
    gpath.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    code, doc = run(capsys, "graph", "alpha", str(gpath))
    assert code == 0 and doc["result"]["alpha"] == 2
    code, doc = run(capsys, "graph", "theta", str(gpath), "--tol", "1e-6")
    lo, hi = doc["result"]["theta"]
    assert code == 0 and lo <= 5 ** 0.5 <= hi
    code, doc = run(capsys, "graph", "partition", str(gpath), "--n", "2")
    assert code == 0 and doc["result"]["partition"] is None
    code, doc = run(capsys, "graph", "ratio", str(gpath), "--tol", "1e-5")
    assert code == 0 and doc["result"]["alpha"] == 2


def test_qvalue_cycle(workdir, capsys):
    code, doc = run(capsys, "qvalue", "pearle.scenario.json", "pearle.gamma.json",
                    "--dim", "2", "--restarts", "6", "--seed", "1")
    assert code == 0
    assert abs(doc["result"]["value"] - 3 * 3 ** 0.5) < 1e-6
    assert doc["seed"] == 1


def test_sic_verify_and_critical(workdir, capsys):
    code, doc = run(capsys, "sic", "verify", "pm_square.sicset.json")
    assert code == 0 and doc["result"]["is_sic"]
    code, doc = run(capsys, "sic", "critical", "pm_square.sicset.json",
                    "--samples", "20")
    assert code == 0 and doc["result"]["critical"]



def test_sic_verify_rejects_a_wrong_mu(workdir, capsys):
    data = json.loads((workdir / "pm_square.sicset.json").read_text())
    (workdir / "pm_mu3.sicset.json").write_text(json.dumps({**data, "mu": "3"}))
    code, doc = run(capsys, "sic", "verify", "pm_mu3.sicset.json")
    assert code == 2 and doc is None


def test_sic_verify_rejects_noncommuting_compatible_effects(workdir, capsys, pm):
    # A11 turned by 0.05 rad no longer commutes with its compatible A13;
    # the stored mu and q are those of the turned set
    (workdir / "rotated.sicset.json").write_text(json.dumps(rotated_a11(pm)[1]))
    assert main(["sic", "verify", "rotated.sicset.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "do not commute" in err


def test_sic_verify_rejects_a_witness_bound_other_than_mu(workdir, capsys):
    data = json.loads((workdir / "pm_square.sicset.json").read_text())
    data["witness"]["bound"] = "7"
    (workdir / "bound7.sicset.json").write_text(json.dumps(data))
    assert main(["sic", "verify", "bound7.sicset.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "witness bound 7" in err


def test_a_measurement_id_with_a_comma_exits_2(workdir, capsys):
    # A1 renamed "A,1" in the scenario and in the inequality: the scenario's
    # behaviors could not be read back, so it is refused when built
    for name in ("chsh.scenario.json", "chsh.inequality.json"):
        text = (workdir / name).read_text()
        assert '"A1"' in text
        (workdir / f"comma.{name}").write_text(text.replace('"A1"', '"A,1"'))
    assert main(["bound", "comma.chsh.scenario.json", "comma.chsh.inequality.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "','" in err


@pytest.mark.parametrize("parts,code", [
    ([[0, 9], [1, 2, 3]], 2),
    ([[0, 2], [1, 3]], 2),
    ([[0, 1], [2], [3]], 2),
    ([[0, 1], [2, 3]], 0),
], ids=["out-of-range", "not-independent", "undersized", "valid"])
def test_map_checks_a_partition_of_a_bell_scenario(workdir, capsys, parts, code):
    # CHSH's own parties drive its map, and a given partition is still
    # checked; a valid one leaves the report as it is without one
    (workdir / "parts.json").write_text(json.dumps({"parts": parts}))
    got, doc = run(capsys, "map", "chsh.scenario.json", "chsh.inequality.json",
                   "--partition", "parts.json")
    assert got == code
    if code == 0:
        assert doc == run(capsys, "map", "chsh.scenario.json", "chsh.inequality.json")[1]


def test_dilate(workdir, capsys, tmp_path):
    from ksatlas.quantum import mat_to_json
    vecs = [np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
            for k in range(3)]
    effects = [(2 / 3) * np.outer(v, v).astype(complex) for v in vecs]
    path = tmp_path / "trine.json"
    path.write_text(json.dumps({"d": 2, "effects": [mat_to_json(e) for e in effects]}))
    code, doc = run(capsys, "dilate", str(path))
    assert code == 0
    assert doc["result"]["dilated_dim"] == 3
    assert doc["result"]["isometry_residual"] < 1e-10


def test_reports_are_byte_identical(workdir, capsys):
    code1 = main(["tight", "chsh.scenario.json", "chsh.inequality.json"])
    out1 = capsys.readouterr().out
    code2 = main(["tight", "chsh.scenario.json", "chsh.inequality.json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_codes(workdir, capsys, tmp_path):
    assert main(["bound", "missing.json", "also-missing.json"]) == 2
    capsys.readouterr()
    # over-budget scenario -> exit 3
    big = {"measurements": [{"id": f"m{i}", "outcomes": [1, -1]} for i in range(30)],
           "compat": [[i, i + 1] for i in range(29)]}
    spath = tmp_path / "big.json"
    spath.write_text(json.dumps(big))
    ipath = tmp_path / "tiny_ineq.json"
    ipath.write_text(json.dumps({
        "terms": [{"context": ["m0", "m1"], "assignment": [1, 1], "coef": "1"}],
        "bound": "1", "kind": "NCHV"}))
    assert main(["tight", str(spath), str(ipath)]) == 3
    capsys.readouterr()
    assert main(["nonsense-subcommand"]) == 64
    capsys.readouterr()


def test_report_envelope_fields(workdir, capsys):
    code, doc = run(capsys, "bound", "chsh.scenario.json", "chsh.inequality.json")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["tool"] == "ksatlas"
    assert doc["command"] == "bound"
    assert "config" in doc and "version" in doc


def test_seesaw_failure_exits_3_without_traceback(workdir, capsys, monkeypatch):
    import ksatlas.quantum as quantum
    polar_sign = quantum.polar_sign
    # the worst observable instead of the best one: the value must drop
    monkeypatch.setattr(quantum, "polar_sign", lambda f: -polar_sign(f))
    code = main(["qvalue", "pearle.scenario.json", "pearle.gamma.json",
                 "--dim", "2", "--restarts", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: seesaw lost monotonicity")
    assert "Traceback" not in err


def test_seesaw_over_memory_budget_exits_3(workdir, capsys, monkeypatch):
    import ksatlas.quantum as quantum

    def no_draw(*args):
        raise AssertionError("observables drawn past the memory guard")

    monkeypatch.setattr(quantum, "_random_observables", no_draw)
    code = main(["qvalue", "pearle.scenario.json", "pearle.gamma.json",
                 "--dim", "100000", "--restarts", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: ")
    assert "Traceback" not in err


def test_theta_failure_exits_3_without_traceback(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    gpath.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    code = main(["graph", "theta", str(gpath), "--tol", "1e-300"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: theta interval")
    assert "Traceback" not in err


# one argv per input file slot; "BAD" gets the malformed file, and files
# after it are never read
_FILE_SLOTS = [
    ["bound", "BAD", "chsh.inequality.json"],
    ["bound", "chsh.scenario.json", "BAD"],
    ["tight", "BAD", "chsh.inequality.json"],
    ["tight", "chsh.scenario.json", "BAD"],
    ["member", "BAD", "behavior.json"],
    ["member", "pearle.scenario.json", "BAD"],
    ["validate", "pearle.scenario.json", "BAD"],
    ["map", "BAD", "pearle.gamma.json"],
    ["map", "pearle.scenario.json", "BAD"],
    ["map", "pearle.scenario.json", "pearle.gamma.json", "--partition", "BAD"],
    ["qvalue", "chsh.scenario.json", "BAD", "--dim", "2"],
    ["graph", "alpha", "BAD"],
    ["dilate", "BAD"],
    ["sic", "verify", "BAD"],
]


@pytest.mark.parametrize("content", [{}, [1, 2]], ids=["object", "list"])
@pytest.mark.parametrize("argv", _FILE_SLOTS, ids=lambda a: f"{a[0]}-{a.index('BAD')}")
def test_malformed_input_file_exits_2_without_traceback(workdir, capsys, argv, content):
    (workdir / "bad.json").write_text(json.dumps(content))
    code = main(["bad.json" if a == "BAD" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,content", [
    (["graph", "alpha"], {"n": 3, "edges": [[0, 7]]}),
    (["dilate"], {"effects": []}),
    (["graph", "alpha"], {"n": -1, "edges": []}),
    (["graph", "theta"], {"n": -1, "edges": []}),
    (["graph", "ratio"], {"n": -1, "edges": []}),
    (["graph", "ratio"], {"n": 0, "edges": []}),
], ids=["edge-out-of-range", "no-effects", "alpha-negative-n", "theta-negative-n",
        "ratio-negative-n", "ratio-no-vertex"])
def test_invalid_input_file_exits_2(capsys, tmp_path, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    code = main(argv + [str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["qvalue", "--dim", "2"], ["map", "--quantum"]],
                         ids=lambda c: c[0])
def test_zero_restarts_exits_2(workdir, capsys, command):
    code = main(command[:1] + ["chsh.scenario.json", "chsh.inequality.json"]
                + command[1:] + ["--restarts", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: restarts must be >= 1\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_theta_zero_tol_exits_2(tmp_path, capsys, tol):
    gpath = tmp_path / "c5.json"
    gpath.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    code = main(["graph", "theta", str(gpath), "--tol", tol])
    assert code == 2
    assert capsys.readouterr().err == "error: tol must be positive\n"


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("command", ["member", "validate"])
def test_invalid_tol_exits_2(workdir, capsys, tmp_path, command, tol):
    # the uniform behavior is valid and in the polytope: a wrong verdict
    # would exit 0 (member) or report ok false (validate)
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "chsh.scenario.json").read_text()))
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(uniform_behavior(scenario).to_json()))
    assert main([command, "chsh.scenario.json", str(path)]) == 0
    capsys.readouterr()
    code = main([command, "chsh.scenario.json", str(path), "--tol", tol])
    assert code == 2
    assert capsys.readouterr().err == "error: tol must be finite and >= 0\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["member", "validate"])
def test_nan_float_entry_exits_2(workdir, capsys, tmp_path, command, value):
    # NaN compares false with every bound and +-inf holds no rational, so
    # each must fail the nonnegativity check, not pass validation (or
    # crash the exact reading)
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "chsh.scenario.json").read_text()))
    doc = uniform_behavior(scenario, "float").to_json()
    doc["tables"]["A1,B1"]["1,1"] = value
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main([command, "chsh.scenario.json", str(path)]) == 2
    assert capsys.readouterr().err == f"error: P(1, 1)|(0, 2) = {value}\n"


def test_validate_and_member_agree_at_tol_zero(workdir, capsys, tmp_path):
    # every table (0.1, 0.2, 0.3, 0.4) as floats: the float sum rounds to
    # 1, but the rationals the floats hold sum to 1 + 2^-55, so at tol 0
    # both commands refuse the behavior, and at the default 1e-9 both
    # accept it
    path = tmp_path / "tenths.json"
    path.write_text(json.dumps({"mode": "float", "tables": {
        key: {"1,1": 0.1, "1,-1": 0.2, "-1,1": 0.3, "-1,-1": 0.4}
        for key in ("A1,B1", "A1,B2", "A2,B1", "A2,B2")}}))
    code, doc = run(capsys, "validate", "chsh.scenario.json", str(path), "--tol", "0")
    assert code == 2 and not doc["result"]["ok"]
    assert doc["result"]["normalization"][0]["deviation"] == str(2.0 ** -55)
    assert main(["member", "chsh.scenario.json", str(path), "--tol", "0"]) == 2
    capsys.readouterr()
    code, doc = run(capsys, "validate", "chsh.scenario.json", str(path))
    assert code == 0 and doc["result"]["ok"]
    code, doc = run(capsys, "member", "chsh.scenario.json", str(path))
    assert code == 0 and doc["result"]["member"]


@pytest.mark.parametrize("command", ["validate", "member"])
@pytest.mark.parametrize("key,table", [
    ("A1,A2", {"1,1": "1"}),
    ("B1,A1", {"1,1": "1", "1,-1": "0", "-1,1": "0", "-1,-1": "0"}),
])
def test_behavior_with_an_extra_table_exits_2(workdir, capsys, tmp_path, command, key, table):
    # a table on an incompatible pair, or a second table on a context, is
    # invalid input; before, validation ignored the first and the second
    # replaced the uniform table it followed
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "chsh.scenario.json").read_text()))
    doc = uniform_behavior(scenario).to_json()
    doc["tables"][key] = table
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    assert main([command, "chsh.scenario.json", str(path)]) == 2
    assert f"table key {key!r}" in capsys.readouterr().err


def test_validate_and_member_agree_on_a_rational_file_at_tol(workdir, capsys, tmp_path):
    # CHSH uniform with 10^-9 moved within the (A1,B1) table: B1's
    # marginals differ by 10^-9, which --tol 1e-6 allows in both commands
    # and the default (0 for rational files) refuses in both
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "chsh.scenario.json").read_text()))
    doc = uniform_behavior(scenario).to_json()
    doc["tables"]["A1,B1"].update({"1,1": "250000001/1000000000",
                                   "1,-1": "249999999/1000000000"})
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", "chsh.scenario.json", str(path), "--tol", "1e-6")
    assert code == 0 and out["result"]["ok"]
    code, out = run(capsys, "member", "chsh.scenario.json", str(path), "--tol", "1e-6")
    assert code == 0 and out["result"]["member"]
    for command in ("validate", "member"):
        assert main([command, "chsh.scenario.json", str(path)]) == 2
    capsys.readouterr()


def test_bound_refuses_a_truncated_term(workdir, capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"terms": [
        {"context": ["A1", "B1"], "assignment": [1], "coef": "1"}], "bound": "1"}))
    assert main(["bound", "chsh.scenario.json", str(path)]) == 2
    assert "differ in length" in capsys.readouterr().err


def test_sic_verify_without_samples_writes_null(workdir, capsys):
    code, doc = run(capsys, "sic", "verify", "pm_square.sicset.json", "--samples", "0")
    assert code == 0 and doc["result"]["is_sic"]
    assert doc["result"]["sample_min"] is None


@pytest.mark.parametrize("argv", [
    ["member", "chsh.scenario.json", "uniform.json", "--budget", "-1"],
    ["bound", "chsh.scenario.json", "chsh.inequality.json", "--budget", "-1"],
    ["tight", "chsh.scenario.json", "chsh.inequality.json", "--budget", "-1"],
    ["map", "chsh.scenario.json", "chsh.inequality.json", "--budget", "-1"],
    ["graph", "alpha", "c5.json", "--limit", "-1"],
    ["graph", "theta", "c5.json", "--limit", "-1"],
    ["qvalue", "chsh.scenario.json", "chsh.inequality.json", "--dim", "2", "--restarts", "1",
     "--iters", "-1"],
    ["sic", "verify", "pm_square.sicset.json", "--samples", "-1"],
    ["graph", "partition", "c5.json", "--n", "-1"],
    ["graph", "partition", "c5.json", "--n", "0"],
])
def test_negative_budget_or_limit_exits_2(workdir, capsys, tmp_path, argv):
    # a count below its least value (a negative cap, no iteration, no
    # part) is invalid input (exit 2), not a resource limit (exit 3) or
    # an empty answer; each command succeeds with the option left at its
    # default
    from ksatlas.scenario import Scenario, uniform_behavior
    scenario = Scenario.from_json(json.loads(
        (tmp_path / "chsh.scenario.json").read_text()))
    (tmp_path / "uniform.json").write_text(json.dumps(uniform_behavior(scenario).to_json()))
    (tmp_path / "c5.json").write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    assert main(argv[:-2]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    least = 1 if argv[-2] in ("--iters", "--n") else 0
    assert capsys.readouterr().err == f"error: {argv[-2]} must be >= {least}\n"


@pytest.mark.parametrize("argv", [["qvalue", "--dim", "2"], ["map", "--quantum"]],
                         ids=lambda a: a[0])
def test_a_never_firing_term_leaves_the_quantum_value(workdir, capsys, argv):
    # A1 = +1 and A1 = -1 never hold together, so the term adds nothing:
    # the bound stays 2 and the seesaw finds 2 sqrt 2, on a monotone run
    doc = json.loads((workdir / "chsh.inequality.json").read_text())
    doc["terms"].append({"context": ["A1", "A1"], "assignment": [1, -1], "coef": "2"})
    (workdir / "never.json").write_text(json.dumps(doc))
    code, out = run(capsys, "bound", "chsh.scenario.json", "never.json")
    assert code == 0 and out["result"]["classical_bound"] == "2"
    code, out = run(capsys, argv[0], "chsh.scenario.json", "never.json", *argv[1:])
    assert code == 0
    r = out["result"]
    values = ([r["value"]] if argv[0] == "qvalue"
              else [r["quantum"]["source"], r["quantum"]["target"]])
    assert all(abs(v - 2 * math.sqrt(2)) < 1e-6 for v in values)


@pytest.mark.parametrize("argv", [
    ["bound"], ["tight"], ["map"], ["map", "--quantum"],
    ["qvalue", "--dim", "2"], ["qvalue", "--dim", "20000"],
], ids=lambda a: "-".join(a).replace("--", ""))
def test_a_term_on_an_incompatible_pair_exits_2(workdir, capsys, argv):
    # A1 and A2 share no context. The library call checks the terms before
    # any other work, so the input error comes first even where a seesaw
    # of dimension 20000 would exceed the memory budget (exit 3)
    doc = json.loads((workdir / "chsh.inequality.json").read_text())
    doc["terms"].append({"context": ["A1", "A2"], "assignment": [1, 1], "coef": "1"})
    (workdir / "incompatible.json").write_text(json.dumps(doc))
    code = main([argv[0], "chsh.scenario.json", "incompatible.json", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: term context (0, 1) not inside any maximal context\n"


@pytest.mark.parametrize("what", ["theta", "ratio"])
def test_theta_over_memory_budget_exits_3(tmp_path, capsys, what):
    # a seeded G(200, 1/2) passes --limit 300, but its Schur matrix of
    # (|E| + 1)^2 entries does not fit the memory budget
    rng = random.Random(0)
    edges = [[i, j] for i in range(200) for j in range(i + 1, 200) if rng.random() < 0.5]
    gpath = tmp_path / "g200.json"
    gpath.write_text(json.dumps({"n": 200, "edges": edges}))
    code = main(["graph", what, str(gpath), "--limit", "300"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource limit: the theta solve's ") and "Traceback" not in err


def _zero_denominator(workdir, where):
    """(argv, content) of an input file with "1/0" in one place."""
    from ksatlas.scenario import Scenario, uniform_behavior
    if where in ("coef", "bound"):
        doc = json.loads((workdir / "chsh.inequality.json").read_text())
        if where == "coef":
            doc["terms"][0]["coef"] = "1/0"
        else:
            doc["bound"] = "1/0"
        return ["bound", "chsh.scenario.json"], doc
    if where == "entry":
        scenario = Scenario.from_json(json.loads((workdir / "chsh.scenario.json").read_text()))
        doc = uniform_behavior(scenario).to_json()
        doc["tables"]["A1,B1"]["1,1"] = "1/0"
        return ["validate", "chsh.scenario.json"], doc
    doc = json.loads((workdir / "pm_square.sicset.json").read_text())
    doc["mu"] = "1/0"
    return ["sic", "verify"], doc


@pytest.mark.parametrize("where", ["coef", "bound", "entry", "mu"])
def test_zero_denominator_exits_2(workdir, capsys, where):
    # Fraction("1/0") raises ZeroDivisionError: an input error naming the
    # file, not a crash
    argv, doc = _zero_denominator(workdir, where)
    (workdir / "bad.json").write_text(json.dumps(doc))
    code = main(argv + ["bad.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err and "ZeroDivisionError" in err and "Traceback" not in err
