"""The `atlas` command line front end.

Every subcommand reads JSON files, runs one toolkit operation and prints
a single JSON report to stdout. Reports embed the tool version, the
effective configuration and the seed, and use sorted keys, so identical
invocations produce byte-identical output. Exit codes: 0 success, 2
invalid input, 3 budget or convergence failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .errors import AtlasError, InvalidLimit, ResourceError, UsageError, ValidationError
from .polytope import DEFAULT_BUDGET

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(flag, least):
    """argparse type for flag: an int; one below least raises InvalidLimit
    (exit 2), since no input could fit it."""
    def parse(text):
        value = int(text)
        if value < least:
            raise InvalidLimit(f"{flag} must be >= {least}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _load(path, parse):
    """parse(JSON content of path); a missing, non-JSON or wrongly shaped
    file, or one holding a zero denominator, raises ValidationError
    naming it."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        raise ValidationError(
            f"{path}: malformed input ({type(exc).__name__}: {exc})") from None


def _report(command, config, result, seed=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "ksatlas",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "result": result,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))


def _scenario(path):
    from .scenario import Scenario
    return _load(path, Scenario.from_json)


def _inequality(scenario, path):
    """The parsed file; the library call it feeds checks the terms first."""
    from .scenario import Inequality
    return _load(path, lambda data: Inequality.from_json(scenario, data))


def cmd_validate(args):
    from .scenario import Behavior, validate_behavior
    s = _scenario(args.scenario)
    b = _load(args.behavior, lambda data: Behavior.from_json(s, data))
    rep = validate_behavior(s, b, tol=args.tol)
    _report("validate", {"tol": args.tol, "mode": b.mode}, rep.to_json(s))
    return 0 if rep.ok else 2


def cmd_bound(args):
    from .polytope import classical_bound
    from .scenario import frac_str
    s = _scenario(args.scenario)
    ineq = _inequality(s, args.inequality)
    value = classical_bound(ineq, s, budget=args.budget)
    _report("bound", {"budget": args.budget},
            {"classical_bound": frac_str(value),
             "stored_bound": frac_str(ineq.bound),
             "matches_stored": value == ineq.bound})
    return 0


def cmd_tight(args):
    from .polytope import tightness_test
    s = _scenario(args.scenario)
    ineq = _inequality(s, args.inequality)
    rep = tightness_test(ineq, s, budget=args.budget)
    _report("tight", {"budget": args.budget}, rep.to_json())
    return 0


def cmd_member(args):
    from .polytope import membership_test
    from .scenario import Behavior
    s = _scenario(args.scenario)
    b = _load(args.behavior, lambda data: Behavior.from_json(s, data))
    res = membership_test(b, s, tol=args.tol, budget=args.budget)
    _report("member", {"tol": args.tol, "budget": args.budget}, res.to_json(s))
    return 0


def cmd_graph(args):
    from .graphs import (Graph, contextuality_ratio, find_n_partition,
                         independence_number, lovasz_theta)
    g = _load(args.graph, Graph.from_json)
    if args.what == "alpha":
        result = {"alpha": independence_number(g, size_limit=args.limit)}
    elif args.what == "theta":
        lo, hi = lovasz_theta(g, tol=args.tol, size_limit=args.limit)
        result = {"theta": [lo, hi], "width": hi - lo}
    elif args.what == "ratio":
        inv = contextuality_ratio(g, tol=args.tol, size_limit=args.limit)
        result = inv.to_json()
    else:
        part = find_n_partition(g, args.n)
        if part is None:
            result = {"partition": None}
        else:
            result = {"partition": part.to_json(),
                      "undersized_parts": part.undersized_parts()}
    _report("graph", {"what": args.what, "tol": args.tol, "n": args.n,
                      "limit": args.limit}, result)
    return 0


def cmd_qvalue(args):
    from .quantum import seesaw_max
    s = _scenario(args.scenario)
    ineq = _inequality(s, args.inequality)
    res = seesaw_max(ineq, s, dim=args.dim, restarts=args.restarts,
                     iters=args.iters, seed=args.seed)
    out = res.to_json(s)
    if not args.model:
        out.pop("model")
    _report("qvalue", {"dim": args.dim, "restarts": args.restarts,
                       "iters": args.iters}, out, seed=args.seed)
    return 0 if res.converged else 3


def cmd_dilate(args):
    import numpy as np
    from .quantum import mat_from_json, mat_to_json, neumark_dilation
    effects = _load(args.povm, lambda data: [mat_from_json(e) for e in data["effects"]])
    dil = neumark_dilation(effects)
    viso = dil.isometry
    residual = float(np.abs(viso.conj().T @ viso - np.eye(viso.shape[1])).max())
    _report("dilate", {},
            {"input_dim": viso.shape[1],
             "dilated_dim": dil.dilated_dim,
             "blocks": [list(b) for b in dil.blocks],
             "isometry": mat_to_json(viso),
             "isometry_residual": residual})
    return 0


def cmd_sic(args):
    from .quantum import SICSet, criticality_check, verify_sic
    sic = _load(args.sicset, SICSet.from_json)
    if args.what == "verify":
        rep = verify_sic(sic, sample_states=args.samples, seed=args.seed)
        _report("sic", {"what": "verify", "samples": args.samples},
                rep.to_json(), seed=args.seed)
        return 0 if rep.is_sic else 2
    critical, breaks = criticality_check(sic, sample_states=args.samples,
                                         seed=args.seed)
    _report("sic", {"what": "critical", "samples": args.samples},
            {"critical": critical,
             "removal_breaks_sic": {
                 sic.scenario.measurements[k]: bool(b)
                 for k, b in enumerate(breaks)}},
            seed=args.seed)
    return 0


def cmd_map(args):
    from .bridge import map_report
    from .graphs import Partition
    s = _scenario(args.scenario)
    ineq = _inequality(s, args.inequality)
    part = _load(args.partition, Partition.from_json) if args.partition else None
    rep = map_report(s, ineq, partition=part, with_quantum=args.quantum,
                     dim=args.dim, restarts=args.restarts, seed=args.seed,
                     budget=args.budget)
    _report("map", {"quantum": args.quantum, "dim": args.dim,
                    "restarts": args.restarts, "budget": args.budget},
            rep.to_json(), seed=args.seed)
    return 0


def cmd_examples(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    def dump(name, payload):
        path = out / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written[name] = str(path)

    if args.which == "pearle":
        from .bridge import pearle_hexagon
        px = pearle_hexagon()
        dump("pearle.scenario.json", px.scenario.to_json())
        dump("pearle.gamma.json", px.gamma.to_json(px.scenario))
        dump("pearle.partition.json", px.partition.to_json())
        dump("pearle.bell_scenario.json", px.bell_scenario.to_json())
        dump("pearle.gamma_prime.json", px.gamma_prime.to_json(px.bell_scenario))
    elif args.which == "ncycle":
        from .bridge import n_cycle
        s, ineq = n_cycle(args.n)
        dump(f"ncycle{args.n}.scenario.json", s.to_json())
        dump(f"ncycle{args.n}.inequality.json", ineq.to_json(s))
    elif args.which == "chsh":
        from .bridge import chsh_example
        s, ineq = chsh_example()
        dump("chsh.scenario.json", s.to_json())
        dump("chsh.inequality.json", ineq.to_json(s))
    else:
        from .bridge import pm_square
        sic = pm_square()
        dump("pm_square.sicset.json", sic.to_json())
        dump("pm_square.scenario.json", sic.scenario.to_json())
        dump("pm_square.witness.json", sic.witness.to_json(sic.scenario))
    _report("examples", {"which": args.which, "n": args.n, "out": str(out)},
            {"written": written})
    return 0


@functools.cache  # parse_args keeps no state and every default is immutable
def build_parser():
    p = _Parser(prog="atlas", description=__doc__)
    p.add_argument("--version", action="version", version=f"ksatlas {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a behavior file against a scenario")
    q.add_argument("scenario")
    q.add_argument("behavior")
    q.add_argument("--tol", type=float, default=None)
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("bound", help="exact classical bound of an inequality")
    q.add_argument("scenario")
    q.add_argument("inequality")
    q.add_argument("--budget", type=_count("--budget", 0), default=DEFAULT_BUDGET,
                   help="max entries of the largest elimination table")
    q.set_defaults(fn=cmd_bound)

    q = sub.add_parser("tight", help="facet verdict for an inequality")
    q.add_argument("scenario")
    q.add_argument("inequality")
    q.add_argument("--budget", type=_count("--budget", 0), default=DEFAULT_BUDGET,
                   help="max elimination-table entries, coordinates and face vertices")
    q.set_defaults(fn=cmd_tight)

    q = sub.add_parser("member", help="membership in the classical polytope")
    q.add_argument("scenario")
    q.add_argument("behavior")
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--budget", type=_count("--budget", 0), default=DEFAULT_BUDGET,
                   help="max deterministic assignments to enumerate")
    q.set_defaults(fn=cmd_member)

    q = sub.add_parser("graph", help="graph invariants")
    q.add_argument("what", choices=["alpha", "theta", "ratio", "partition"])
    q.add_argument("graph")
    q.add_argument("--n", type=_count("--n", 1), default=2)
    q.add_argument("--tol", type=float, default=1e-6)
    q.add_argument("--limit", type=_count("--limit", 0), default=64)
    q.set_defaults(fn=cmd_graph)

    q = sub.add_parser("qvalue", help="seesaw lower bound on the quantum value")
    q.add_argument("scenario")
    q.add_argument("inequality")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--restarts", type=int, default=20)
    q.add_argument("--iters", type=_count("--iters", 1), default=300)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--model", action="store_true", help="include the model in the report")
    q.set_defaults(fn=cmd_qvalue)

    q = sub.add_parser("dilate", help="Neumark dilation of a POVM")
    q.add_argument("povm")
    q.set_defaults(fn=cmd_dilate)

    q = sub.add_parser("sic", help="state-independent witness sets")
    q.add_argument("what", choices=["verify", "critical"])
    q.add_argument("sicset")
    q.add_argument("--samples", type=_count("--samples", 0), default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_sic)

    q = sub.add_parser("map", help="run the applicable scenario conversion")
    q.add_argument("scenario")
    q.add_argument("inequality")
    q.add_argument("--partition", default=None)
    q.add_argument("--quantum", action="store_true")
    q.add_argument("--dim", type=int, default=2)
    q.add_argument("--restarts", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=_count("--budget", 0), default=DEFAULT_BUDGET,
                   help="max elimination-table entries, coordinates and face vertices")
    q.set_defaults(fn=cmd_map)

    q = sub.add_parser("examples", help="write canned example files")
    q.add_argument("which", choices=["pearle", "ncycle", "chsh", "pm-square"])
    q.add_argument("--n", type=int, default=6)
    q.add_argument("--out", default=".")
    q.set_defaults(fn=cmd_examples)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
