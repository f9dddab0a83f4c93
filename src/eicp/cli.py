"""Command line workbench.

Exit codes: 0 success, 1 invalid input (malformed files, invalid instances,
failed verification, bad arguments), 2 a resource guard tripped, 3 two
independent computations of the same quantity disagreed.

Results are tab-separated lines on stdout; --json switches to a JSON object
and --out redirects the payload to a file. Where the library returns a
dataclass (a study's report, a code's decode report, an instance's class),
the JSON object holds its fields, in their order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import covers, experiments, graphs, minrank, model
from .codes import parse_code, transmissions_json, verify_code
from .errors import (
    ConsistencyError,
    EicpError,
    GenerationError,
    GuardExceededError,
    OracleExhaustedError,
)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _emit(args, payload, rows) -> None:
    """Write the payload as JSON under --json, else the rows as TSV."""
    _write(json.dumps(payload, indent=2) if args.json else _tsv(rows), args.out)


def _tsv(rows) -> str:
    return "\n".join("\t".join(str(v) for v in row) for row in rows)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _structure_row(label: str, w, demander) -> tuple:
    return (label, w.kind, _csv(w.msg_seq),
            demander[w.covering_user] if w.covering_user is not None else "-")


def _transmission_rows(code) -> list[tuple]:
    return [("transmission", t.user, _csv(t.coeffs.coords)) for t in code.transmissions]


def _load_instance(path: str, check: bool = True) -> model.EicpInstance:
    return model.parse_instance(Path(path).read_text(), check=check)


def _parse_users(raw: str | None):
    if raw is None:
        return None
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"--users expects comma-separated integers, got {raw!r}")


# ---------- handlers ----------

def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance, check=False)
    violations = model.validate(inst)
    flags = dataclasses.asdict(model.classify(inst))
    payload = {"valid": not violations, "violations": violations, **flags}
    rows = [("valid", _bool(not violations))]
    rows += [(k, _bool(v)) for k, v in flags.items()]
    rows += [("violation", v) for v in violations]
    _emit(args, payload, rows)
    return 0


def _cmd_minrank(args) -> int:
    inst = _load_instance(args.instance)
    if args.q_override is not None:
        inst = dataclasses.replace(inst, q=args.q_override)
    users = _parse_users(args.users)
    result = minrank.minrank_bnb(inst, users=users, node_limit=args.node_limit)
    oracle_kappa = None
    if args.oracle:
        oracle = minrank.minrank_oracle(inst, users=users)
        oracle_kappa = oracle.kappa
        if oracle.kappa != result.kappa:
            raise ConsistencyError(
                f"rank search found {result.kappa} but exhaustive code search "
                f"found {oracle.kappa}"
            )
    payload = {
        "kappa": result.kappa,
        "users": list(result.users),
        "witness": [list(row) for row in result.witness.rows],
        "transmissions": transmissions_json(result.code),
    }
    rows = [("kappa", result.kappa)]
    if oracle_kappa is not None:
        payload["oracle_kappa"] = oracle_kappa
        rows.append(("oracle_kappa", oracle_kappa))
    rows += [
        ("witness_row", u, _csv(row))
        for u, row in zip(result.users, result.witness.rows)
    ]
    rows += _transmission_rows(result.code)
    if args.stats:
        complexity = minrank.complexity_report(
            inst, users=users,
            candidate_sizes=result.stats["candidates_per_user"],
        )
        payload["stats"] = result.stats
        payload["complexity"] = complexity
        rows += [(k, v) for k, v in result.stats.items()
                 if k != "candidates_per_user"]
        rows += [(k, v) for k, v in complexity.items()
                 if k not in ("users", "filtered_candidates_per_user")]
    _emit(args, payload, rows)
    return 0


def _cmd_cover(args) -> int:
    inst = _load_instance(args.instance)
    build = covers.tree_cover if args.scheme == "tree" else covers.biclique_cover
    plan = build(inst, exact=args.exact)
    rows = [("scheme", plan.scheme), ("length", plan.counts["length"])]
    rows += [(k, v) for k, v in plan.counts.items() if k != "length"]
    rows += [(k, _bool(v)) for k, v in plan.flags.items()]
    rows += [_structure_row("structure", w, plan.demander) for w in plan.structures]
    rows += _transmission_rows(plan.code)
    _emit(args, plan.to_json_obj(), rows)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    code = parse_code(Path(args.code).read_text(), inst)
    report = verify_code(code, inst)
    rows = [("overall", _bool(report.overall)), ("length", report.length)]
    rows += [("user", u.user, _bool(u.decodable)) for u in report.per_user]
    rows += [("violation", v) for v in report.support_violations]
    _emit(args, dataclasses.asdict(report), rows)
    return 0 if report.overall else 1


def _cmd_gen(args) -> int:
    if args.kind == "uniform":
        inst = model.gen_random(args.users, args.messages, args.q,
                                args.density, args.seed)
    else:
        inst = model.gen_vanet(args.users, args.messages, args.q,
                               args.overlap, args.seed)
        if not graphs.is_connected(graphs.build_side_info_graph(inst)):
            raise GenerationError(
                f"vanet draw with seed {args.seed} is not connected; try another seed"
            )
    _write(model.serialize_instance(inst), args.out)
    return 0


def _cmd_structures(args) -> int:
    inst = _load_instance(args.instance)
    graph, demander = covers.demand_relabeling(inst)
    found = {
        "covered_pairs": graphs.find_covered_pairs(graph),
        "trees": graphs.search_regular_trees(graph),
        "cliques": graphs.search_bicliques(graph),
    }
    payload = {key: [w.to_json_obj(demander) for w in ws] for key, ws in found.items()}
    rows = [_structure_row(key, w, demander) for key, ws in found.items() for w in ws]
    _emit(args, payload, rows)
    return 0


def _cmd_experiment(args) -> int:
    runner = {
        "fig5": experiments.experiment_fig5,
        "theorem2": experiments.experiment_theorem2,
        "lemma-sweep": experiments.experiment_lemma_sweep,
    }[args.which]
    report = runner()
    rows = [report.columns, *report.rows, ("verdict", report.verdict)]
    _emit(args, dataclasses.asdict(report), rows)
    return 0 if report.verdict == "pass" else 3


# ---------- parser ----------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eicp",
        description="Exact solver and verification workbench for embedded index coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
        p.add_argument("--out", metavar="FILE", help="write the payload to FILE")

    p = sub.add_parser("validate", help="check an instance file and classify it")
    p.add_argument("instance")
    add_output_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("minrank", help="optimal scalar linear code length and a code")
    p.add_argument("instance")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exhaustive code search (exit 3 on mismatch)")
    p.add_argument("--stats", action="store_true", help="include search statistics")
    p.add_argument("--users", metavar="LIST",
                   help="comma-separated users that must decode (default: all)")
    p.add_argument("--node-limit", type=int, metavar="N",
                   help="search node budget (default 10^6)")
    p.add_argument("--q-override", type=int, metavar="Q",
                   help="solve over the field of order Q instead of the file's")
    add_output_flags(p)
    p.set_defaults(func=_cmd_minrank)

    p = sub.add_parser("cover", help="structure-cover scheme for a single unicast instance")
    p.add_argument("instance")
    p.add_argument("--scheme", choices=("tree", "biclique"), required=True)
    p.add_argument("--exact", action="store_true",
                   help="search all partitions instead of the greedy pass")
    add_output_flags(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", help="check a code file against an instance")
    p.add_argument("instance")
    p.add_argument("code")
    add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("kind", choices=("uniform", "vanet"))
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--messages", type=int, required=True)
    p.add_argument("--q", type=int, default=2, help="field order (default 2)")
    p.add_argument("--density", type=float, default=0.5,
                   help="edge probability for kind=uniform (default 0.5)")
    p.add_argument("--overlap", type=float, default=0.8,
                   help="shared fraction for kind=vanet (default 0.8)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="FILE", help="write the instance to FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("structures", help="list embedded structures of an instance")
    p.add_argument("instance")
    add_output_flags(p)
    p.set_defaults(func=_cmd_structures)

    p = sub.add_parser("experiment", help="run a built-in study")
    p.add_argument("which", choices=("fig5", "theorem2", "lemma-sweep"))
    add_output_flags(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except ConsistencyError as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return 3
    except (GuardExceededError, OracleExhaustedError, GenerationError) as e:
        print(f"guard: {e}", file=sys.stderr)
        return 2
    except (EicpError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
