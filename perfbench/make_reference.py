"""Build perfbench/reference.json, the pinned answers every run is checked against.

    python3 perfbench/make_reference.py

Records kappa for every small-corpus and hard-solve input, confirmed by
minrank_oracle wherever it finishes within ORACLE_BUDGET subsets; the greedy
and exact tree and biclique cover lengths of every covers input; and the
verdict and rows of each study. The seed only orders the items, so one table
serves every seed. Run it only on a
commit whose answers are trusted: the reference is what later commits must
reproduce.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

ORACLE_BUDGET = 2 * 10 ** 6


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def confirmed_kappa(prog, key: str, inst, budget: int | None = None) -> dict:
    E = prog.eicp
    bnb = E.minrank_bnb(inst)
    entry = {"kappa": bnb.kappa, "row_rank": bnb.stats["row_rank_bound"]}
    try:
        oracle = E.minrank_oracle(inst) if budget is None else E.minrank_oracle(inst, budget=budget)
    except E.GuardExceededError:
        entry["oracle_confirmed"] = False
    else:
        if oracle.kappa != bnb.kappa:
            raise SystemExit(f"{key}: oracle kappa {oracle.kappa} != branch and bound {bnb.kappa}")
        entry["oracle_confirmed"] = True
    log(f"{key}: {entry}")
    return entry


def main() -> int:
    prog = run.load_program()
    fixtures = workloads.load_fixtures(prog)
    ref: dict = {}

    ref["small-corpus"] = {key: confirmed_kappa(prog, key, inst)
                           for key, inst in workloads.small_bases(prog, fixtures)}
    ref["hard-solve"] = {key: confirmed_kappa(prog, key, inst, ORACLE_BUDGET)
                         for key, inst in workloads.hard_bases(prog, fixtures)}

    covers = {}
    for key, inst in workloads.covers_bases(prog):
        covers[key] = workloads.cover_lengths(workloads.cover_all(prog, inst))
        log(f"{key}: {covers[key]}")
    ref["covers"] = covers

    studies = {}
    for name in workloads.STUDIES:
        report = workloads.run_study(prog, name)
        studies[name] = {"verdict": report.verdict,
                         "rows": json.loads(json.dumps(list(report.rows)))}
        log(f"{name}: {report.verdict}, {len(report.rows)} rows")
    ref["studies"] = studies

    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
