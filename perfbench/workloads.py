"""The four benchmark workloads: their inputs, one item's work, and its checks.

An item is one instance or one study. Each workload builds its items from a
seed and calls the program only through its public functions, looked up on
the module objects at call time so that a traced run sees every call.

The seed only shuffles the item order; the instances keep their generators'
labels. Relabelling users or messages reorders the stage-one search, the
candidate rows and the oracle's column pool: at this commit it moved the
hard-solve stage-one node count by up to 2x between seeds, which a benchmark
must not mistake for a change of the program. So every seed runs the same
work, and the reference pins every answer for every seed.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("small-corpus", "hard-solve", "studies", "covers")
LAYERS = ("gf", "model", "graphs", "codes", "minrank", "covers", "experiments")
INSTANCE_FIXTURES = ("dense4", "mixed4", "seven_user")

# small-corpus: (n, q, density) strata, SMALL_PER_STRATUM gen_random seeds each.
SMALL_STRATA = tuple(
    [(n, 2, d) for n in (4, 5, 6) for d in (0.3, 0.5)]
    + [(n, 3, d) for n in (4, 5) for d in (0.3, 0.5)]
)
SMALL_PER_STRATUM = 10

# hard-solve: (generator, args), each 0.25-1 s on a 2-core Xeon VM, so that a
# pass takes about 7 s and every item runs about four times in a 30 s run.
# Five of the twelve have kappa below the stage-one row rank (see
# reference.json, "row_rank"); the vanet items spend more nodes in stage one
# than in stage two.
HARD_CASES = (
    ("gen_random", (7, 7, 2, 0.5, 0)),
    ("gen_random", (7, 7, 2, 0.5, 1)),
    ("gen_random", (6, 6, 3, 0.5, 0)),
    ("gen_random", (6, 6, 3, 0.5, 1)),
    ("regular_tree_instance", (8,)),
    ("gen_vanet", (7, 7, 2, 0.7, 0)),
    ("gen_vanet", (7, 7, 2, 0.7, 1)),
    ("fixture", ("seven_user",)),
    ("gen_random", (7, 7, 2, 0.5, 2)),
    ("gen_random", (6, 6, 3, 0.4, 1)),
    ("gen_random", (7, 7, 2, 0.5, 4)),
    ("gen_random", (6, 6, 3, 0.5, 2)),
)

STUDIES = ("experiment_fig5", "experiment_lemma_sweep", "experiment_theorem2")

# covers: random_single_unicast at q = 2, COVERS_PER_STRATUM seeds per (n, density).
COVERS_STRATA = tuple((n, d) for n in (8, 10, 12) for d in (0.3, 0.5))
COVERS_PER_STRATUM = 2
COVER_SCHEMES = (("tree", "tree_cover"), ("biclique", "biclique_cover"))


@dataclass
class Item:
    """One unit of work. `key` names the base input in the reference."""

    key: str
    q: int | None
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Program:
    """The loaded package and the modules the workloads call into."""

    eicp: Any
    experiments: Any

    @classmethod
    def load(cls) -> "Program":
        return cls(importlib.import_module("eicp"), importlib.import_module("eicp.experiments"))


def _fmt_args(args) -> str:
    return ",".join(str(a) for a in args)


def load_fixtures(prog: Program) -> dict:
    return {
        name: prog.eicp.parse_instance((FIXTURE_DIR / f"{name}.json").read_text())
        for name in INSTANCE_FIXTURES
    }


def small_bases(prog: Program, fixtures: dict) -> list[tuple[str, Any]]:
    """(key, instance) for the 103 small-corpus inputs."""
    out = [(f"fixture:{name}", fixtures[name]) for name in INSTANCE_FIXTURES]
    for n, q, d in SMALL_STRATA:
        for k in range(SMALL_PER_STRATUM):
            args = (n, n, q, d, k)
            out.append((f"gen_random({_fmt_args(args)})", prog.eicp.gen_random(*args)))
    return out


def hard_bases(prog: Program, fixtures: dict) -> list[tuple[str, Any]]:
    out = []
    for gen, args in HARD_CASES:
        if gen == "fixture":
            out.append((f"fixture:{args[0]}", fixtures[args[0]]))
        elif gen == "regular_tree_instance":
            out.append((f"{gen}({_fmt_args(args)})", prog.experiments.regular_tree_instance(*args)))
        else:
            out.append((f"{gen}({_fmt_args(args)})", getattr(prog.eicp, gen)(*args)))
    return out


def covers_bases(prog: Program) -> list[tuple[str, Any]]:
    out = []
    for n, d in COVERS_STRATA:
        for k in range(COVERS_PER_STRATUM):
            args = (n, 2, d, k)
            out.append((f"random_single_unicast({_fmt_args(args)})",
                        prog.experiments.random_single_unicast(*args)))
    return out


# ---------- one item's work ----------

def solve_small(prog: Program, inst):
    E = prog.eicp
    bnb = E.minrank_bnb(inst)
    report = E.verify_code(bnb.code, inst)
    oracle = E.minrank_oracle(inst)
    return bnb, report, oracle


def solve_hard(prog: Program, inst):
    E = prog.eicp
    bnb = E.minrank_bnb(inst)
    return bnb, E.verify_code(bnb.code, inst)


def cover_all(prog: Program, inst):
    """{(scheme, exact): (plan, report)} for greedy and exact tree and biclique covers."""
    E = prog.eicp
    out = {}
    for scheme, fn in COVER_SCHEMES:
        for exact in (False, True):
            plan = getattr(E, fn)(inst, exact=exact)
            out[scheme, exact] = (plan, E.verify_code(plan.code, inst))
    return out


def run_study(prog: Program, name: str):
    return getattr(prog.experiments, name)()


# ---------- checks, run outside the timed region ----------

# A reference entry that is not there fails the item: the reference pins
# kappa, every cover length and the study rows of every item.
NO_REFERENCE = "no reference entry"


def check_solve(bnb, report, ref_kappa: int | None) -> list[str]:
    errors = []
    if not report.overall:
        errors.append("verify_code rejected the branch-and-bound code")
    if bnb.code.length != bnb.kappa:
        errors.append(f"code length {bnb.code.length} != kappa {bnb.kappa}")
    if ref_kappa is None:
        errors.append(f"{NO_REFERENCE} for kappa")
    elif bnb.kappa != ref_kappa:
        errors.append(f"kappa {bnb.kappa} != reference {ref_kappa}")
    return errors


def check_small(out, ref_kappa: int | None) -> list[str]:
    bnb, report, oracle = out
    errors = check_solve(bnb, report, ref_kappa)
    if oracle.kappa != bnb.kappa:
        errors.append(f"oracle kappa {oracle.kappa} != branch-and-bound kappa {bnb.kappa}")
    return errors


def cover_lengths(out) -> dict[str, int]:
    """{"tree": n, "tree_exact": n, ...} read off the plans."""
    return {
        f"{scheme}_exact" if exact else scheme: plan.code.length
        for (scheme, exact), (plan, _report) in out.items()
    }


def check_covers(out, ref_lengths: dict | None) -> list[str]:
    errors = [f"verify_code rejected the {scheme}{' exact' if exact else ''} cover code"
              for (scheme, exact), (_plan, report) in out.items() if not report.overall]
    lengths = cover_lengths(out)
    for scheme, _fn in COVER_SCHEMES:
        if lengths[f"{scheme}_exact"] > lengths[scheme]:
            errors.append(f"exact {scheme} cover {lengths[scheme + '_exact']} "
                          f"longer than greedy {lengths[scheme]}")
    if ref_lengths is None:
        errors.append(f"{NO_REFERENCE} for the cover lengths")
    else:
        for name, have in lengths.items():
            want = ref_lengths.get(name)
            if have != want:
                errors.append(f"{name} cover length {have} != reference {want}")
    return errors


def check_study(report, ref: dict | None) -> list[str]:
    errors = []
    if report.verdict != "pass":
        errors.append(f"{report.name} verdict {report.verdict}")
    if ref is None:
        errors.append(f"{NO_REFERENCE} for {report.name}")
    else:
        if report.verdict != ref["verdict"]:
            errors.append(f"{report.name} verdict {report.verdict} != reference {ref['verdict']}")
        if json.loads(json.dumps(list(report.rows))) != ref["rows"]:
            errors.append(f"{report.name} rows differ from the reference")
    return errors


# ---------- building a workload ----------

def build_items(prog: Program, workload: str, seed: int, reference: dict) -> list[Item]:
    """The seeded items of one workload, in run order, each with its checks."""
    fixtures = load_fixtures(prog)
    items: list[Item] = []
    if workload == "small-corpus":
        ref = reference.get("small-corpus", {})
        for key, inst in small_bases(prog, fixtures):
            items.append(Item(
                key, int(inst.q),
                lambda inst=inst: solve_small(prog, inst),
                lambda out, k=ref.get(key, {}).get("kappa"): check_small(out, k),
            ))
    elif workload == "hard-solve":
        ref = reference.get("hard-solve", {})
        for key, inst in hard_bases(prog, fixtures):
            items.append(Item(
                key, int(inst.q),
                lambda inst=inst: solve_hard(prog, inst),
                lambda out, k=ref.get(key, {}).get("kappa"): check_solve(*out, k),
            ))
    elif workload == "studies":
        ref = reference.get("studies", {})
        for name in STUDIES:
            items.append(Item(
                f"study:{name}", None,
                lambda name=name: run_study(prog, name),
                lambda out, r=ref.get(name): check_study(out, r),
            ))
    elif workload == "covers":
        ref = reference.get("covers", {})
        for key, inst in covers_bases(prog):
            items.append(Item(
                key, int(inst.q),
                lambda inst=inst: cover_all(prog, inst),
                lambda out, r=ref.get(key): check_covers(out, r),
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"perfbench:{workload}:{seed}").shuffle(items)
    return items
