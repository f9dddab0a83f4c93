"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-corpus --seed 0 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next item starts
when the previous one has finished. The run times every item, checks its
answer against perfbench/reference.json outside the timed region, prints a
report of every metric by name with its unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures for --seconds: one full pass over the items, then further
rounds in order, skipping an item once its last time no longer fits in the
time left, until none fits. An item shorter than BATCH_S runs back to back
until its turn has taken BATCH_S. A probe of fixed work runs between set-ups,
between item turns and every hostspeed.TICK_S inside them, and every timing
is reported in reference seconds, scaled by the probe times over it (see
hostspeed.py), because a shared host's speed drifts by more than any bound
the benchmark could set; an item's time is the mean over its turns, and the
raw figures are printed too.

--trace 1 makes an untraced pass, a pass with spans around the public
functions of every layer, and another untraced pass, and prints the per-layer
metrics plus the tracing overhead (traced wall_s minus untraced wall_s). Spans are written to
.perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
BATCH_S = 0.05

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Probes, probe, to_reference  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Outcome:
    times: list[list[float]]  # per item, raw seconds of every run
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # Per item, each turn's mean run in reference seconds; None when the runs
    # were not timed against the probe (traced passes).
    ref: list[list[float]] | None = None
    probes: list[float] = field(default_factory=list)

    def per_item(self, raw: bool = False) -> list[float | None]:
        runs = self.times if raw or self.ref is None else self.ref
        return [statistics.fmean(t) if t else None for t in runs]

    def wall(self, select=lambda i: True, raw: bool = False) -> float:
        return sum(v for i, v in enumerate(self.per_item(raw)) if v is not None and select(i))


def load_program():
    """Import eicp from the checkout's src/ only, never from anywhere else."""
    if not (SRC / "eicp" / "__init__.py").is_file():
        raise BenchError(f"no eicp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    prog = workloads.Program.load()
    if Path(prog.eicp.__file__).resolve().parent != SRC / "eicp":
        raise BenchError(f"imported eicp from {prog.eicp.__file__}, not from {SRC}")
    return prog


def purge_program() -> None:
    for name in [n for n in sys.modules if n == "eicp" or n.startswith("eicp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()


def set_up(workload: str, seed: int):
    """Import eicp, parse the fixtures, generate the items, load the reference."""
    prog = load_program()
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    return prog, workloads.build_items(prog, workload, seed, reference)


def timed_setups(workload: str, seed: int, repeats: int):
    """Raw and reference set-up times of `repeats` fresh imports, and the last
    set-up's program and items."""
    raw, ref = [], []
    before = probe()
    for _ in range(repeats):
        purge_program()
        t0 = time.perf_counter()
        prog, items = set_up(workload, seed)
        raw.append(time.perf_counter() - t0)
        after = probe()
        ref.append(to_reference(raw[-1], [before, after]))
        before = after
    return raw, ref, prog, items


def run_one(item, outcome: Outcome, idx: int, probes: Probes | None) -> bool:
    """Run and check one item, leaving out of its time the probes inside it;
    False if it failed."""
    outcome.attempted += 1
    spent = probes.spent if probes else 0.0
    t0 = time.perf_counter()
    try:
        out = item.run()
    except Exception as e:  # any exception, guard trips included, fails the item
        outcome.failed += 1
        outcome.errors.append(f"{item.key}: {type(e).__name__}: {e}")
        return False
    elapsed = time.perf_counter() - t0
    outcome.times[idx].append(elapsed - (probes.spent - spent if probes else 0.0))
    errors = item.check(out)
    if errors:
        outcome.failed += 1
        outcome.errors.extend(f"{item.key}: {err}" for err in errors)
    return not errors


def run_batch(item, outcome: Outcome, idx: int, batch_s: float,
              probes: Probes | None) -> None:
    """Run an item back to back until the runs have taken batch_s, at least once."""
    spent = 0.0
    while run_one(item, outcome, idx, probes):
        spent += outcome.times[idx][-1]
        if spent >= batch_s:
            break


def close_turn(outcome: Outcome, turn, probes: Probes) -> None:
    """Scale a turn's mean run by the probes from just before it to just after it."""
    idx, first_run, first_probe = turn
    runs = outcome.times[idx][first_run:]
    if runs:
        outcome.ref[idx].append(
            to_reference(statistics.fmean(runs), probes.times[first_probe:]))


def run_items(items, seconds: float, tracer: Tracer | None = None) -> Outcome:
    """One full pass, then more rounds in order, skipping items that no longer
    fit in `seconds` by their last time, until none fits. With seconds > 0 an
    item's turn is a batch of BATCH_S, timed against the probe; with 0 it is
    one run and there is no probe, so that a traced pass makes the same calls
    every time."""
    timed = seconds > 0
    probes = Probes() if timed else None
    outcome = Outcome([[] for _ in items], ref=[[] for _ in items] if timed else None)
    with probes or contextlib.nullcontext():
        _run_rounds(items, seconds, outcome, tracer, probes)
    if probes:
        outcome.probes = probes.times
    return outcome


def _run_rounds(items, seconds: float, outcome: Outcome, tracer: Tracer | None,
                probes: Probes | None) -> None:
    batch_s = BATCH_S if probes else 0.0
    turn = None
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        idx = k % len(items)
        if k >= len(items):
            left = deadline - time.perf_counter()
            fits = [bool(t) and t[-1] <= left for t in outcome.times]
            if not any(fits):
                break
            if not fits[idx]:
                k += 1
                continue
        if tracer is not None:
            tracer.item_id = k
        if probes:
            probes.take()
            if turn is not None:
                close_turn(outcome, turn, probes)
            turn = (idx, len(outcome.times[idx]), len(probes.times) - 1)
        run_batch(items[idx], outcome, idx, batch_s, probes)
        k += 1
    if turn is not None:
        probes.take()
        close_turn(outcome, turn, probes)


def end_to_end(items, outcome: Outcome, setup_raw: list[float], setup_ref: list[float],
               peak_rss_kb: int) -> dict[str, tuple[float | None, str]]:
    """Timings in reference seconds (hostspeed.py) when the runs were timed
    against the probe, each note giving the raw figure."""
    scaled = outcome.ref is not None
    unit = "reference" if scaled else "raw"

    def timing(value, raw, per: float, note: str) -> tuple[float, str]:
        return per * value, f"{note}; raw {per * raw:.6g}" if scaled else note

    def p50_p90(raw: bool):
        values = [v for v in outcome.per_item(raw) if v is not None]
        p90 = metrics.tail_percentile(values, 0.9) if len(items) >= 100 else None
        return (statistics.median(values) if values else None), p90, len(values)

    p50, p90, n_items = p50_p90(False)
    p50_raw, p90_raw, _ = p50_p90(True)
    n_runs = sum(len(t) for t in outcome.times)
    out = {
        "setup_s": timing(statistics.median(setup_ref), statistics.median(setup_raw), 1,
                          f"median of {len(setup_ref)} set-ups, half before and half after the "
                          "runs, in reference seconds"),
        "wall_s": timing(outcome.wall(), outcome.wall(raw=True), 1,
                         f"sum over {n_items} items of each item's mean run, in {unit} seconds"),
        "item_ms_p50": (timing(p50, p50_raw, 1e3, f"median over {n_items} items, {n_runs} runs")
                        if p50 is not None else (None, "no item finished")),
        "peak_rss_mb": (peak_rss_kb / 1024, "ru_maxrss after the runs"),
        "failed_frac": (outcome.failed / outcome.attempted,
                        f"{outcome.failed} of {outcome.attempted} runs"),
        "host_probe_ms": ((1e3 * statistics.fmean(outcome.probes),
                           f"mean of {len(outcome.probes)} probe runs")
                          if scaled else (None, "the untimed passes of a traced run have no probe")),
    }
    if p90 is not None:
        out["item_ms_p90"] = timing(p90, p90_raw, 1e3, f"nearest rank over {n_items} items")
    qs = {item.q for item in items}
    if qs >= {2, 3}:
        for q in (2, 3):
            members = [i for i, item in enumerate(items) if item.q == q]
            out[f"q{q}_wall_s"] = timing(outcome.wall(lambda i: items[i].q == q),
                                         outcome.wall(lambda i: items[i].q == q, raw=True), 1,
                                         f"{len(members)} items over F_{q}")
    return out


def traced_run(items, prog, workload: str, seed: int):
    """Untraced pass, traced pass, untraced pass; per-layer metrics from the traced one."""
    before = run_items(items, 0)
    tracer = Tracer()
    tracer.install(workloads.LAYERS)
    try:
        traced_items = workloads.build_items(
            prog, workload, seed, json.loads(workloads.REFERENCE_PATH.read_text()))
        traced = run_items(traced_items, 0, tracer)
    finally:
        tracer.uninstall()
    leftover = leftover_wrappers()
    if leftover:
        raise BenchError(f"wrappers left installed: {leftover}")
    after = run_items(items, 0)
    untraced = Outcome([b + a for b, a in zip(before.times, after.times)],
                       before.attempted + after.attempted, before.failed + after.failed,
                       before.errors + after.errors)
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = (
        traced.wall() - untraced.wall(),
        f"traced wall_s {traced.wall():.4f} s - untraced wall_s {untraced.wall():.4f} s "
        "(each item's mean of its untraced runs before and after), raw seconds")
    path = OUT_DIR / f"spans-{workload}.bin"
    tracer.write_spans(path)
    print(f"# {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    combined = Outcome(untraced.times, untraced.attempted + traced.attempted,
                       untraced.failed + traced.failed, untraced.errors + traced.errors)
    return combined, layer


def report(title: str, rows: dict[str, tuple[float | None, str]]) -> None:
    print(f"# {title}")
    for name in [n for n in metrics.UNITS if n in rows]:
        value, note = rows[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {metrics.UNITS[name]:6s} {note}")


def result_line(outcome: Outcome, rows: dict, wanted) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": rows[name][0], "unit": metrics.UNITS[name]}
                    for name in wanted if rows.get(name, (None,))[0] is not None},
    })


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_raw, setup_ref, prog, items = timed_setups(args.workload, args.seed, SETUP_REPEATS)
        if args.trace:
            outcome, layer = traced_run(items, prog, args.workload, args.seed)
        else:
            outcome, layer = run_items(items, args.seconds), {}
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # A second half of the set-ups after the runs, so that setup_s samples
        # the host at both ends of the run and not only at its start.
        raw, ref, _prog, _items = timed_setups(args.workload, args.seed, SETUP_REPEATS)
        setup_raw += raw
        setup_ref += ref
    except (BenchError, ImportError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    rows = end_to_end(items, outcome, setup_raw, setup_ref, peak_rss_kb)
    passes = max(len(t) for t in outcome.times)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(items)} items, up to {passes} runs each, "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    for err in outcome.errors[:20]:
        print(f"# FAILED {err}")
    report("end to end", rows)
    if args.trace:
        report("per layer (traced pass)", layer)
        print(result_line(outcome, layer, [m[0] for m in metrics.PER_LAYER]))
    else:
        print(result_line(outcome, rows, [m[0] for m in metrics.END_TO_END]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
