"""Self-tests of the benchmark harness: statistics, checks, tracer, metric tables.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, leftover_wrappers, loaded_modules, read_spans  # noqa: E402


def _small_item(prog, key: str, ref_kappa):
    fixtures = workloads.load_fixtures(prog)
    inst = fixtures[key.split(":", 1)[1]]
    return workloads.Item(key, int(inst.q), lambda: workloads.solve_small(prog, inst),
                          lambda out: workloads.check_small(out, ref_kappa))


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(range(1, 101), 0.9) == 90
    assert metrics.tail_percentile(range(1, 100), 0.9) is None
    assert metrics.tail_percentile(range(10), 0.9) is None
    assert metrics.tail_percentile(range(1, 1001), 0.9) == 900
    assert metrics.tail_percentile([], 0.5) is None


def test_p90_reported_only_with_100_items():
    prog = run.load_program()
    item = _small_item(prog, "fixture:dense4", 3)
    outcome = run.run_items([item], 0)
    rows = run.end_to_end([item], outcome, [0.1, 0.2], [0.1, 0.2], 1024)
    assert "item_ms_p90" not in rows
    assert rows["failed_frac"][0] == 0


def test_wrong_kappa_counts_as_failure():
    prog = run.load_program()
    right = _small_item(prog, "fixture:dense4", 3)
    wrong = _small_item(prog, "fixture:dense4", 2)
    outcome = run.run_items([right, wrong], 0)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert any("!= reference 2" in e for e in outcome.errors)
    line = json.loads(run.result_line(outcome, {}, []))
    assert line["correct"] is False and line["failed"] == 1


def test_timed_run_scales_every_turn_by_the_probes_around_it():
    prog = run.load_program()
    item = _small_item(prog, "fixture:dense4", 3)
    outcome = run.run_items([item], 0.2)
    turns = len(outcome.ref[0])
    assert turns >= 2 and len(outcome.probes) >= turns + 1
    assert sum(len(t) for t in outcome.times) >= turns
    assert outcome.wall() > 0 and outcome.wall(raw=True) > 0
    assert abs(run.to_reference(3.0, [0.001, 0.003]) - 3.0) < 1e-12
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_exception_counts_as_failure():
    def boom():
        raise RuntimeError("guard")

    outcome = run.run_items([workloads.Item("x", None, boom, lambda out: [])], 0)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_wrappers_installed_everywhere_and_fully_removed(tmp_path):
    prog = run.load_program()
    before = {(name, attr): obj for name, mod in loaded_modules().items()
              for attr, obj in vars(mod).items()}
    field_order_new = prog.eicp.FieldOrder.__dict__["__new__"]
    item = _small_item(prog, "fixture:mixed4", 3)
    tracer = Tracer()
    tracer.install(workloads.LAYERS)
    try:
        # The defining module and every importer hold the same wrapper.
        minrank = sys.modules["eicp.minrank"]
        assert minrank.basis_insert is sys.modules["eicp.gf"].basis_insert is prog.eicp.basis_insert
        assert minrank.basis_insert is not before["eicp.gf", "basis_insert"]
        assert sys.modules["eicp.experiments"].minrank_bnb is prog.eicp.minrank_bnb
        outcome = run.run_items([item], 0, tracer)
    finally:
        tracer.uninstall()
    assert outcome.failed == 0
    assert leftover_wrappers() == []
    after = {(name, attr): obj for name, mod in loaded_modules().items()
             for attr, obj in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert prog.eicp.FieldOrder.__dict__["__new__"] is field_order_new

    layer = tracer.layer_metrics()
    assert layer["gf.basis_insert.calls"][0] > 0
    assert layer["gf.FieldOrder.calls"][0] > 0
    assert layer["minrank.oracle_subsets"][0] > 0
    assert 0 < layer["minrank.minrank_bnb.self_s"][0] <= layer["minrank.minrank_bnb.s"][0]

    path = tmp_path / "spans.bin"
    tracer.write_spans(path)
    spans = read_spans(path)
    assert len(spans["start_ns"]) == len(tracer.start)
    assert list(spans["parent"]) == list(tracer.parent)
    assert spans["names"] == tracer.names


def test_missing_stats_key_is_absent_not_zero():
    tracer = Tracer()
    full = {"nodes_explored": 5, "column_nodes_explored": 7, "column_pool_size": 3,
            "candidates_total": 9, "row_rank_bound": 3}
    renamed = {k: v for k, v in full.items() if k != "column_pool_size"}
    tracer.bnb_results = [(2, full), (3, renamed)]
    layer = tracer.layer_metrics()
    value, note = layer["minrank.stage2_pool"]
    assert value is None and "column_pool_size" in note
    assert layer["minrank.stage1_nodes"][0] == 10
    assert layer["minrank.stage2_improved_frac"][0] == 0.5
    tracer.oracle_stats = [{"pool_size": 4}]
    assert tracer.layer_metrics()["minrank.oracle_subsets"][0] is None
    line = json.loads(run.result_line(run.Outcome([[]], 1, 0), layer, ["minrank.stage2_pool"]))
    assert "minrank.stage2_pool" not in line["metrics"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m[:3]) for m in metrics.PER_LAYER]


def test_hard_solve_has_a_third_gap_instances():
    ref = json.loads(workloads.REFERENCE_PATH.read_text())["hard-solve"]
    gaps = [k for k, v in ref.items() if v["kappa"] < v["row_rank"]]
    assert len(ref) == len(workloads.HARD_CASES)
    assert 3 * len(gaps) >= len(ref)


def test_missing_reference_entry_counts_as_failure():
    prog = run.load_program()
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    cases = (("small-corpus", "fixture:dense4"), ("covers", "random_single_unicast(8,2,0.3,0)"))
    for workload, key in cases:
        del reference[workload][key]
        items = [i for i in workloads.build_items(prog, workload, 0, reference) if i.key == key]
        outcome = run.run_items(items, 0)
        assert (outcome.attempted, outcome.failed) == (1, 1)
        assert any(workloads.NO_REFERENCE in e for e in outcome.errors)


def test_function_missing_at_install_is_absent_not_zero():
    prog = run.load_program()
    gf = sys.modules["eicp.gf"]
    in_span = gf.in_span
    del gf.in_span
    tracer = Tracer()
    try:
        tracer.install(workloads.LAYERS)
    finally:
        tracer.uninstall()
        gf.in_span = in_span
    layer = tracer.layer_metrics()
    for name in ("gf.in_span.calls", "gf.in_span.s"):
        value, note = layer[name]
        assert value is None and "gf.in_span" in note
    assert layer["gf.rank.calls"] == (0, "")
    assert prog.eicp.in_span is in_span
