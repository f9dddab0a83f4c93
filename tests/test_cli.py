"""Command line behavior: outputs, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import eicp.cli
import eicp.covers
import eicp.minrank
from eicp.cli import main
from eicp.experiments import random_single_unicast, regular_tree_instance
from eicp.minrank import MinrankResult
from eicp.model import serialize_instance

from conftest import fixture_path


MIXED4 = str(fixture_path("mixed4.json"))
DENSE4 = str(fixture_path("dense4.json"))
SEVEN = str(fixture_path("seven_user.json"))
MIXED4_CODE = str(fixture_path("mixed4_code.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", MIXED4)
    assert code == 0
    assert "valid\ttrue" in out
    assert "single_unicast\ttrue" in out


def test_validate_reports_violations_as_data(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "q": 2, "num_users": 2, "num_messages": 2,
        "side_info": [[1, 2], [1]], "demands": [2, 2]}))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 0
    assert "valid\tfalse" in out
    assert "violation" in out


def _unheld_tail(tmp_path):
    # 98 bytes naming 10^11 messages, of which the users hold only 1 and 2.
    path = tmp_path / "unheld.json"
    path.write_text(json.dumps({
        "q": 2, "num_users": 2, "num_messages": 10 ** 11,
        "side_info": [[2], [1]], "demands": [1, 2]}))
    return str(path)


def test_validate_reports_an_unheld_tail_as_one_violation(capsys, tmp_path):
    code, out, err = run(capsys, "validate", _unheld_tail(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "valid\tfalse", "single_unicast\tfalse", "single_uniprior\ttrue",
        "violation\tmessages 3-100000000000 are held by no user",
    ]


def test_minrank_rejects_an_unheld_tail_with_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, "minrank", _unheld_tail(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_validate_malformed_file(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["validate"], ["verify", MIXED4]], ids=["validate", "verify"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, argv):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    code, out, err = run(capsys, *argv, str(nested))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/instance.json")
    assert code == 1
    assert err.startswith("error:")


def test_minrank_basic(capsys):
    code, out, err = run(capsys, "minrank", MIXED4)
    assert code == 0
    assert out.splitlines()[0] == "kappa\t3"
    assert "transmission\t2\t1,1,0,0" in out


def test_minrank_oracle_agreement(capsys):
    code, out, err = run(capsys, "minrank", "--oracle", MIXED4)
    assert code == 0
    assert "oracle_kappa\t3" in out


def test_minrank_stats(capsys):
    code, out, err = run(capsys, "minrank", "--stats", DENSE4)
    assert code == 0
    assert "product_size\t9" in out
    assert "row_rank_bound\t3" in out
    assert "old_matrices\t8192" in out
    assert "old_matrix_demand_pairs\t1048576" in out
    assert "candidates_per_user" not in out  # dict-valued stats stay out of TSV


def test_minrank_json(capsys):
    code, out, err = run(capsys, "minrank", "--json", "--stats", MIXED4)
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 3
    assert payload["stats"]["candidates_total"] == 7
    assert len(payload["transmissions"]) == 3


def test_minrank_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run(capsys, "minrank", "--json", "--out", str(target),
                         MIXED4)
    assert code == 0
    assert json.loads(target.read_text())["kappa"] == 3


def test_minrank_users_subset(capsys):
    code, out, err = run(capsys, "minrank", "--users", "2,3", DENSE4)
    assert code == 0
    assert out.splitlines()[0] == "kappa\t2"


def test_minrank_node_limit_guard(capsys):
    code, out, err = run(capsys, "minrank", "--node-limit", "2", DENSE4)
    assert code == 2
    assert err.startswith("guard:")


def test_minrank_q_override(capsys):
    code, out, err = run(capsys, "minrank", "--q-override", "3", MIXED4)
    assert code == 0
    assert "kappa\t3" in out
    code, out, err = run(capsys, "minrank", "--q-override", "4", MIXED4)
    assert code == 1
    assert err.startswith("error:")


def test_minrank_mismatch_exit(capsys, monkeypatch):
    real = eicp.minrank.minrank_oracle

    def wrong(inst, **kwargs):
        r = real(inst, **kwargs)
        return MinrankResult(r.kappa + 1, r.users, r.witness, r.code, r.stats)

    monkeypatch.setattr(eicp.minrank, "minrank_oracle", wrong)
    code, out, err = run(capsys, "minrank", "--oracle", MIXED4)
    assert code == 3
    assert err.startswith("mismatch:")


def test_minrank_checker_rejection_exit(capsys, monkeypatch):
    monkeypatch.setattr(eicp.minrank, "verify_code",
                        lambda code, inst: SimpleNamespace(overall=False))
    code, out, err = run(capsys, "minrank", "--oracle", MIXED4)
    assert code == 3
    assert err.startswith("mismatch:") and "checker rejects" in err


def _run_rejecting_checker_optimized(module: str, argv: list[str]):
    """Run the CLI under python -O with `module`.verify_code rejecting every code."""
    script = (
        f"import sys, types, {module}\n"
        "from eicp.cli import main\n"
        f"{module}.verify_code = lambda c, i: types.SimpleNamespace(overall=False)\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(eicp.minrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_minrank_checker_rejection_exit_under_optimize():
    # The consistency checks are raises, not asserts, so -O keeps them.
    proc = _run_rejecting_checker_optimized("eicp.minrank", ["minrank", "--oracle", MIXED4])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("mismatch:")


def test_cover_checker_rejection_exit(capsys, monkeypatch):
    monkeypatch.setattr(eicp.covers, "verify_code",
                        lambda code, inst: SimpleNamespace(overall=False))
    code, out, err = run(capsys, "cover", "--scheme", "tree", SEVEN)
    assert code == 3
    assert err.startswith("mismatch:") and "unusable code" in err


def test_cover_checker_rejection_exit_under_optimize():
    proc = _run_rejecting_checker_optimized("eicp.covers", ["cover", "--scheme", "tree", SEVEN])
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.startswith("mismatch:") and "unusable code" in proc.stderr


def test_verify_good_code(capsys):
    code, out, err = run(capsys, "verify", MIXED4, MIXED4_CODE)
    assert code == 0
    assert "overall\ttrue" in out


def test_verify_incomplete_code(capsys, tmp_path):
    partial = tmp_path / "partial.json"
    full = json.loads(fixture_path("mixed4_code.json").read_text())
    partial.write_text(json.dumps(
        {"transmissions": full["transmissions"][:1]}))
    code, out, err = run(capsys, "verify", MIXED4, str(partial))
    assert code == 1
    assert "overall\tfalse" in out
    assert "user\t2\tfalse" in out


def test_cover_lengths(capsys):
    code, out, err = run(capsys, "cover", "--scheme", "tree", SEVEN)
    assert code == 0
    assert "length\t4" in out
    code, out, err = run(capsys, "cover", "--scheme", "biclique", SEVEN)
    assert code == 0
    assert "length\t3" in out


def test_cover_exact(capsys):
    code, out, err = run(capsys, "cover", "--scheme", "biclique", "--exact",
                         SEVEN)
    assert code == 0
    assert "length\t3" in out


def test_cover_rejects_repeated_demands(capsys, tmp_path):
    inst = tmp_path / "repeat.json"
    inst.write_text(json.dumps({
        "q": 2, "num_users": 3, "num_messages": 3,
        "side_info": [[2], [3], [1, 2]], "demands": [1, 1, 3]}))
    code, out, err = run(capsys, "cover", "--scheme", "tree", str(inst))
    assert code == 1
    assert err.startswith("error:")


def test_gen_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, out, err = run(capsys, "gen", "uniform", "--users", "4",
                             "--messages", "4", "--seed", "11",
                             "--out", str(target))
        assert code == 0
    assert a.read_text() == b.read_text()
    code, out, err = run(capsys, "validate", str(a))
    assert code == 0 and "valid\ttrue" in out


def test_gen_vanet_overlap_range(capsys):
    code, out, err = run(capsys, "gen", "vanet", "--users", "4",
                         "--messages", "4", "--seed", "1",
                         "--overlap", "0.2")
    assert code == 1
    assert err.startswith("error:") and "overlap" in err


def test_structures_listing(capsys):
    code, out, err = run(capsys, "structures", SEVEN)
    assert code == 0
    assert "trees\tregular_tree\t1,2,3,4\t-" in out
    assert "cliques\tbiclique\t1,2,3,4\t5" in out


def _tree_lines(out):
    return [line for line in out.splitlines() if line.startswith("trees\t")]


def test_structures_tree_lines_pinned(capsys, tmp_path):
    # Largest first: random_single_unicast(7, 2, .35, 44) gives its 5-tree,
    # where the greedy tree cover takes a 4-tree.
    code, out, err = run(capsys, "structures", SEVEN)
    assert _tree_lines(out) == ["trees\tregular_tree\t1,2,3,4\t-",
                                "trees\tregular_tree\t5,6,7\t-"]
    cases = [(regular_tree_instance(n),
              ["trees\tregular_tree\t" + ",".join(map(str, range(1, n + 1))) + "\t-"])
             for n in (3, 4, 5, 6, 7)]
    cases.append((random_single_unicast(7, 2, 0.35, 44),
                  ["trees\tregular_tree\t1,6,2,5,4\t-"]))
    for idx, (inst, expected) in enumerate(cases):
        path = tmp_path / f"inst{idx}.json"
        path.write_text(serialize_instance(inst))
        code, out, err = run(capsys, "structures", str(path))
        assert code == 0
        assert _tree_lines(out) == expected


def test_experiment_fig5(capsys):
    code, out, err = run(capsys, "experiment", "fig5")
    assert code == 0
    assert out.rstrip().endswith("verdict\tpass")


def test_help_and_no_args(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert main([]) == 1


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1
