"""Command line behavior: outputs, exit codes, round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eicp.cli
import eicp.codes
import eicp.minrank
from eicp.cli import main
from eicp.codes import EmbeddedIndexCode, serialize_code, uncoded_scheme
from eicp.experiments import biclique_instance, random_single_unicast, regular_tree_instance
from eicp.minrank import MinrankResult
from eicp.model import gen_random, parse_instance, serialize_instance

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


@pytest.mark.parametrize("argv", [["validate"], ["verify", MIXED4]], ids=["validate", "verify"])
def test_overlong_integer_literal_is_an_input_error(capsys, tmp_path, argv):
    # json converts integer literals with int(), which refuses more than
    # 4,300 digits by default with a ValueError of its own.
    long_int = "9" * 5000
    if argv[0] == "validate":
        text = json.loads(Path(MIXED4).read_text())
        body = json.dumps({**text, "demands": "D"}).replace('"D"', f"[1, 2, 3, {long_int}]")
    else:
        body = '{"transmissions": [{"user": 1, "coeffs": [' + long_int + ', 0, 0, 0]}]}'
    path = tmp_path / "long.json"
    path.write_text(body)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("error: not valid JSON") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


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
    assert err == ("guard: rank search visited more than 2 nodes; "
                   "raise node_limit (--node-limit) to keep going\n")


def test_minrank_guard_names_the_flag_over_the_env(capsys, monkeypatch):
    # No environment variable sets the budget: a stale EICP_GUARD_NODES is
    # ignored, and the hint names only the flag.
    monkeypatch.setenv("EICP_GUARD_NODES", "100000000")
    code, out, err = run(capsys, "minrank", "--node-limit", "2", DENSE4)
    assert code == 2
    assert err == ("guard: rank search visited more than 2 nodes; "
                   "raise node_limit (--node-limit) to keep going\n")


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_minrank_rejects_a_non_positive_node_limit(capsys, limit):
    code, out, err = run(capsys, "minrank", "--node-limit", limit, DENSE4)
    assert code == 1 and out == ""
    assert err == f"error: node limit must be at least 1, got {limit}\n"


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


def _reject_every_user(inst, columns, user):
    return False


def test_minrank_checker_rejection_exit(capsys, monkeypatch):
    monkeypatch.setattr(eicp.codes, "decodable_from", _reject_every_user)
    code, out, err = run(capsys, "minrank", "--oracle", MIXED4)
    assert code == 3
    assert err.startswith("mismatch:") and "checker rejects" in err
    assert "stage one" in err


def _run_rejecting_checker_optimized(argv: list[str]):
    """Run the CLI under python -O with codes.decodable_from rejecting every user."""
    script = (
        "import sys, eicp.codes\n"
        "from eicp.cli import main\n"
        "eicp.codes.decodable_from = lambda inst, columns, user: False\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(eicp.minrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_minrank_checker_rejection_exit_under_optimize():
    # The consistency checks are raises, not asserts, so -O keeps them.
    proc = _run_rejecting_checker_optimized(["minrank", "--oracle", MIXED4])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("mismatch:")


def test_cover_checker_rejection_exit(capsys, monkeypatch):
    monkeypatch.setattr(eicp.codes, "decodable_from", _reject_every_user)
    code, out, err = run(capsys, "cover", "--scheme", "tree", SEVEN)
    assert code == 3
    assert err.startswith("mismatch:") and "checker rejects" in err
    assert "tree cover" in err


def test_cover_checker_rejection_exit_under_optimize():
    proc = _run_rejecting_checker_optimized(["cover", "--scheme", "tree", SEVEN])
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert proc.stderr.startswith("mismatch:") and "checker rejects" in proc.stderr


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


@pytest.mark.parametrize("scheme", ["tree", "biclique"])
def test_cover_exact_guard(capsys, tmp_path, scheme):
    inst = tmp_path / "tree13.json"
    inst.write_text(serialize_instance(regular_tree_instance(13)))
    code, out, err = run(capsys, "cover", "--scheme", scheme, "--exact", str(inst))
    assert code == 2 and out == ""
    assert err == "guard: exact cover search supports at most 12 messages\n"


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


def test_structure_reports_name_the_instances_users(capsys, tmp_path):
    # Structures are searched on demand_relabeling's graph, but every cover
    # and structures report names the instance's users: the user in each
    # place demands the message in the same place, and a covering user holds
    # all of the structure's messages and is none of its users. TSV rows give
    # the messages and the covering user only.
    draws = [random_single_unicast(n, 2, d, s)
             for n in (6, 8) for d in (0.3, 0.5, 0.7) for s in (0, 1)]
    argvs = [["cover", "--scheme", scheme, *exact]
             for scheme in ("tree", "biclique") for exact in ([], ["--exact"])]
    argvs.append(["structures"])
    reports = 0
    for idx, inst in enumerate([parse_instance(Path(MIXED4).read_text()), *draws]):
        path = tmp_path / f"inst{idx}.json"
        path.write_text(serialize_instance(inst))
        for command, *flags in argvs:
            code, out, err = run(capsys, command, str(path), *flags, "--json")
            assert code == 0
            obj = json.loads(out)
            for w in obj["structures"] if command == "cover" else sum(obj.values(), []):
                assert [inst.demand(u) for u in w["users"]] == w["messages"]
                if w["covered"]:
                    assert set(w["messages"]) <= inst.knows(w["covering_user"])
                    assert w["covering_user"] not in w["users"]
                reports += 1
            code, out, err = run(capsys, command, str(path), *flags)
            for row in out.splitlines():
                label, *fields = row.split("\t")
                if label in ("structure", "covered_pairs", "trees", "cliques") and fields[2] != "-":
                    messages = {int(m) for m in fields[1].split(",")}
                    covering = int(fields[2])
                    assert messages <= inst.knows(covering)
                    assert inst.demand(covering) not in messages
    assert reports == 364


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


def _cli_battery():
    # Instance files named relative to the working directory, so that no
    # temporary path reaches argv, stdout or stderr.
    instances = {name: fixture_path(name).read_text()
                 for name in ("mixed4.json", "dense4.json", "seven_user.json")}
    seeded = {
        "gr4q3.json": gen_random(4, 4, 3, 0.5, 1),
        "su5.json": random_single_unicast(5, 2, 0.5, 0),
        "rt4.json": regular_tree_instance(4),
        "bc3.json": biclique_instance(3, True),
    }
    instances.update({name: serialize_instance(inst) for name, inst in seeded.items()})
    instances["invalid.json"] = json.dumps({
        "q": 2, "num_users": 2, "num_messages": 2,
        "side_info": [[1, 2], [1]], "demands": [2, 2]})
    files = dict(instances)
    files["mixed4_code.json"] = Path(MIXED4_CODE).read_text()
    argvs = []
    for name in instances:
        argvs += [["validate", name], ["validate", name, "--json"]]
        if name == "invalid.json":
            continue
        inst = parse_instance(instances[name])
        uncoded = uncoded_scheme(inst)
        short = EmbeddedIndexCode(inst, uncoded.transmissions[1:])
        files["full_" + name] = serialize_code(uncoded)
        files["short_" + name] = serialize_code(short)
        for flags in ([], ["--json"], ["--stats"], ["--stats", "--json"],
                      ["--users", "1,2"], ["--node-limit", "3"]):
            argvs.append(["minrank", name, *flags])
        if inst.num_messages <= 5:
            argvs.append(["minrank", name, "--oracle"])
        for scheme in ("tree", "biclique"):
            argvs += [["cover", name, "--scheme", scheme],
                      ["cover", name, "--scheme", scheme, "--json"],
                      ["cover", name, "--scheme", scheme, "--exact"]]
        argvs += [["structures", name], ["structures", name, "--json"]]
        for code in ("full_" + name, "short_" + name):
            argvs += [["verify", name, code], ["verify", name, code, "--json"]]
    argvs += [["verify", "mixed4.json", "mixed4_code.json"],
              ["verify", "mixed4.json", "mixed4_code.json", "--json"]]
    for which in ("fig5", "lemma-sweep"):
        argvs += [["experiment", which], ["experiment", which, "--json"]]
    for kind in ("uniform", "vanet"):
        argvs.append(["gen", kind, "--users", "5", "--messages", "5", "--seed", "3"])
    argvs += [
        ["minrank", "mixed4.json", "--out", "out.tsv"],
        ["minrank", "mixed4.json", "--json", "--out", "out.json"],
        ["gen", "uniform", "--users", "4", "--messages", "4", "--seed", "1",
         "--out", "gen.json"],
        ["cover", "seven_user.json", "--scheme", "tree", "--out", "missing/out.tsv"],
        ["experiment", "fig5", "--json", "--out", "."],
        ["minrank", "mixed4.json", "--users", "x"],
    ]
    return files, argvs


def test_cli_output_pinned(capsys, tmp_path, monkeypatch):
    # Exit code, stdout, stderr and any --out file of every subcommand, in
    # TSV and JSON, on the fixtures and a few seeded instances.
    files, argvs = _cli_battery()
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    records = []
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = target.read_text() if target is not None and target.is_file() else None
        records.append(repr((argv, code, out, err, written)))
    assert len(records) == 162
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "b7fb1fd69ead30fde16ae28fd2cbd1850e32d5e7d89903a7d25081e7493f735d"


def test_theorem2_json_output_pinned(capsys):
    # test_cli_output_pinned runs fig5 and lemma-sweep only; theorem2's JSON
    # report (rows, verdict, details) is pinned here.
    code, out, err = run(capsys, "experiment", "theorem2", "--json")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "2eecb58faf0fd654a5be0cf4108b67699faf114839b67394364a625b145354c3"
