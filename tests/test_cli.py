import csv
import json
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from greedysf import opt
from greedysf.balanced import balanced_to_obj, obj_to_balanced
from greedysf.cli import RUN_CSV_FIELDS, main
from greedysf.exact import format_fraction
from greedysf.graph import WeightedGraph
from greedysf.greedy import Rule, run_greedy
from greedysf.instances import (
    gen_random_instance,
    make_instance,
    parse_instance,
    serialize_instance,
)
from greedysf.opt import steiner_forest_exact
from greedysf.transforms import augment_subdivided_solution, subdivide_pairs_rule3

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    # argparse rejects bad arguments by raising SystemExit
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_generate_girth(tmp_path, capsys):
    out = tmp_path / "pet.json"
    assert run_cli("generate", "girth", "--cage", "petersen", "--out", out) == 0
    obj = json.loads(out.read_text())
    assert obj["graph"]["n"] == 10
    assert "digest" in capsys.readouterr().out


def test_generate_random_deterministic_digest(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("generate", "random", "--n", 8, "--m", 14, "--k", 4, "--seed", 1, "--out", a)
    digest_a = capsys.readouterr().out
    run_cli("generate", "random", "--n", 8, "--m", 14, "--k", 4, "--seed", 1, "--out", b)
    digest_b = capsys.readouterr().out
    assert digest_a == digest_b
    assert a.read_text() == b.read_text()


def test_generate_canonical(tmp_path):
    out = tmp_path / "c.json"
    assert (
        run_cli(
            "generate", "canonical", "--classes", 2, "--per-class", 3,
            "--delta", 20, "--seed", 2, "--out", out,
        )
        == 0
    )


def test_generate_unknown_cage(tmp_path):
    assert run_cli("generate", "girth", "--cage", "bogus", "--out", tmp_path / "x") == 2


def test_run_writes_trace_and_csv(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    csv_path = tmp_path / "runs.csv"
    trace_path = tmp_path / "trace.json"
    assert (
        run_cli(
            "run", "--instance", inst, "--rule", "3",
            "--csv", csv_path, "--trace-out", trace_path,
        )
        == 0
    )
    trace = json.loads(trace_path.read_text())
    assert trace["total"] == "15/2"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("instance,rule,k,")
    assert "15/2" in lines[1] and "7.500000" in lines[1]


def test_run_rerun_byte_identical(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "heawood", "--out", inst)
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    run_cli("run", "--instance", inst, "--rule", "2", "--trace-out", t1)
    run_cli("run", "--instance", inst, "--rule", "2", "--trace-out", t2)
    assert t1.read_text() == t2.read_text()


def test_certify_class_duals_and_dual_lb(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    cert = tmp_path / "cd.json"
    assert run_cli("certify", "--kind", "class-duals", "--instance", inst, "--out", cert) == 0
    payload = json.loads(cert.read_text())
    assert payload["verdict"] == "pass"
    assert run_cli("certify", "--kind", "dual-lb", "--instance", inst) == 0


def test_certify_dual_lb_says_why_it_fails(tmp_path, monkeypatch):
    # a repeated ball breaks the disjointness premise: the class fails, and
    # its entry names the balls, as class-duals does
    from dataclasses import replace

    from greedysf import cli

    build = cli.build_class_duals

    def repeating(*args):
        coll, aux = build(*args)
        return replace(coll, balls=coll.balls[:1] + coll.balls), aux

    monkeypatch.setattr(cli, "build_class_duals", repeating)
    inst, out = tmp_path / "pet.json", tmp_path / "out.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    assert run_cli("certify", "--kind", "dual-lb", "--instance", inst, "--out", out) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    for entry in payload["classes"]:
        assert not entry["premises_hold"] and not entry["bound_holds"]
        assert "balls 0 and 1 share a vertex" in entry["offenders"]


def test_certify_balanced_and_corruption(tmp_path, capsys):
    inst = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 200, "--seed", 1, "--out", inst,
    )
    cert = tmp_path / "bal.json"
    assert (
        run_cli(
            "certify", "--kind", "balanced", "--instance", inst,
            "--delta", 200, "--alpha", "1", "--out", cert,
        )
        == 0
    )
    payload = json.loads(cert.read_text())
    assert payload["verdict"] == "pass"
    # corrupt one surviving charge: the log no longer ends at the file's charges
    broken = payload["certificate"]
    victim = next(
        i for i, s in broken["statuses"].items() if s == "surviving"
    )
    broken["charges"][victim] = "999999/1"
    corrupted = tmp_path / "broken.json"
    corrupted.write_text(json.dumps(broken))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", inst,
        "--delta", 200, "--alpha", "1", "--certificate", corrupted,
    )
    assert rc == 2
    assert "certificate field 'charges'" in assert_one_line_error(capsys)


def test_certify_induction_bound(tmp_path):
    inst = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 200, "--seed", 5, "--out", inst,
    )
    assert (
        run_cli(
            "certify", "--kind", "induction-bound", "--instance", inst,
            "--delta", 200, "--alpha", "1",
        )
        == 0
    )


def test_transform_subcommands(tmp_path):
    inst = tmp_path / "rand.json"
    run_cli("generate", "random", "--n", 8, "--m", 12, "--k", 4, "--seed", 3, "--out", inst)
    out1, rec1 = tmp_path / "canon.json", tmp_path / "canon_rec.json"
    assert (
        run_cli(
            "transform", "--kind", "canonical", "--instance", inst,
            "--alpha", "2", "--delta", 300,
            "--instance-out", out1, "--receipt-out", rec1,
        )
        == 0
    )
    receipt = json.loads(rec1.read_text())
    assert receipt["kind"] == "canonical"
    out2, rec2 = tmp_path / "split.json", tmp_path / "split_rec.json"
    assert (
        run_cli(
            "transform", "--kind", "subdivide-rule3", "--instance", inst,
            "--instance-out", out2, "--receipt-out", rec2,
        )
        == 0
    )


def test_transform_accepts_consistent_trace_file(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    trace = tmp_path / "trace.json"
    run_cli("run", "--instance", inst, "--rule", "3", "--trace-out", trace)
    assert (
        run_cli(
            "transform", "--kind", "subdivide-rule3", "--instance", inst,
            "--trace", trace,
            "--instance-out", tmp_path / "o.json", "--receipt-out", tmp_path / "r.json",
        )
        == 0
    )
    # a trace recorded under another rule is rejected
    other = tmp_path / "trace1.json"
    run_cli("run", "--instance", inst, "--rule", "1", "--trace-out", other)
    assert (
        run_cli(
            "transform", "--kind", "subdivide-rule3", "--instance", inst,
            "--trace", other,
            "--instance-out", tmp_path / "o2.json", "--receipt-out", tmp_path / "r2.json",
        )
        == 2
    )


def _other_rule(trace):
    trace["rule"] = "rule1"


def _other_path(trace):
    trace["pairs"][0]["path"].reverse()


def _forged_shortcuts(trace):
    trace["pairs"][0]["shortcuts"] = [[7, 8]]


def _forged_contraction(trace):
    trace["pairs"][1]["contraction"] = "5/1"


def _note_at_the_top(trace):
    trace["note"] = "x"


def _extra_in_a_pair(trace):
    trace["pairs"][0]["extra"] = [1, 2]


def _bare_rule_number(trace):
    trace["rule"] = "3"  # Rule.parse reads it, but the writer writes "rule3"


def _wrong_total(trace):
    trace["total"] = "1/1"


# what each tamper's one-line error says; "does not match" where not listed
TRACE_REFUSALS = {
    _other_rule: "different rule",
    # a key the writer never writes would go unread, so the reader refuses it
    _note_at_the_top: "trace field 'note' is not the writer's form",
    _extra_in_a_pair: "trace field 'pairs[0]' is not the writer's form",
    _bare_rule_number: "trace field 'rule' is not the writer's form",
    _wrong_total: "trace field 'total' is not the writer's form",
}


def _trace_reader(command, tmp_path):
    """The argv of a command that reads `--trace`, less `--instance` and `--trace`."""
    return {
        "transform": [
            "transform", "--kind", "subdivide-rule3", "--instance-out", tmp_path / "o.json",
            "--receipt-out", tmp_path / "r.json",
        ],
        "certify": ["certify", "--kind", "class-duals"],
    }[command]


@pytest.mark.parametrize(
    "tamper",
    [
        _other_rule, _other_path, _forged_shortcuts, _forged_contraction,
        _note_at_the_top, _extra_in_a_pair, _bare_rule_number, _wrong_total,
    ],
)
@pytest.mark.parametrize("command", ["transform", "certify"])
def test_trace_file_must_equal_the_run(tmp_path, capsys, tamper, command):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    trace = tmp_path / "trace.json"
    run_cli("run", "--instance", inst, "--rule", "3", "--trace-out", trace, "--no-opt")
    obj = json.loads(trace.read_text())
    tamper(obj)
    trace.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(*_trace_reader(command, tmp_path), "--instance", inst, "--trace", trace) == 2
    assert TRACE_REFUSALS.get(tamper, "does not match") in assert_one_line_error(capsys)


@pytest.mark.parametrize("vertex, forged", [(2, 2.0), (1, True)])
@pytest.mark.parametrize("command", ["transform", "certify"])
def test_trace_vertex_ids_must_be_integers(tmp_path, capsys, vertex, forged, command):
    # pair 0 runs along the edge (vertex, 3), so its path and shortcut are [vertex, 3]
    obj = {
        "graph": {"n": 4, "edges": [[0, 1, "1/1"], [1, 2, "1/1"], [vertex, 3, "1/1"]]},
        "pairs": [[vertex, 3], [0, 3]],
        "schedule": [[], []],
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(obj))
    trace = tmp_path / "trace.json"
    run_cli("run", "--instance", inst, "--rule", "3", "--trace-out", trace, "--no-opt")
    obj = json.loads(trace.read_text())
    row = obj["pairs"][0]
    assert row["path"] == [vertex, 3] and row["shortcuts"] == [[vertex, 3]]
    row["path"][0] = row["shortcuts"][0][0] = forged
    trace.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(*_trace_reader(command, tmp_path), "--instance", inst, "--trace", trace) == 2
    assert "must be an integer" in assert_one_line_error(capsys)


def test_audit_kinds(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    assert run_cli("audit", "--kind", "moore", "--instance", inst) == 0
    assert run_cli("audit", "--kind", "rules-compare", "--instance", inst) == 0
    assert run_cli("audit", "--kind", "potential", "--instance", inst) == 0
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 200, "--seed", 1, "--out", canon,
    )
    cert = tmp_path / "bal.json"
    run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--out", cert,
    )
    assert run_cli("audit", "--kind", "conservation", "--certificate", cert) == 0


def test_report_single_row_and_histogram(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    csv_path = tmp_path / "runs.csv"
    run_cli("run", "--instance", inst, "--rule", "3", "--csv", csv_path)
    out_dir = tmp_path / "report"
    assert run_cli("report", "--runs", csv_path, "--out-dir", out_dir) == 0
    ratio = (out_dir / "ratio_vs_k.csv").read_text().strip().splitlines()
    assert ratio[0] == "k,instance,rule,ratio,ratio_dec"
    assert len(ratio) == 2
    hist = (out_dir / "contraction_histogram.csv").read_text().strip().splitlines()
    assert hist == ["bucket,count", '"[2^0,2^1)",2']


def test_report_two_cages_sorted_by_k(tmp_path):
    csv_path = tmp_path / "runs.csv"
    for cage in ("heawood", "petersen"):
        inst = tmp_path / f"{cage}.json"
        run_cli("generate", "girth", "--cage", cage, "--out", inst)
        run_cli("run", "--instance", inst, "--rule", "1", "--csv", csv_path)
    out_dir = tmp_path / "report"
    run_cli("report", "--runs", csv_path, "--out-dir", out_dir)
    rows = (out_dir / "ratio_vs_k.csv").read_text().strip().splitlines()[1:]
    ks = [int(r.split(",")[0]) for r in rows]
    assert ks == sorted(ks) and len(ks) == 2


def test_report_schema_mismatch(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run_cli("report", "--runs", bad, "--out-dir", tmp_path / "r") == 2


def test_report_second_file_with_another_header_exits_2(tmp_path, capsys):
    good = _petersen_run_csv(tmp_path)
    header, row = good.read_text().splitlines()
    bad = tmp_path / "reordered.csv"
    bad.write_text(",".join(reversed(header.split(","))) + "\n" + row + "\n")
    capsys.readouterr()
    assert run_cli("report", "--runs", good, bad, "--out-dir", tmp_path / "r") == 2
    assert str(bad) in assert_one_line_error(capsys)


def _petersen_run_csv(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    csv_path = tmp_path / "runs.csv"
    run_cli("run", "--instance", inst, "--rule", "3", "--csv", csv_path)
    return csv_path


def test_report_non_integer_k_exits_2(tmp_path, capsys):
    csv_path = _petersen_run_csv(tmp_path)
    header, row = csv_path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index("k")] = "x"
    csv_path.write_text(header + "\n" + ",".join(cells) + "\n")
    capsys.readouterr()
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "line 2" in err


def test_report_short_row_exits_2(tmp_path, capsys):
    csv_path = _petersen_run_csv(tmp_path)
    with open(csv_path, "a") as fh:
        fh.write("a,b\n")
    capsys.readouterr()
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "line 3" in err


@pytest.mark.parametrize(
    "column,cell",
    [
        ("instance", "c3ce84aa"),
        ("instance", "C" * 64),
        ("rule", "rule9"),
        ("rule", "3"),
        ("k", "03"),
        ("ratio", "abc"),
        ("ratio", "2/2"),
        ("ratio", "inf"),
        ("ratio", ""),
        ("ratio_dec", "zzz"),
        ("ratio_dec", "1.0"),
        ("ratio_dec", ""),
    ],
)
def test_report_cell_that_does_not_parse_exits_2(tmp_path, capsys, column, cell):
    # every cell report copies into ratio_vs_k.csv is checked first
    csv_path = _petersen_run_csv(tmp_path)
    header, row = csv_path.read_text().splitlines()
    cells = row.split(",")
    assert cells[header.split(",").index("ratio")] == "1/1"
    cells[header.split(",").index(column)] = cell
    csv_path.write_text(header + "\n" + ",".join(cells) + "\n")
    capsys.readouterr()
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "line 2" in err
    assert not (tmp_path / "r").exists()


# the Petersen rule-3 row with some cells changed, and the column its refusal
# names: one tamper per column, then forged pairs of cells, then rows whose
# inputs contradict each other
ROW_TAMPERS = {
    "instance": ({"instance": "c3ce84aa"}, "instance"),
    "rule": ({"rule": "rule4"}, "rule"),
    "k": ({"k": "+3"}, "k"),
    "greedy_cost": ({"greedy_cost": "banana"}, "greedy_cost"),
    "greedy_cost_dec": ({"greedy_cost_dec": "7.5"}, "greedy_cost_dec"),
    "opt_cost": ({"opt_cost": "30/4"}, "opt_cost"),
    "opt_cost_dec": ({"opt_cost_dec": "7.499999"}, "opt_cost_dec"),
    "tstar_cost": ({"tstar_cost": "-1/0"}, "tstar_cost"),
    "tstar_cost_dec": ({"tstar_cost_dec": "9"}, "tstar_cost_dec"),
    "ratio": ({"ratio": "5/1"}, "ratio"),
    "ratio_dec": ({"ratio_dec": "1.000001"}, "ratio_dec"),
    "contraction_min": ({"contraction_min": "2/2"}, "contraction_min"),
    "contraction_min_dec": ({"contraction_min_dec": "2.000000"}, "contraction_min_dec"),
    "contraction_max": ({"contraction_max": "1"}, "contraction_max"),
    "contraction_max_dec": ({"contraction_max_dec": "inf"}, "contraction_max_dec"),
    "verdicts": ({"verdicts": "anything"}, "verdicts"),
    "negative_k": ({"k": "-1"}, "k"),
    "forged_ratio": ({"ratio": "5/1", "ratio_dec": "5.000000"}, "ratio"),
    "opt_above_greedy": ({"verdicts": "opt<=greedy:false"}, "verdicts"),
    "unbounded_min_below_a_finite_max": (
        {"contraction_min": "inf", "contraction_min_dec": "inf"}, "contraction_min"
    ),
    "min_above_max": (
        {"contraction_min": "2/1", "contraction_min_dec": "2.000000"}, "contraction_min"
    ),
    "opt_in_a_capped_row": ({"verdicts": "opt:skipped-cap"}, "opt_cost"),
    "tstar_without_opt": (
        dict.fromkeys(("opt_cost", "opt_cost_dec", "ratio", "ratio_dec", "verdicts"), ""),
        "tstar_cost",
    ),
}


@pytest.mark.parametrize("tamper", list(ROW_TAMPERS))
def test_report_accepts_only_the_row_run_writes(tmp_path, capsys, tamper):
    assert list(ROW_TAMPERS)[: len(RUN_CSV_FIELDS)] == RUN_CSV_FIELDS
    cells, named = ROW_TAMPERS[tamper]
    csv_path = _petersen_run_csv(tmp_path)
    row = next(csv.DictReader(csv_path.read_text().splitlines()))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({**row, **cells})
    capsys.readouterr()
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "line 2" in err and f"column {named!r}" in err
    assert not (tmp_path / "r").exists()


def test_report_accepts_a_row_with_opt_but_no_tree_optimum(tmp_path):
    # the terminals span two components: OPT is finite, T* absent
    graph = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(make_instance(graph, [(0, 1), (2, 3)])))
    csv_path = tmp_path / "runs.csv"
    assert run_cli("run", "--instance", path, "--rule", "3", "--csv", csv_path) == 0
    row = next(csv.DictReader(csv_path.read_text().splitlines()))
    assert (row["opt_cost"], row["tstar_cost"]) == ("2/1", "")
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 0


def test_run_csv_into_an_empty_file_writes_the_header(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    csv_path = tmp_path / "runs.csv"
    csv_path.touch()
    assert run_cli("run", "--instance", inst, "--rule", "3", "--csv", csv_path) == 0
    assert run_cli("run", "--instance", inst, "--rule", "1", "--csv", csv_path) == 0
    header, *rows = csv_path.read_text().splitlines()
    assert header == ",".join(RUN_CSV_FIELDS) and len(rows) == 2
    assert run_cli("report", "--runs", csv_path, "--out-dir", tmp_path / "r") == 0


@pytest.mark.parametrize(
    "text", ["a,b\n", "a,b\n1,2\n", "\n", ",".join(reversed(RUN_CSV_FIELDS)) + "\n"]
)
def test_run_csv_into_a_file_with_another_header_exits_2(tmp_path, capsys, text):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    csv_path = tmp_path / "runs.csv"
    csv_path.write_bytes(text.encode())
    capsys.readouterr()
    assert run_cli("run", "--instance", inst, "--rule", "3", "--csv", csv_path) == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "header does not follow the run-row schema" in err
    assert csv_path.read_bytes() == text.encode()


@pytest.mark.parametrize("rows", [0, 1])
def test_run_csv_onto_a_last_line_without_newline_exits_2(tmp_path, capsys, rows):
    # a header alone, or a header and one run row, missing the final newline:
    # a row appended there would be glued onto that last line
    csv_path = _petersen_run_csv(tmp_path)
    lines = csv_path.read_bytes().splitlines()
    assert len(lines) == 2
    text = b"\n".join(lines[: 1 + rows])
    csv_path.write_bytes(text)
    capsys.readouterr()
    inst = tmp_path / "pet.json"
    assert run_cli("run", "--instance", inst, "--rule", "1", "--csv", csv_path) == 2
    err = assert_one_line_error(capsys)
    assert str(csv_path) in err and "last line does not end in a newline" in err
    assert csv_path.read_bytes() == text


def test_readme_command_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 13 and all(argv[0] == "greedysf" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


def test_run_experiments_reproduces_tracked_results(tmp_path):
    # the script writes results/ beside its own scripts/ directory, so run a copy
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "run_experiments.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(ROOT / "src")
    subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "run_experiments.py")],
        check=True, capture_output=True,
    )
    tracked = sorted(p.name for p in (ROOT / "results").iterdir())
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == tracked
    assert len(tracked) == 4
    for name in tracked:
        assert (tmp_path / "results" / name).read_bytes() == (
            ROOT / "results" / name
        ).read_bytes(), name


@pytest.mark.parametrize("alpha", ["abc", "1/0", "1.5", "1/"])
def test_certify_bad_alpha_exits_2(tmp_path, capsys, alpha):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    capsys.readouterr()
    assert exit_code("certify", "--kind", "balanced", "--instance", inst, "--alpha", alpha) == 2
    assert "argument --alpha" in capsys.readouterr().err


def test_transform_bad_alpha_exits_2(tmp_path):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    assert (
        exit_code(
            "transform", "--kind", "canonical", "--instance", inst, "--alpha", "2/0",
            "--instance-out", tmp_path / "o.json", "--receipt-out", tmp_path / "r.json",
        )
        == 2
    )


def test_missing_instance_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("certify", "--kind", "class-duals", "--instance", missing) == 2
    assert_one_line_error(capsys)


def test_missing_certificate_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("audit", "--kind", "conservation", "--certificate", missing) == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_malformed_certificate_exits_2(tmp_path, capsys, text):
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 200, "--seed", 1, "--out", canon,
    )
    cert = tmp_path / "bad.json"
    cert.write_text(text)
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", cert) == 2
    assert_one_line_error(capsys)
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", cert,
    )
    assert rc == 2
    assert_one_line_error(capsys)


def test_audit_moore_without_instance_exits_2(capsys):
    assert run_cli("audit", "--kind", "moore") == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "kind, unread",
    [
        ("conservation", "--instance"),
        ("moore", "--certificate"),
        ("rules-compare", "--certificate"),
        ("potential", "--certificate"),
    ],
)
def test_audit_refuses_a_file_its_kind_does_not_read(tmp_path, capsys, kind, unread):
    # the file the kind reads is valid; the other one names no file at all,
    # and a kind that silently ignored it would pass
    canon, cert = _balanced_certificate(tmp_path)
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    read = ("--certificate", given) if kind == "conservation" else ("--instance", canon)
    capsys.readouterr()
    assert run_cli("audit", "--kind", kind, *read, unread, tmp_path / "missing.json") == 2
    assert f"does not read {unread}" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["certify", "--kind", "class-duals", "--K", "1"], "--K"),
        (["certify", "--kind", "class-duals", "--alpha", "9"], "--alpha"),
        (["certify", "--kind", "class-duals", "--delta", "3"], "--delta"),
        (["certify", "--kind", "dual-lb", "--K", "0"], "--K"),
        (["certify", "--kind", "dual-lb", "--alpha", "1"], "--alpha"),
        (["certify", "--kind", "dual-lb", "--delta", "-4"], "--delta"),
        (["transform", "--kind", "subdivide-rule3", "--alpha", "2"], "--alpha"),
        (["transform", "--kind", "subdivide-rule3", "--delta", "300"], "--delta"),
    ],
)
def test_a_flag_its_kind_does_not_read_exits_2(tmp_path, capsys, argv, flag):
    # only balanced and induction-bound read --K, --alpha and --delta, and
    # only the canonical transform reads --alpha and --delta: a kind that
    # ignored them would pass whatever they said
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    outs = ["--instance-out", tmp_path / "o.json", "--receipt-out", tmp_path / "r.json"]
    capsys.readouterr()
    assert run_cli(*argv, "--instance", inst, *(outs if argv[0] == "transform" else [])) == 2
    assert f"{flag} is read by --kind" in assert_one_line_error(capsys)
    assert not (tmp_path / "o.json").exists()


def _balanced_certificate(tmp_path, classes=2, delta=200, seed=1):
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", classes, "--per-class", 2,
        "--delta", delta, "--seed", seed, "--out", canon,
    )
    cert = tmp_path / "bal.json"
    run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", delta, "--alpha", "1", "--out", cert,
    )
    return canon, json.loads(cert.read_text())["certificate"]


def _drop_charge(cert):
    del cert["charges"]["0"]


def _drop_status(cert):
    del cert["statuses"]["0"]


def _extra_charge(cert):
    cert["charges"]["99"] = "1/1"


def _repeat_charge(cert):
    cert["charges"]["00"] = cert["charges"]["0"]


def _charge_key_padded(cert):
    cert["charges"][" 0"] = cert["charges"].pop("0")


def _status_key_underscored(cert):
    cert["statuses"]["0_1"] = cert["statuses"].pop("1")


def _charge_key_signed(cert):
    cert["charges"]["+2"] = cert["charges"].pop("2")


def _status_key_zero_led(cert):
    cert["statuses"]["01"] = cert["statuses"].pop("1")


def _ball_unknown_pair(cert):
    cert["balls"][0]["pair"] = 99


def _ball_unknown_class(cert):
    cert["balls"][0]["class"] = 99


def _ball_center_not_vertex(cert):
    cert["balls"][0]["center"] = "x"


def _charges_not_object(cert):
    cert["charges"] = [cert["charges"]["0"]]


def _k_not_integer(cert):
    cert["K"] = "x"


def _ball_pair_list(cert):
    cert["balls"][0]["pair"] = [0]


def _ball_class_list(cert):
    cert["balls"][0]["class"] = [1]


def _k_bool(cert):
    cert["K"] = True


def _step_log_string(cert):
    cert["step_log"] = "x"


@pytest.mark.parametrize(
    "tamper",
    [
        _drop_charge,
        _drop_status,
        _extra_charge,
        _repeat_charge,
        _charge_key_padded,
        _status_key_underscored,
        _charge_key_signed,
        _status_key_zero_led,
        _ball_unknown_pair,
        _ball_unknown_class,
        _ball_center_not_vertex,
        _charges_not_object,
        _k_not_integer,
        _ball_pair_list,
        _ball_class_list,
        _k_bool,
        _step_log_string,
    ],
)
def test_balanced_certificate_incomplete_exits_2(tmp_path, capsys, tamper):
    canon, cert = _balanced_certificate(tmp_path)
    assert cert["balls"]
    tamper(cert)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", broken,
    )
    assert rc == 2
    assert_one_line_error(capsys)


def _charge_nothing(cert):
    # no balls and every pair charged with charge 0: every per-pair cap holds
    cert["balls"], cert["dangerous"] = [], []
    cert["statuses"] = {i: "charged" for i in cert["statuses"]}
    cert["charges"] = {i: "0/1" for i in cert["charges"]}


def _double_a_survivor(cert):
    victim = next(i for i, s in cert["statuses"].items() if s == "surviving")
    cert["charges"][victim] = "2/1"


@pytest.mark.parametrize("tamper", [None, _charge_nothing, _double_a_survivor])
def test_balanced_certificate_must_conserve_the_greedy_total(tmp_path, capsys, tamper):
    # the charges are where the conserving log ends, so a file stating others
    # is malformed; test_balanced pins clause (e)'s offender on these tampers.
    # With no balls, the file is first short of its log's ball centers
    canon, cert = _balanced_certificate(tmp_path)
    if tamper is not None:
        tamper(cert)
    given, out = tmp_path / "given.json", tmp_path / "out.json"
    given.write_text(json.dumps(cert))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", given, "--out", out,
    )
    if tamper is None:
        assert (rc, json.loads(out.read_text())["verdict"]) == (0, "pass")
        return
    assert rc == 2
    field = "balls" if tamper is _charge_nothing else "charges"
    assert f"certificate field {field!r}" in assert_one_line_error(capsys)


@pytest.mark.parametrize("pairs", [[99], ["x"]])
def test_balanced_certificate_foreign_classes_exits_2(tmp_path, capsys, pairs):
    # the verifier takes the cost classes from the trace, never from the
    # certificate: rewritten classes must not verify
    canon, cert = _balanced_certificate(tmp_path)
    cert["classes"][0]["pairs"] = pairs
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", broken,
    )
    assert rc == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "obj",
    [
        {"step_log": 5},
        {"certificate": 5},
        {"step_log": [5]},
        {"step_log": [{"charged_total": ["1"]}]},
        {"step_log": []},
    ],
)
def test_conservation_malformed_step_log_exits_2(tmp_path, capsys, obj):
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(obj))
    assert run_cli("audit", "--kind", "conservation", "--certificate", cert) == 2
    assert_one_line_error(capsys)


def _step_not_object(cert):
    cert["step_log"][0] = 5


def _step_total_missing(cert):
    del cert["step_log"][1]["charged_total"]


def _step_total_not_fraction(cert):
    cert["step_log"][1]["charged_total"] = "x"


@pytest.mark.parametrize("reader", ["certify", "audit"])
@pytest.mark.parametrize(
    "tamper,step",
    [
        (_step_not_object, "step_log[0]"),
        (_step_total_missing, "step_log[1]"),
        (_step_total_not_fraction, "step_log[1]"),
    ],
)
def test_unreadable_step_exits_2_naming_the_step(tmp_path, capsys, reader, tamper, step):
    # certify --certificate and the conservation audit share one reader, so a
    # step without a canonical charged total stops both
    canon, cert = _balanced_certificate(tmp_path)
    tamper(cert)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    argv = {
        "certify": [
            "certify", "--kind", "balanced", "--instance", canon,
            "--delta", 200, "--alpha", "1", "--certificate", broken,
        ],
        "audit": ["audit", "--kind", "conservation", "--certificate", broken],
    }[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert step in assert_one_line_error(capsys)


def _log_deleted(cert):
    del cert["step_log"]


def _log_of_one_bare_total(cert):
    cert["step_log"] = [{"charged_total": "1/1"}]


def _owner_true(cert):
    # read as an index, True would replay as pair 1
    cert["step_log"][0]["owner"] = True


def _absorbed_index_string(cert):
    cert["step_log"][0]["absorbed"] = ["1"]


def _owner_absorbs_itself(cert):
    step = cert["step_log"][0]
    step["absorbed"] = step["absorbed"] + [step["owner"]]


def _total_of_another_step(cert):
    cert["step_log"][1]["charged_total"] = "1/1"


def _class_index_unknown(cert):
    cert["step_log"][0]["class_index"] = 99


def _class_index_of_the_other_class(cert):
    step = cert["step_log"][0]
    assert step["class_index"] == 1
    step["class_index"] = 2


def _class_index_true(cert):
    cert["step_log"][0]["class_index"] = True


def _stray_keys_in_two_steps(cert):
    # a note, and a field of another event: the reader keeps neither
    cert["step_log"][0]["note"] = "x"
    cert["step_log"][1]["increments"] = 5


UNREPLAYABLE_LOGS = [
    (_log_deleted, "'step_log'"),
    (
        _log_of_one_bare_total,
        "step_log[0] is not an object whose event is one of redistribute_skipped, "
        "delete_and_recharge, halve_and_absorb, grow_and_defer",
    ),
    (_owner_true, "step_log[0] does not apply: ParseError('owner must be an integer')"),
    (_absorbed_index_string, "step_log[0] does not apply: ParseError('absorbed pair"),
    (_owner_absorbs_itself, "step_log[0] changes the charged total"),
    (
        _total_of_another_step,
        "certificate field 'step_log[1]' is not the writer's form of its inputs",
    ),
    (_class_index_unknown, "step_log[0] class_index 99 is not its pairs' class"),
    (_class_index_of_the_other_class, "step_log[0] class_index 2 is not its pairs' class"),
    (
        _class_index_true,
        "step_log[0] does not apply: ParseError('class_index must be an integer')",
    ),
    (
        _stray_keys_in_two_steps,
        "certificate field 'step_log[0]' is not the writer's form of its inputs",
    ),
]


@pytest.mark.parametrize("reader", ["certify", "audit"])
@pytest.mark.parametrize(
    "tamper, message", UNREPLAYABLE_LOGS, ids=[t.__name__[1:] for t, _ in UNREPLAYABLE_LOGS]
)
def test_unreplayable_step_log_exits_2(tmp_path, capsys, reader, tamper, message):
    # both readers replay the log through the builder's own charge flow, and
    # refuse a log that is missing or does not apply to the certificate's classes
    canon, cert = _balanced_certificate(tmp_path)
    assert [e["event"] for e in cert["step_log"]] == ["halve_and_absorb"] * 3
    tamper(cert)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    argv = {
        "certify": [
            "certify", "--kind", "balanced", "--instance", canon,
            "--delta", 200, "--alpha", "1", "--certificate", broken,
        ],
        "audit": ["audit", "--kind", "conservation", "--certificate", broken],
    }[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert message in assert_one_line_error(capsys)


def _log_emptied(cert):
    cert["step_log"] = []


def _first_owner_in_the_last_step(cert):
    # with its class, so that the step still names its owner's class
    first, last = cert["step_log"][0], cert["step_log"][-1]
    last["owner"], last["class_index"] = first["owner"], first["class_index"]


def _last_absorbed_pair_dropped(cert):
    step = next(e for e in reversed(cert["step_log"]) if e["absorbed"])
    step["absorbed"].pop()


# the first field in the writer's order that the replay changes
END_STATE_TAMPERS = [
    (_log_emptied, "balls"),
    (_first_owner_in_the_last_step, "balls"),
    (_last_absorbed_pair_dropped, "charges"),
]


@pytest.mark.parametrize(
    "tamper, field", END_STATE_TAMPERS, ids=[t.__name__[1:] for t, _ in END_STATE_TAMPERS]
)
def test_conservation_audit_requires_the_log_to_end_at_the_certificate(
    tmp_path, capsys, tamper, field
):
    # each log replays, conserving its totals, but not to the file's balls,
    # charges and statuses: both readers refuse the file as malformed
    canon, cert = _balanced_certificate(tmp_path)
    tamper(cert)
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    for argv in (
        ("certify", "--kind", "balanced", "--instance", canon,
         "--delta", 200, "--alpha", "1", "--certificate", given),
        ("audit", "--kind", "conservation", "--certificate", given),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert f"certificate field {field!r}" in assert_one_line_error(capsys)


def test_a_log_that_replays_to_its_file_reaches_the_clauses(tmp_path, capsys):
    # a forged log whose stated end state is its own replay is well formed:
    # the audit finds it conserved, and certify fails it on clause (e)
    canon, cert = _balanced_certificate(tmp_path)
    bd = obj_to_balanced(cert)
    _last_absorbed_pair_dropped(cert)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(balanced_to_obj(replace(bd, step_log=cert["step_log"]))))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", forged) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": 3}
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", forged, "--out", out,
    )
    payload = json.loads(out.read_text())
    assert (rc, payload["verdict"]) == (1, "fail")
    assert payload["clauses"]["charges_capped"] is False
    assert "pair 3 is unclassified" in payload["offenders"]


def _dangerous_status_unlisted(cert):
    cert["statuses"]["0"] = "dangerous"


def _charged_pair_listed_dangerous(cert):
    cert["dangerous"] = [3]


DANGEROUS_TAMPERS = [
    (_dangerous_status_unlisted, "statuses"),
    (_charged_pair_listed_dangerous, "dangerous"),
]


@pytest.mark.parametrize(
    "tamper, field", DANGEROUS_TAMPERS, ids=[t.__name__ for t, _ in DANGEROUS_TAMPERS]
)
def test_balanced_certificate_dangerous_must_match_statuses(tmp_path, capsys, tamper, field):
    # an unlisted dangerous pair escapes the cap of clause (e) and the
    # coverage of clause (a); a listed non-dangerous one is a foreign field.
    # The statuses come first in the writer's order, and are the log's replay
    canon, cert = _balanced_certificate(tmp_path, classes=3, delta=300, seed=7)
    assert cert["dangerous"] == [] and cert["statuses"]["3"] == "charged"
    tamper(cert)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 300, "--alpha", "1", "--certificate", broken,
    )
    assert rc == 2
    assert f"certificate field {field!r}" in assert_one_line_error(capsys)


def _unknown_top_level_key(cert):
    cert["note"] = "x"


def _unknown_ball_key(cert):
    cert["balls"][0]["note"] = "x"


def _unknown_class_key(cert):
    cert["classes"][0]["note"] = "x"


def _radius_full_one(cert):
    cert["classes"][0]["radius_full"] = "1/1"


def _class_indices_swapped(cert):
    first, second = cert["classes"][:2]
    first["index"], second["index"] = second["index"], first["index"]


def _class_without_pairs(cert):
    cert["classes"].append({"cost": "1/1", "index": 3, "pairs": [], "radius_full": "0/1"})


def _rekeyed(table, key, written):
    def tamper(cert):
        cert[table][written] = cert[table].pop(key)

    tamper.__name__ = f"_{table}_key_{written!r}"
    return tamper


UNDERIVED_FIELDS = [
    (_unknown_top_level_key, "certificate field 'note'"),
    (_unknown_ball_key, "certificate field 'balls'"),
    (_unknown_class_key, "certificate field 'classes'"),
    (_radius_full_one, "certificate field 'classes'"),
    (_class_indices_swapped, "certificate field 'classes'"),
    (_class_without_pairs, "a class has no pairs"),
    *(
        (_rekeyed("charges", key, written), "certificate field 'charges'")
        for key, written in (("1", "01"), ("1", "+1"), ("1", " 1"), ("1", "0_1"), ("0", "00"))
    ),
    (_rekeyed("statuses", "1", "01"), "certificate field 'statuses'"),
]


@pytest.mark.parametrize("reader", ["certify", "audit"])
@pytest.mark.parametrize(
    "tamper, message", UNDERIVED_FIELDS, ids=[t.__name__[1:] for t, _ in UNDERIVED_FIELDS]
)
def test_balanced_certificate_is_what_the_writer_writes(
    tmp_path, capsys, reader, tamper, message
):
    # the reader parses the inputs and derives the rest with the writer: a
    # file that the writer would not write back from its inputs is refused,
    # naming the first field that differs
    canon, cert = _balanced_certificate(tmp_path)
    tamper(cert)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(cert))
    argv = {
        "certify": [
            "certify", "--kind", "balanced", "--instance", canon,
            "--delta", 200, "--alpha", "1", "--certificate", broken,
        ],
        "audit": ["audit", "--kind", "conservation", "--certificate", broken],
    }[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert message in assert_one_line_error(capsys)


def test_balanced_certificate_round_trip(tmp_path):
    # the file `certify --out` writes verifies as `--certificate`
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 200, "--seed", 1, "--out", canon,
    )
    written, again = tmp_path / "written.json", tmp_path / "again.json"
    flags = ("--kind", "balanced", "--instance", canon, "--delta", 200, "--alpha", "1")
    assert run_cli("certify", *flags, "--out", written) == 0
    assert run_cli("certify", *flags, "--certificate", written, "--out", again) == 0
    assert json.loads(again.read_text())["verdict"] == "pass"


@pytest.mark.parametrize("K", [1, 1_000_000])
def test_balanced_certificate_k_must_match_the_command(tmp_path, capsys, K):
    # K sets the caps of clauses (c)-(e): a certificate may not choose its own
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 3,
        "--delta", 300, "--seed", 2, "--out", canon,
    )
    written, given = tmp_path / "written.json", tmp_path / "given.json"
    flags = ("--kind", "balanced", "--instance", canon, "--delta", 300, "--alpha", "1")
    assert run_cli("certify", *flags, "--out", written) == 0
    assert run_cli("certify", *flags, "--K", 6, "--certificate", written) == 0
    obj = json.loads(written.read_text())
    obj["certificate"]["K"] = K
    given.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("certify", *flags, "--certificate", given) == 2
    assert f"K={K}" in assert_one_line_error(capsys)


def test_balanced_certificate_k_below_pair_count_exits_2(tmp_path, capsys):
    # building refuses K below the pair count; verifying must too
    canon, cert = _balanced_certificate(tmp_path)
    cert["K"] = 1
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--K", 1, "--certificate", given,
    )
    assert rc == 2
    assert "below the pair count" in assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "flags,refusal",
    [
        (("--alpha", 1000, "--delta", 1), "instance not canonical"),
        (("--alpha", "1", "--delta", 200, "--K", 2**16), "delta=200 below"),
    ],
    ids=["not_canonical", "delta_bound"],
)
def test_a_balanced_certificate_is_checked_under_the_builders_preconditions(
    tmp_path, capsys, flags, refusal
):
    # flags that building refuses are refused on the verify path too
    canon, cert = _balanced_certificate(tmp_path)
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    for verify in ((), ("--certificate", given)):
        capsys.readouterr()
        assert run_cli("certify", "--kind", "balanced", "--instance", canon, *flags, *verify) == 2
        assert refusal in assert_one_line_error(capsys)


def _no_balls(cert):
    cert["balls"] = []


def _one_ball_deleted(cert):
    del cert["balls"][3]


def _ball_to_a_charged_pair(cert):
    assert cert["statuses"]["5"] == "charged"
    cert["balls"][3]["pair"] = 5


def _second_ball_for_a_survivor(cert):
    # vertex 44 lies outside every ball, so no overlap flags this copy
    cert["balls"].append(dict(cert["balls"][3], center=44))


def _ball_in_a_foreign_class(cert):
    cert["balls"][3]["class"] = 1


OFF_THE_REPLAY = "certificate field 'balls' is not where its step_log replays to"


def _centers_for_5(n):
    return f"certificate field 'balls' has {n} centers for 5 ball-placing steps"


BINDING_PROBES = [
    (_no_balls, _centers_for_5(0)),
    (_one_ball_deleted, _centers_for_5(4)),
    (_ball_to_a_charged_pair, OFF_THE_REPLAY),
    (_second_ball_for_a_survivor, _centers_for_5(6)),
    (_ball_in_a_foreign_class, OFF_THE_REPLAY),
]


def _canonical_2x3_certificate(tmp_path):
    """The flags and the certificate `certify --out` writes for the canonical
    2x3 instance at delta 300, seed 2: pairs 0..4 survive, one ball each."""
    canon, written = tmp_path / "canon.json", tmp_path / "written.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 3,
        "--delta", 300, "--seed", 2, "--out", canon,
    )
    flags = ("--kind", "balanced", "--instance", canon, "--delta", 300, "--alpha", "1")
    assert run_cli("certify", *flags, "--out", written) == 0
    return flags, json.loads(written.read_text())["certificate"]


@pytest.mark.parametrize(
    "tamper, message", BINDING_PROBES, ids=[t.__name__[1:] for t, _ in BINDING_PROBES]
)
def test_balanced_certificate_binds_each_ball_to_a_surviving_owner(
    tmp_path, capsys, tamper, message
):
    # each ball-placing step gives its owner one ball in its own class, and no
    # other pair gets one: a file whose balls are not its log's is malformed
    flags, cert = _canonical_2x3_certificate(tmp_path)
    tamper(cert)
    given, out = tmp_path / "given.json", tmp_path / "out.json"
    given.write_text(json.dumps(cert))
    for argv in (
        ("certify", *flags, "--certificate", given, "--out", out),
        ("audit", "--kind", "conservation", "--certificate", given),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert message in assert_one_line_error(capsys)
    assert not out.exists()


def test_a_second_ball_for_one_owner_reads_and_fails_clause_a(tmp_path, capsys):
    # a log that repeats a survivor's halve-and-absorb step with a second
    # center is its own file's replay: it conserves, moves no charge, and
    # gives the owner two balls, which clause (a) refuses.  Vertex 44 lies
    # outside every ball, so no overlap flags the copy
    flags, cert = _canonical_2x3_certificate(tmp_path)
    bd = obj_to_balanced(cert)
    assert [e["event"] for e in bd.step_log] == ["halve_and_absorb"] * 5
    assert bd.step_log[3]["owner"] == 3
    forged = replace(bd, centers=(*bd.centers, 44), step_log=[*bd.step_log, bd.step_log[3]])
    given, out = tmp_path / "given.json", tmp_path / "out.json"
    given.write_text(json.dumps(balanced_to_obj(forged)))
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", given) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": 6}
    assert run_cli("certify", *flags, "--certificate", given, "--out", out) == 1
    payload = json.loads(out.read_text())
    assert payload["clauses"] == {
        "disjoint_and_covered": False,
        "radii_in_range": True,
        "interior_cost_capped": True,
        "border_cost_capped": True,
        "charges_capped": True,
    }
    assert payload["offenders"] == ["balls 3 and 5 both belong to pair 3"]


@pytest.mark.parametrize("reader", ["certify", "audit"])
@pytest.mark.parametrize("K", [0, -5, 3])
def test_balanced_certificate_k_below_its_pair_count_exits_2(tmp_path, capsys, reader, K):
    # the replay reads K for grow radii, and building requires 1 <= K and
    # the pair count (4 here) <= K: a file stating another K is malformed
    canon, cert = _balanced_certificate(tmp_path)
    cert["K"] = K
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    argv = {
        "certify": [
            "certify", "--kind", "balanced", "--instance", canon,
            "--delta", 200, "--alpha", "1", "--certificate", given,
        ],
        "audit": ["audit", "--kind", "conservation", "--certificate", given],
    }[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert f"certificate field 'K' has K={K}" in assert_one_line_error(capsys)


PETERSEN = ("girth", "--cage", "petersen")
CANONICAL = ("canonical", "--classes", 3, "--per-class", 2, "--delta", 300, "--seed", 7)


@pytest.mark.parametrize("kind", ["class-duals", "dual-lb", "induction-bound"])
def test_certificate_refused_by_kinds_that_build(tmp_path, capsys, kind):
    inst, junk = tmp_path / "inst.json", tmp_path / "junk.json"
    run_cli("generate", *(CANONICAL if kind == "induction-bound" else PETERSEN), "--out", inst)
    junk.write_text(json.dumps({"garbage": 1}))
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", kind, "--instance", inst,
        "--delta", 300, "--alpha", "1", "--certificate", junk,
    )
    assert rc == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("kind", ["class-duals", "dual-lb"])
def test_certify_builds_no_metric_of_the_subdivision(tmp_path, monkeypatch, kind):
    from greedysf import graph

    # Petersen's chords weigh 5/2, so its 1/2-subdivision has chain points
    inst = tmp_path / "pet.json"
    run_cli("generate", *PETERSEN, "--out", inst)
    g = parse_instance(inst.read_text()).graph
    sub_n = graph.subdivide_edges(g, graph.default_eta(g))[0].n
    assert sub_n > g.n
    built, init = [], graph.Metric.__init__

    def counting(self, n, edges, later):
        built.append(n)
        init(self, n, edges, later)

    monkeypatch.setattr(graph.Metric, "__init__", counting)
    assert run_cli("certify", "--kind", kind, "--instance", inst) == 0
    # the base graph's metric serves every ball; the subdivision's is never built
    assert g.n in built and sub_n not in built


def _run_row(capsys, inst):
    capsys.readouterr()
    assert run_cli("run", "--instance", inst, "--rule", "3") == 0
    return json.loads(capsys.readouterr().out)


def test_run_builds_one_tree_oracle(tmp_path, monkeypatch):
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    build, calls = opt._tree_oracle, []

    def counting(g, terminals):
        calls.append(terminals)
        return build(g, terminals)

    monkeypatch.setattr(opt, "_tree_oracle", counting)
    assert run_cli("run", "--instance", inst, "--rule", "3") == 0
    assert len(calls) == 1


def test_run_past_the_pair_cap_skips_opt_and_tstar(tmp_path, capsys):
    inst = tmp_path / "r.json"
    run_cli("generate", "random", "--n", 6, "--m", 10, "--k", 9, "--seed", 0, "--out", inst)
    row = _run_row(capsys, inst)
    assert (row["opt_cost"], row["tstar_cost"], row["verdicts"]) == ("", "", "opt:skipped-cap")


def test_run_fills_tstar_past_the_tree_terminal_cap(tmp_path, capsys):
    path = tmp_path / "r.json"
    run_cli("generate", "random", "--n", 30, "--m", 29, "--k", 7, "--seed", 2, "--out", path)
    inst = parse_instance(path.read_text())
    assert len(inst.terminals()) == 13
    row = _run_row(capsys, path)
    assert row["opt_cost"] != ""
    assert row["tstar_cost"] == format_fraction(opt.tree_optimum(inst, cap_terminals=13).weight)


@pytest.mark.parametrize("kind", ["balanced", "induction-bound"])
def test_certify_K_zero_exits_2(tmp_path, capsys, kind):
    inst = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 2,
        "--delta", 300, "--seed", 1, "--out", inst,
    )
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", kind, "--instance", inst,
        "--K", 0, "--delta", 300, "--alpha", "1",
    )
    assert rc == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "where, value",
    [
        (("pairs",), 5),
        (("schedule",), 5),
        (("schedule", 0), 5),
        (("graph", "edges"), 5),
        (("pairs", 0), [0, "a"]),
        (("pairs", 0), [0, 1.5]),
        (("schedule", 0), [[0, "x", "1/1"]]),
        (("pairs", 0), [True, 2]),
        (("graph", "edges", 1), [True, 2, "1/1"]),
    ],
    ids=[
        "pairs-not-list", "schedule-not-list", "schedule-row-not-list",
        "edges-not-list", "pair-str", "pair-float", "schedule-edge-str",
        "pair-bool", "edge-bool",
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, where, value):
    obj = {
        "graph": {"n": 3, "edges": [[0, 1, "1/1"], [1, 2, "1/1"]]},
        "pairs": [[0, 2]],
        "schedule": [[]],
    }
    *parents, last = where
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(obj))
    assert run_cli("run", "--instance", inst, "--rule", "3", "--no-opt") == 2
    assert_one_line_error(capsys)


@pytest.mark.parametrize("reader", ["run", "certify", "audit", "report"])
def test_non_utf8_file_exits_2(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe{}")
    inst = tmp_path / "pet.json"
    run_cli("generate", "girth", "--cage", "petersen", "--out", inst)
    argv = {
        "run": ["run", "--instance", bad, "--rule", "3"],
        "certify": ["certify", "--kind", "class-duals", "--instance", inst, "--trace", bad],
        "audit": ["audit", "--kind", "conservation", "--certificate", bad],
        "report": ["report", "--runs", bad, "--out-dir", tmp_path / "r"],
    }[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert str(bad) in assert_one_line_error(capsys)


def test_potential_audit_adds_each_sub_pair_once(tmp_path, capsys):
    # pairs by decreasing distance (70, 68, 60, 51): at pair (5,7) both sub-
    # pairs (5,0) and (0,7) are missing, and adding both paths would close
    # the cycle 5-0-7-4-5
    base = gen_random_instance(8, 12, 4, 190)
    assert sorted((p.s, p.t) for p in base.pairs) == [(0, 2), (4, 5), (5, 7), (6, 7)]
    inst = make_instance(base.graph, [(0, 2), (6, 7), (5, 7), (4, 5)])
    assert inst.pair_distances == (70, 68, 60, 51)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    capsys.readouterr()
    assert run_cli("audit", "--kind", "potential", "--instance", path) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    trace = run_greedy(inst, Rule.RULE3)
    split, receipt = subdivide_pairs_rule3(inst, trace)
    opt_edges = steiner_forest_exact(inst).edge_indices
    _, log = augment_subdivided_solution(opt_edges, inst, trace, split, receipt)
    # sub-pair 2 is (5,0); its path joins sub-pair 3, (0,7), which is skipped
    assert [(split.pairs[c].s, split.pairs[c].t) for c in (2, 3)] == [(5, 0), (0, 7)]
    assert [step["added_for"] for step in log["steps"]] == [[], [], [2], []]


def test_balanced_certificate_redistributes_a_skipped_pair(tmp_path, capsys):
    raw, canon, cert = (tmp_path / name for name in ("r.json", "c.json", "b.json"))
    run_cli("generate", "random", "--n", 13, "--m", 23, "--k", 9, "--seed", 173, "--out", raw)
    assert run_cli(
        "transform", "--kind", "canonical", "--alpha", 2, "--delta", 400,
        "--instance", raw, "--instance-out", canon, "--receipt-out", tmp_path / "rc.json",
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "certify", "--kind", "balanced", "--delta", 400, "--alpha", 4,
        "--instance", canon, "--out", cert,
    ) == 0
    assert capsys.readouterr().out == "pass\n"
    events = [e["event"] for e in json.loads(cert.read_text())["certificate"]["step_log"]]
    assert events == ["redistribute_skipped", "halve_and_absorb", "halve_and_absorb"]
    assert run_cli("audit", "--kind", "conservation", "--certificate", cert) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": 3}


def test_report_counts_an_unbounded_contraction_as_inf(tmp_path):
    # under rule 1 the first path joins the second pair before it arrives:
    # cost 0, contraction inf
    graph = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(make_instance(graph, [(0, 2), (0, 1)])))
    csv_path = tmp_path / "runs.csv"
    run_cli("run", "--instance", path, "--rule", "1", "--csv", csv_path)
    row = next(csv.DictReader(csv_path.read_text().splitlines()))
    assert row["contraction_max"] == row["contraction_max_dec"] == "inf"
    out_dir = tmp_path / "report"
    assert run_cli("report", "--runs", csv_path, "--out-dir", out_dir) == 0
    hist = (out_dir / "contraction_histogram.csv").read_text().splitlines()
    assert hist == ["bucket,count", '"[2^0,2^1)",1', "inf,1"]


@pytest.mark.parametrize("center", ["n", -1])
def test_a_ball_center_off_the_graph_is_refused_by_certify(tmp_path, capsys, center):
    # the reader takes a center as any integer, since it reads no instance:
    # the conservation audit accepts the file, and certify, which reads the
    # instance, refuses it naming the center and the vertex count
    canon, cert = _balanced_certificate(tmp_path)
    n = json.loads(canon.read_text())["graph"]["n"]
    center = n if center == "n" else center
    cert["balls"][0]["center"] = center
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", given) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": 3}
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", given,
    )
    assert rc == 2
    message = f"ball 0 center {center} is not a vertex 0..{n - 1}"
    assert message in assert_one_line_error(capsys)


@pytest.fixture
def default_digit_limit():
    """Each case starts at CPython's default 4,300-digit int <-> str limit, so
    that it tests `main` lifting it, not an earlier call's lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # this Python has no limit to lift
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


# a canonical fraction of 5,001 digits, written without converting an int
WIDE = "1" + "0" * 4999 + "1"


def test_generate_writes_weights_past_the_digit_limit(tmp_path, capsys, default_digit_limit):
    out = tmp_path / "canon.json"
    rc = run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 1,
        "--delta", 15000, "--seed", 0, "--out", out,
    )
    assert (rc, capsys.readouterr().err) == (0, "")
    assert max(len(w) for _, _, w in json.loads(out.read_text())["graph"]["edges"]) > 4300


def test_induction_bound_formats_a_bound_past_the_digit_limit(
    tmp_path, capsys, default_digit_limit
):
    inst = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 3, "--per-class", 2,
        "--delta", 800, "--seed", 0, "--out", inst,
    )
    capsys.readouterr()
    rc = run_cli(
        "certify", "--kind", "induction-bound", "--instance", inst,
        "--delta", 800, "--alpha", "1",
    )
    assert (rc, capsys.readouterr()) == (0, ("pass\n", ""))


def test_run_parses_a_weight_past_the_digit_limit(tmp_path, capsys, default_digit_limit):
    path = tmp_path / "wide.json"
    edge = [0, 1, f"{WIDE}/1"]
    inst = {"graph": {"n": 2, "edges": [edge]}, "pairs": [[0, 1]], "schedule": [[]]}
    path.write_text(json.dumps(inst))
    capsys.readouterr()
    assert run_cli("run", "--instance", path, "--rule", "rule3") == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["greedy_cost"], row["opt_cost"]) == (f"{WIDE}/1", f"{WIDE}/1")


def test_conservation_audit_reads_a_K_past_the_digit_limit(tmp_path, capsys, default_digit_limit):
    _, cert = _balanced_certificate(tmp_path)
    assert cert["K"] == 4
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert).replace('"K": 4', f'"K": {WIDE}'))
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", given) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": 3}
