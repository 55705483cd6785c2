import csv
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from greedysf import opt
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


def test_certify_balanced_and_corruption(tmp_path):
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
    # corrupt one surviving charge and verify the clause failure is detected
    broken = payload["certificate"]
    victim = next(
        i for i, s in broken["statuses"].items() if s == "surviving"
    )
    broken["charges"][victim] = "999999/1"
    corrupted = tmp_path / "broken.json"
    corrupted.write_text(json.dumps(broken))
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", inst,
        "--delta", 200, "--alpha", "1", "--certificate", corrupted,
    )
    assert rc == 1


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


@pytest.mark.parametrize(
    "tamper", [_other_rule, _other_path, _forged_shortcuts, _forged_contraction]
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
    argv = {
        "transform": [
            "transform", "--kind", "subdivide-rule3", "--instance-out", tmp_path / "o.json",
            "--receipt-out", tmp_path / "r.json",
        ],
        "certify": ["certify", "--kind", "class-duals"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--instance", inst, "--trace", trace) == 2
    err = assert_one_line_error(capsys)
    expected = "different rule" if tamper is _other_rule else "does not match"
    assert expected in err


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
    argv = {
        "transform": [
            "transform", "--kind", "subdivide-rule3", "--instance-out", tmp_path / "o.json",
            "--receipt-out", tmp_path / "r.json",
        ],
        "certify": ["certify", "--kind", "class-duals"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--instance", inst, "--trace", trace) == 2
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
def test_balanced_certificate_must_conserve_the_greedy_total(tmp_path, tamper):
    canon, cert = _balanced_certificate(tmp_path)
    if tamper is not None:
        tamper(cert)
    given, out = tmp_path / "given.json", tmp_path / "out.json"
    given.write_text(json.dumps(cert))
    rc = run_cli(
        "certify", "--kind", "balanced", "--instance", canon,
        "--delta", 200, "--alpha", "1", "--certificate", given, "--out", out,
    )
    payload = json.loads(out.read_text())
    if tamper is None:
        assert (rc, payload["verdict"]) == (0, "pass")
        return
    assert (rc, payload["verdict"]) == (1, "fail")
    assert payload["clauses"]["charges_capped"] is False
    assert any("not the greedy total" in o for o in payload["offenders"])


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


UNREPLAYABLE_LOGS = [
    (_log_deleted, "'step_log'"),
    (_log_of_one_bare_total, "step_log[0] does not apply: KeyError('event')"),
    (_owner_true, "step_log[0] does not apply: ParseError('owner must be an integer')"),
    (_absorbed_index_string, "step_log[0] does not apply: ParseError('absorbed pair"),
    (_owner_absorbs_itself, "step_log[0] changes the charged total"),
    (_total_of_another_step, "step_log[1] charged_total is not the replayed total"),
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
    cert["step_log"][-1]["owner"] = cert["step_log"][0]["owner"]


def _last_absorbed_pair_dropped(cert):
    step = next(e for e in reversed(cert["step_log"]) if e["absorbed"])
    step["absorbed"].pop()


@pytest.mark.parametrize(
    "tamper",
    [_log_emptied, _first_owner_in_the_last_step, _last_absorbed_pair_dropped],
    ids=lambda tamper: tamper.__name__[1:],
)
def test_conservation_audit_requires_the_log_to_end_at_the_certificate(
    tmp_path, capsys, tamper
):
    # each log replays, conserving its totals, but not to the file's charges
    # and statuses: the audit fails the certificate
    _, cert = _balanced_certificate(tmp_path)
    tamper(cert)
    given = tmp_path / "given.json"
    given.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli("audit", "--kind", "conservation", "--certificate", given) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"conserved": False, "steps": len(cert["step_log"])}


def _dangerous_status_unlisted(cert):
    cert["statuses"]["0"] = "dangerous"


def _charged_pair_listed_dangerous(cert):
    cert["dangerous"] = [3]


@pytest.mark.parametrize(
    "tamper", [_dangerous_status_unlisted, _charged_pair_listed_dangerous]
)
def test_balanced_certificate_dangerous_must_match_statuses(tmp_path, capsys, tamper):
    # an unlisted dangerous pair escapes the cap of clause (e) and the
    # coverage of clause (a); a listed non-dangerous one is a foreign field
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
    assert "dangerous pairs differ from its dangerous statuses" in assert_one_line_error(capsys)


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


def _starting_state(cert):
    cert["balls"], cert["dangerous"], cert["step_log"] = [], [], []
    cert["statuses"] = {i: "surviving" for i in cert["statuses"]}
    cert["charges"] = {i: "1/1" for i in cert["charges"]}


def _ball_in_a_foreign_class(cert):
    cert["balls"][3]["class"] = 1


BINDING_PROBES = [
    (_no_balls, "surviving pairs without a ball: [0, 1, 2, 3, 4]"),
    (_one_ball_deleted, "surviving pairs without a ball: [3]"),
    (_ball_to_a_charged_pair, "ball 3 belongs to pair 5, which is not surviving"),
    (_second_ball_for_a_survivor, "balls 3 and 5 both belong to pair 3"),
    (_starting_state, "surviving pairs without a ball: [0, 1, 2, 3, 4, 5]"),
    (_ball_in_a_foreign_class, "ball 3 is in class 1, its pair 3 in class 2"),
]


@pytest.mark.parametrize(
    "tamper, offender", BINDING_PROBES, ids=[t.__name__[1:] for t, _ in BINDING_PROBES]
)
def test_balanced_certificate_binds_each_ball_to_a_surviving_owner(
    tmp_path, tamper, offender
):
    # the surviving charges bound the greedy cost only through their balls:
    # each surviving pair owns one ball in its own class, no other pair owns one
    canon = tmp_path / "canon.json"
    run_cli(
        "generate", "canonical", "--classes", 2, "--per-class", 3,
        "--delta", 300, "--seed", 2, "--out", canon,
    )
    written, given, out = tmp_path / "written.json", tmp_path / "given.json", tmp_path / "out.json"
    flags = ("--kind", "balanced", "--instance", canon, "--delta", 300, "--alpha", "1")
    assert run_cli("certify", *flags, "--out", written) == 0
    cert = json.loads(written.read_text())["certificate"]
    tamper(cert)
    given.write_text(json.dumps(cert))
    assert run_cli("certify", *flags, "--certificate", given, "--out", out) == 1
    payload = json.loads(out.read_text())
    assert payload["clauses"]["disjoint_and_covered"] is False
    assert offender in payload["offenders"]
    assert not any("overlap" in o for o in payload["offenders"])


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
    assert json.loads(capsys.readouterr().out) == {"conserved": True, "steps": 3}


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
