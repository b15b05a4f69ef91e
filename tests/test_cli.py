"""CLI contract: exit codes, determinism, formats, command dispatch."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscvar
from oscvar import detvar, suite
from oscvar.cli import main
from oscvar.reports import CheckRecord, Report, serialize, FormatError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_command(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["checks"][0]["payload"]["irreducible"] is True


def test_filtration_dims_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "filtration", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "2", "--out", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,dim_Mk,delta"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,4,3"


def test_csv_rejected_for_non_tabular(capsys):
    code, out, err = run_cli(capsys, "classify", "--out", "csv")
    assert code == 2
    assert "csv" in err


def test_invalid_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "basis", "--n", "3", "--n1", "2", "--n2", "1")
    assert code == 2
    assert "invalid" in err


def test_unsupported_regime_skips_with_exit_zero(capsys):
    # every check the command would run is listed as skipped, with the reason
    unsupported = ["--n", "4", "--n1", "1", "--n2", "3", "--l1", "1", "--l2", "1"]
    for argv, names in (
        (["basis", *unsupported], ["base-space"]),
        (["annihilator", *unsupported], ["degree1-kernel", "degree2-kernel"]),
        (["kernel-phi", "--n", "3", "--n1", "2", "--n2", "3"],
         ["quadratic-kernel", "cubic-kernel"]),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == names
        assert all(c["status"] == "skipped" and c["reason"] for c in checks)


def test_mirrored_skew_layout_without_j3_is_skipped_with_exit_zero(capsys):
    # n1 = n2 = n with l1 > 0 >= l1 + l2 is a valid layout of the
    # product-skew-mirror regime, whose mirrored layout would have no J1
    for command in ("verify-main-theorem", "filtration"):
        code, out, err = run_cli(
            capsys, command, "--n", "3", "--n1", "3", "--n2", "3",
            "--l1", "1", "--l2", "-1", "--kmax", "3",
        )
        assert code == 0 and not err
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "skipped"
        assert check["reason"] == (
            "(n=3,n1=3,n2=3,l1=1,l2=-1): mirrored skew products need at least two J3 indices"
        )


def test_json_determinism(capsys):
    args = [
        "verify-filtration", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "3",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_chain3_seeded(capsys):
    code, out, _ = run_cli(capsys, "chain3", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    payload = doc["checks"][0]["payload"]
    assert payload["disagreements"] == 0
    assert payload["chains_found"] > 0


def test_project_command(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--max-degree", "3",
    )
    assert code == 0
    doc = json.loads(out)
    payload = doc["checks"][0]["payload"]
    assert payload["failures"] == 0
    assert payload["level_sizes"][0] == 1


def test_kernel_phi_command(capsys):
    code, out, _ = run_cli(
        capsys, "kernel-phi", "--n", "5", "--n1", "2", "--n2", "3",
        "--max-degree", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert len(doc["checks"]) == 2


def test_annihilator_with_tower_file(capsys, tmp_path):
    dump = tmp_path / "tower.json"
    code, _, _ = run_cli(
        capsys, "filtration", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "3",
        "--dump-tower", str(dump),
    )
    assert code == 0 and dump.exists()
    code, out, _ = run_cli(
        capsys, "annihilator", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "4",
        "--tower-file", str(dump),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["payload"]["dim"] == 5


def test_annihilator_refuses_a_tower_file_below_kmax_minus_one(capsys, tmp_path):
    # the dump is U_k(g) M_0, but it is certified only through its own levels
    cfg = ["--n", "3", "--n1", "1", "--n2", "2", "--l1", "-1", "--l2", "-1"]
    dump = tmp_path / "tower.json"
    run_cli(capsys, "filtration", *cfg, "--kmax", "2", "--dump-tower", str(dump))
    code, _, err = run_cli(capsys, "annihilator", *cfg, "--kmax", "4", "--tower-file", str(dump))
    assert code == 2 and "too shallow" in err
    code, _, _ = run_cli(capsys, "annihilator", *cfg, "--kmax", "3", "--tower-file", str(dump))
    assert code == 0


def test_annihilator_with_tampered_tower_files(capsys, tmp_path):
    cfg = ["--n", "3", "--n1", "1", "--n2", "2", "--l1", "-1", "--l2", "-1"]
    dump = tmp_path / "tower.json"
    run_cli(capsys, "filtration", *cfg, "--kmax", "3", "--dump-tower", str(dump))
    clean = json.loads(dump.read_text())
    # (level, row dropped, the level the g-stability check fails at or None)
    cases = [
        (None, None, None),
        (0, 0, None),  # a smaller base, still a g-stable tower
        (1, 0, 1),  # a row with a new pivot dropped
        (3, 0, 3),
        (3, -1, 3),  # the row with the least pivot at the top: M_2 is not inside M_3
    ]
    for level, row, failed in cases:
        doc = json.loads(json.dumps(clean))
        if level is not None:
            del doc["levels"][level][row]
            doc["dims"][level] -= 1
        dump.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "annihilator", *cfg, "--kmax", "4", "--tower-file", str(dump))
        if failed is None:
            assert code == 0
            assert [c["status"] for c in json.loads(out)["checks"]] == ["pass", "pass"]
        else:
            # what is no filtration is refused as invalid input, naming the level
            assert code == 2 and out == ""
            assert f"invalid input: level {failed} does not contain" in err
            assert "not a g-stable filtration" in err


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc.pop("dims"), "has no dimensions"),
    (lambda doc: doc["levels"][1].append(7), "levels are not lists of polynomial texts"),
    (lambda doc: doc["levels"].__setitem__(0, 7), "levels are not lists of polynomial texts"),
], ids=["no dims", "int row", "int level"])
def test_annihilator_refuses_a_malformed_tower_file(capsys, tmp_path, tamper, message):
    cfg = ["--n", "3", "--n1", "1", "--n2", "2", "--l1", "-1", "--l2", "-1"]
    dump = tmp_path / "tower.json"
    run_cli(capsys, "filtration", *cfg, "--kmax", "3", "--dump-tower", str(dump))
    doc = json.loads(dump.read_text())
    tamper(doc)
    dump.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "annihilator", *cfg, "--kmax", "4", "--tower-file", str(dump))
    assert code == 2 and out == ""
    assert f"invalid input: tower dump {message}" in err


@pytest.mark.parametrize("argv", [
    ["basis"],
    ["filtration", "--kmax", "0"],
    ["verify-main-theorem", "--kmax", "3"],
    ["project", "--max-degree", "1"],
], ids=lambda argv: argv[0])
def test_monomials_past_the_packed_degree_limit_are_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--l1", "-300")
    assert code == 2 and out == ""
    assert "invalid input: degree 301 does not fit the packed monomial" in err


@pytest.mark.parametrize("command", ["annihilator", "verify-main-theorem"])
def test_tower_above_the_closure_of_its_base_passes(capsys, command):
    # (3,2,3,0,1) is reducible: its explicit tower holds a generator above M_0
    code, out, _ = run_cli(
        capsys, command, "--n", "3", "--n1", "2", "--n2", "3",
        "--l1", "0", "--l2", "1", "--kmax", "3",
    )
    assert code == 0 and json.loads(out)["overall"] == "pass"


def test_verify_main_theorem_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify-main-theorem", "--n", "4", "--n1", "2", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"


SHALLOW = ["--n", "4", "--n1", "2", "--n2", "2", "--l1", "-1", "--l2", "-1"]


@pytest.mark.parametrize(
    "command, kmax",
    [("verify-main-theorem", 0), ("verify-main-theorem", 1),
     ("annihilator", 0), ("annihilator", 1)],
)
def test_shallow_kmax_is_skipped_with_exit_two(capsys, command, kmax):
    code, out, _ = run_cli(capsys, command, *SHALLOW, "--kmax", str(kmax))
    assert code == 2
    doc = json.loads(out)
    assert doc["checks"]
    assert all(c["status"] == "skipped" and c["reason"] for c in doc["checks"])


def test_vacuous_independence_is_skipped_with_exit_two(capsys):
    code, out, _ = run_cli(
        capsys, "independence", "--n", "5", "--n1", "2", "--n2", "3",
        "--max-degree", "0",
    )
    assert code == 2
    [check] = json.loads(out)["checks"]
    assert check["status"] == "skipped" and check["reason"]


@pytest.mark.parametrize("command", ["independence", "kernel-phi"])
@pytest.mark.parametrize("degree", [detvar.MAX_DEGREE + 1, 300])
def test_oversized_max_degree_is_invalid_input(capsys, monkeypatch, command, degree):
    # refused before any work: images of degree 2 * 128 would not fit
    def started(*args):
        raise AssertionError("the check started")

    monkeypatch.setattr(detvar, "_grading", started)
    code, out, err = run_cli(
        capsys, command, "--n", "4", "--n1", "1", "--n2", "3", "--max-degree", str(degree),
    )
    assert code == 2 and not out
    assert f"invalid input: degree {degree} exceeds 127" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["classify", "--budget-seconds", "-5"], ["suite", "--budget-seconds", "-1"]],
)
def test_budget_seconds_is_a_nonnegative_suite_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--budget-seconds" in capsys.readouterr().err


def test_annihilator_certifies_degree2_at_kmax(capsys):
    # the tower is one level shallower than kmax; degree 2 is still
    # certified at kmax, like degree 1
    code, out, _ = run_cli(capsys, "annihilator", *SHALLOW, "--kmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert [c["status"] for c in doc["checks"]] == ["pass", "pass"]


def test_annihilator_degree2_verdict_matches_the_suite(capsys, monkeypatch):
    # minor2-family-exactness also needs the degree-1 kernel to be the predicted one
    import oscvar.cli

    real = oscvar.cli.verify_degree2
    monkeypatch.setattr(
        oscvar.cli, "verify_degree2", lambda *a: {**real(*a), "i1_equal": False}
    )
    code, out, _ = run_cli(capsys, "annihilator", *SHALLOW, "--kmax", "2")
    assert code == 1
    assert [c["status"] for c in json.loads(out)["checks"]] == ["pass", "fail"]


def test_annihilator_degree2_payload_matches_the_suite_record(capsys):
    # the command builds the suite's degree-2 tower, so the power D^2, of
    # degree 4, is checked from M_0 into M_3 at kmax 3 as the suite checks it
    params, kmax = (5, 1, 3, 1, -1), 3
    (record,) = suite.check_degree2_kernels([(params, kmax)])
    argv = [f"--{k}={v}" for k, v in zip(("n", "n1", "n2", "l1", "l2", "kmax"), (*params, kmax))]
    code, out, _ = run_cli(capsys, "annihilator", *argv)
    check = json.loads(out)["checks"][1]
    assert check["name"] == "degree2-kernel" and code == 0
    assert (check["status"], {"kmax": kmax, **check["payload"]}) == (record.status, record.payload)
    assert check["payload"]["power_membership"] == [
        {"op": "D[4,5;2,3]^2", "degree": 4, "in_kernel": True}
    ]


@pytest.mark.parametrize(
    "n1, n2, l1, l2, statuses",
    [
        # the J3 x J2 minor annihilates only squared: no two-sided check exists
        (1, 3, 1, -1, ["skipped"]),
        # the other sign, and a layout whose power family is empty
        (1, 3, -1, 1, ["pass"] * 4),
        (2, 4, 1, -1, ["pass"] * 4),
    ],
)
def test_minor_annihilating_only_as_a_power_is_skipped(capsys, n1, n2, l1, l2, statuses):
    code, out, _ = run_cli(
        capsys, "verify-main-theorem", "--n", "5", "--n1", str(n1), "--n2", str(n2),
        "--l1", str(l1), "--l2", str(l2), "--kmax", "3",
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == statuses
    assert all("power" in c["reason"] for c in checks if c["status"] == "skipped")


def test_wide_middle_positive_regime_is_skipped_before_any_tower(capsys, monkeypatch):
    # outside the theorem at every depth, so this skip wins over a shallow kmax
    import oscvar.annihilator

    def no_tower(*args):
        raise AssertionError("tower built for a configuration outside the theorem")

    monkeypatch.setattr(oscvar.annihilator, "build_tower", no_tower)
    code, out, _ = run_cli(
        capsys, "verify-main-theorem", "--n", "5", "--n1", "1", "--n2", "5",
        "--l1", "1", "--l2", "1", "--kmax", "1",
    )
    assert code == 0
    [check] = json.loads(out)["checks"]
    assert check["status"] == "skipped"
    assert "middle block wider than one" in check["reason"]


@pytest.mark.parametrize(
    "layout, statuses",
    [
        # outside the theorem: both commands skip, with the same reason
        (("3", "1", "3", "1", "1"), ["skipped", "skipped"]),
        (("5", "1", "5", "2", "1"), ["skipped", "skipped"]),
        # a negative-sign layout whose minor annihilates only as a power
        (("5", "1", "3", "1", "-1"), ["pass", "pass"]),
    ],
)
def test_annihilator_skips_where_the_theorem_does_not_apply(capsys, layout, statuses):
    argv = [f"--{k}={v}" for k, v in zip(("n", "n1", "n2", "l1", "l2"), layout)]
    code, out, _ = run_cli(capsys, "annihilator", *argv, "--kmax", "3")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == statuses
    if "skipped" in statuses:
        _, out, _ = run_cli(capsys, "verify-main-theorem", *argv, "--kmax", "3")
        [theorem] = json.loads(out)["checks"]
        assert theorem["status"] == "skipped"
        assert all(c["reason"] == theorem["reason"] for c in checks)


def test_internal_error_is_not_reported_as_skipped(capsys, monkeypatch):
    import oscvar.annihilator

    def broken(cfg, kmax):
        raise ValueError("internal failure")

    monkeypatch.setattr(oscvar.annihilator, "verify_variety_presentation", broken)
    code, out, err = run_cli(capsys, "verify-main-theorem", *SHALLOW)
    assert code != 0
    assert out == ""
    assert "internal failure" in err


def test_gkdim_command(capsys):
    code, out, _ = run_cli(
        capsys, "gkdim", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "8",
    )
    assert code == 0
    doc = json.loads(out)
    payload = doc["checks"][0]["payload"]
    assert payload["estimate"] == payload["expected"] == 3
    assert payload["confident"] is True
    assert payload["depth"] == 8


def test_gkdim_reports_the_depth_it_built(capsys):
    # the growth fit needs depth 6, so a shallower --kmax is raised to 6
    code, out, _ = run_cli(
        capsys, "gkdim", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["kmax"] == 4
    payload = doc["checks"][0]["payload"]
    assert payload["depth"] == 6
    assert len(payload["dims"]) == len(payload["hilbert_table"]) == 7


def test_gkdim_too_shallow_to_decide_is_a_skip(capsys):
    # depth 6 gives estimate 6 against 8 with no zero difference at all:
    # too shallow to decide, not a failed growth degree
    code, out, _ = run_cli(
        capsys, "gkdim", "--n", "6", "--n1", "3", "--n2", "3",
        "--l1", "-1", "--l2", "-1", "--kmax", "6",
    )
    assert code == 2
    [check] = json.loads(out)["checks"]
    assert check["status"] == "skipped"
    assert "too shallow" in check["reason"] and "estimate 6" in check["reason"]


def test_failed_check_gives_exit_one():
    report = Report("x", {})
    report.checks.append(CheckRecord("a", "b", "fail", {}))
    assert report.exit_code == 1
    report2 = Report("x", {})
    report2.checks.append(CheckRecord("a", "b", "skipped", {}, reason="r"))
    assert report2.exit_code == 0


def test_empty_report_serializes():
    report = Report("suite", {})
    doc = json.loads(serialize(report, "json"))
    assert doc["overall"] == "pass"
    assert doc["checks"] == []
    with pytest.raises(FormatError):
        serialize(report, "csv")
    assert "overall: pass" in serialize(report, "text")


def test_console_entry_point():
    # the child imports the same oscvar as this process, installed or not
    src = str(Path(oscvar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oscvar.cli", "classify", "--n", "3",
         "--n1", "1", "--n2", "3", "--l1", "2", "--l2", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"][0]["payload"]["irreducible"] is True
