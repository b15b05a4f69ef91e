"""Golden-file comparisons: JSON reports are stable byte-for-byte."""

from pathlib import Path

from oscvar.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_classify_golden(capsys):
    out = _capture(
        capsys, "classify", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1",
    )
    assert out == (GOLDEN / "classify_312.json").read_text()


def test_filtration_golden(capsys):
    out = _capture(
        capsys, "filtration", "--n", "3", "--n1", "1", "--n2", "2",
        "--l1", "-1", "--l2", "-1", "--kmax", "3",
    )
    assert out == (GOLDEN / "filtration_312.json").read_text()


def test_basis_golden(capsys):
    out = _capture(
        capsys, "basis", "--n", "4", "--n1", "2", "--n2", "2",
        "--l1", "-1", "--l2", "-1",
    )
    assert out == (GOLDEN / "basis_4222.json").read_text()


def test_suite_golden(capsys):
    # the whole standing matrix, with its shared towers and solved pieces
    out = _capture(capsys, "suite", "--out", "json")
    assert out == (GOLDEN / "suite.json").read_text()
