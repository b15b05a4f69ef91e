"""The verification-matrix runner: budget handling and record shapes."""

import pytest

from oscvar import osc
from oscvar.osc import _weyl_tables
from oscvar.suite import check_bracket_fidelity, check_highest_weight, run_suite


def test_budget_stops_between_stages():
    records = run_suite(budget_seconds=1e-6)
    assert records[-1].name == "suite-budget"
    assert records[-1].status == "skipped"
    assert records[-1].reason
    # at least the first stage ran before the budget cut in
    assert records[0].name == "bracket-fidelity"
    assert records[0].status == "pass"


def test_records_carry_anchor_and_payload():
    rec = check_highest_weight((5, 1, 3), 1, 1)
    assert rec.status == "pass"
    assert rec.anchor == "weight-of-corner-vector"
    assert rec.payload["weight"] == [-2, 0, -2, 1]


# -- bracket fidelity --------------------------------------------------------

_BRACKET_LAYOUTS = [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 2, 3)]


def test_bracket_fidelity_payload():
    rec = check_bracket_fidelity(_BRACKET_LAYOUTS, 4)
    assert rec.status == "pass"
    assert rec.payload == {
        "configs": {
            str(layout): {"monomials": mons, "pairs": pairs}
            for layout, mons, pairs in zip(
                _BRACKET_LAYOUTS, (210, 495, 495, 1001), (28, 105, 105, 276)
            )
        },
        "violations": 0,
        "max_degree": 4,
    }


@pytest.fixture
def fresh_tables():
    """Clear the cached applier tables and Weyl forms around a test that
    patches them; every ``Config`` the record builds is new, so none holds
    stale ones."""
    _weyl_tables.cache_clear()
    osc.weyl_forms.cache_clear()
    yield
    _weyl_tables.cache_clear()
    osc.weyl_forms.cache_clear()


@pytest.mark.parametrize("cell", sorted(osc._BLOCK), ids=str)
def test_bracket_fidelity_fails_on_a_flipped_cell(monkeypatch, fresh_tables, cell):
    c, da, db = osc._BLOCK[cell]
    with monkeypatch.context() as mp:
        mp.setitem(osc._BLOCK, cell, (-c, da, db))
        # (4,2,2) reads all four cells on both sides
        rec = check_bracket_fidelity([(4, 2, 2)], 4)
    assert rec.status == "fail"
    assert rec.payload["violations"] > 0
    assert rec.payload["nonzero_identities"] > 0


@pytest.mark.parametrize("block", ["first", "last"])
def test_bracket_fidelity_fails_on_a_wrong_cartan_constant(monkeypatch, block):
    exact = osc.diagonal_value

    def shifted(cfg, r, m):
        moved = r <= cfg.n1 if block == "first" else r > cfg.n2
        return exact(cfg, r, m) + moved

    monkeypatch.setattr(osc, "diagonal_value", shifted)
    rec = check_bracket_fidelity([(4, 1, 3)], 4)
    assert rec.status == "fail"
    assert rec.payload["violations"] > 0
    assert rec.payload["forms_disagreeing_with_applier"] == 1
    assert "nonzero_identities" not in rec.payload


def test_bracket_fidelity_fails_on_forms_the_applier_does_not_follow(monkeypatch, fresh_tables):
    # a wrong diagonal constant in the Weyl forms alone: the applier still
    # satisfies every relation, but the identities certify other operators
    # and the ones with h_1 on their right side fail
    monkeypatch.setitem(osc._DIAGONAL, True, 0)
    rec = check_bracket_fidelity([(4, 1, 3)], 4)
    assert rec.status == "fail"
    assert rec.payload["nonzero_identities"] > 0
    assert rec.payload["forms_disagreeing_with_applier"] > 0
