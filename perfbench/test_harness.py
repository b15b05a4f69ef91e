"""Self-test of the benchmark harness on reduced copies of the four workloads.

    python3 -m pytest -q perfbench/test_harness.py

Each reduced workload runs twice under the tracer, in this process: both
passes must match the recorded outcomes, give identical counters and leave
no wrapper installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import MARK, Tracer, installed_wrappers  # noqa: E402
from worker import import_oscvar  # noqa: E402
from workloads import SMALL_WORKLOADS, check_pass, load_expected, run_pass  # noqa: E402

# Layers each workload must not reach: a change confined to one of them
# must leave that workload flat.
ABSENT = {
    "suite": (),
    "annihilator-deep": ("detvar.",),
    "tower-deep": ("detvar.", "annihilator."),
    "detvar-kernels": ("osc.", "annihilator.", "filtration."),
}


@pytest.fixture(scope="module", autouse=True)
def _oscvar():
    import_oscvar()


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_reduced_workload_is_correct_and_deterministic(name):
    items = SMALL_WORKLOADS[name]
    expected = load_expected()["small"][name]
    counters = []
    for _ in range(2):
        result = run_pass(items, Tracer())
        assert installed_wrappers() == []
        assert check_pass(expected, items, result["items"])[1] == []
        counters.append({k: v for k, v in result["layers"].items() if not k.endswith(".s")})
    assert counters[0] == counters[1]
    calls = counters[0]
    for module, function, _args in items:
        if module != "suite":  # the benchmark's own call of the entry point is traced
            assert calls[f"{module}.{function}.calls"] >= 1
    for prefix in ABSENT[name]:
        reached = {k: v for k, v in calls.items() if k.startswith(prefix) and v}
        assert reached == {}, f"{name} reached {prefix}"


def test_every_binding_is_wrapped_and_restored():
    import oscvar.annihilator
    import oscvar.linalg
    import oscvar.osc
    import oscvar.poly

    original = oscvar.osc.apply_generator_terms
    with Tracer():
        wrapped = oscvar.osc.apply_generator_terms
        assert getattr(wrapped, MARK, False)
        assert oscvar.annihilator.apply_generator_terms is wrapped
        assert oscvar.linalg.order_key is oscvar.poly.order_key
        assert getattr(oscvar.linalg.EchelonBasis.insert, MARK, False)
    assert oscvar.osc.apply_generator_terms is original
    assert oscvar.annihilator.apply_generator_terms is original
    assert installed_wrappers() == []


def test_missing_target_is_an_error_and_leaves_nothing_installed():
    class Stale(Tracer):
        def targets(self):
            return super().targets() + [("osc.gone", "osc", "no_such_function", "span", None)]

    with pytest.raises(AttributeError, match="no_such_function"):
        Stale().install()
    assert installed_wrappers() == []


def test_gate_reports_each_kind_of_mismatch():
    items = [("detvar", "verify_minor3_kernel", ())]
    expected = {"verify_minor3_kernel": {"verify_minor3_kernel": {"levels": [[0, 1, 0, 0]]}}}

    def outcome(**fields):
        return [{"source": "verify_minor3_kernel", "item": "verify_minor3_kernel", **fields}]

    good = {"passed": True, "invariants": {"levels": [[0, 1, 0, 0]]}}
    assert check_pass(expected, items, outcome(**good)) == (1, [])
    for bad in (
        outcome(**{**good, "passed": False}),
        outcome(**{**good, "invariants": {"levels": []}}),
        outcome(error="ValueError: boom"),
    ):
        attempted, problems = check_pass(expected, items, bad)
        assert attempted == 1 and len(problems) == 1
    assert check_pass(expected, items, []) == (1, [("verify_minor3_kernel", "missing from the run")])


def test_probe_samples_while_the_block_runs_and_restores_the_timer():
    import signal
    import time

    from probe import Probe

    before = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert probe.spent_s == pytest.approx(sum(dt for _offset, dt in probe.samples))
    speed, spent = probe.window()
    assert speed > 0 and spent == pytest.approx(probe.spent_s)
    assert probe.window(10.0, 20.0) == (speed, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
