"""Acceptance gate: the thirteen standing criteria of ``suite.CRITERIA``.

One test body runs each criterion, bound once per table row under the name
``test_criterion_NN_<name>`` so every criterion keeps its own test id.
Every check is exact (rational arithmetic, zero tolerance).  Each test
prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them live.  Stated wall-clock budgets are asserted as well; actual
runtimes are far below them.
"""

import time

from oscvar import suite


def _criterion_test(crit):
    def test():
        t0 = time.time()
        records = crit.run()
        elapsed = time.time() - t0
        if crit.num == 12:  # growth degrees of its three towers, in table order
            assert [r.payload["estimate"] for r in records] == [3, 4, 2]
        ok = all(r.status == "pass" for r in records)
        print(f"criterion {crit.num:2d} [{crit.label}]: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s / budget {crit.budget_s}s)", flush=True)
        for r in records:
            if r.status != "pass":
                print(f"    failing record: {r.name}: {r.payload}", flush=True)
        assert ok, f"criterion {crit.num} failed"
        assert elapsed < crit.budget_s, f"criterion {crit.num} exceeded its {crit.budget_s}s budget"

    test.__name__ = f"test_criterion_{crit.num:02d}_{crit.name}"
    return test


for _crit in suite.CRITERIA:
    _test = _criterion_test(_crit)
    globals()[_test.__name__] = _test
