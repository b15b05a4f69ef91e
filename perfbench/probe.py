"""Core-speed probe: rescales measured times to an idle core's speed.

On a shared host the same pass can take 40% longer for minutes at a time,
and CPU time grows with wall time, so the slowdown is in the core itself
(a busy sibling thread or a lower clock), not in waiting.  Medians over a
run cannot remove a slowdown that lasts longer than the run.

The probe is a fixed piece of pure-Python work of the same kind as
oscvar's hot loops: sparse products of dicts keyed by exponent tuples and
fraction-free elimination.  While an item runs, a timer signal runs the
probe every ``INTERVAL_S`` seconds and records how long it took.  The
item's time is then scaled by the mean of ``NOMINAL_S / probe time``, the
probe's relative speed, over the samples taken during that item (for a
suite check record, during that record).  The probe's own time is taken
out of the measured time first.

The probe lives in the benchmark and never changes with the program, so a
change to oscvar moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import signal
import time
from math import gcd, inf

INTERVAL_S = 0.1
# Probe time on an idle core of the host the benchmark was tuned on
# (Intel Xeon at 2.1 GHz, Python 3.11); only a unit, the same for every run.
NOMINAL_S = 0.0015


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def _order(m: tuple):
    return (sum(m), m)


def _insert(rows: dict, row: dict) -> None:
    while row:
        lead = max(row, key=_order)
        prow = rows.get(lead)
        if prow is None:
            g = 0
            for v in row.values():
                g = gcd(g, v)
            rows[lead] = {m: v // g for m, v in row.items()}
            return
        g = gcd(row[lead], prow[lead])
        mr, mp = prow[lead] // g, row[lead] // g
        out = {m: mr * v for m, v in row.items()}
        for m, v in prow.items():
            s = out.get(m, 0) - mp * v
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        row = out


def _polys() -> list[dict]:
    rng = random.Random(7)
    return [
        {tuple(rng.randrange(3) for _ in range(8)): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)}
        for _ in range(6)
    ]


_POLYS = _polys()


def probe_work() -> int:
    """The fixed probe: echelon span of all pairwise products of six polynomials."""
    rows: dict = {}
    for i, a in enumerate(_POLYS):
        for b in _POLYS[i:]:
            _insert(rows, _mul(a, b))
    return len(rows)


def timed_probe() -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class Probe:
    """Samples the probe on a timer while the ``with`` block runs.

    After the block, ``spent_s`` and ``spent_cpu_s`` hold the probe's own
    wall and CPU time, and ``window`` gives the core's relative speed over
    any stretch of the block.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (offset into the block, probe time)
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._fallback: list[float] = []

    def _sample(self, _signum, _frame):
        c0 = time.process_time()
        offset = time.perf_counter() - self._start
        dt = timed_probe()
        self.spent_cpu_s += time.process_time() - c0
        self.spent_s += dt
        self.samples.append((offset, dt))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float = 0.0, end: float = inf) -> tuple[float, float]:
        """``(speed, probe time)`` over the samples taken from ``start`` to
        ``end`` seconds into the block; speed is the mean of
        ``NOMINAL_S / probe time``.

        A stretch without samples takes the whole block's speed, and a block
        too short to be sampled is measured by three probes right after it.
        """
        inside = [dt for offset, dt in self.samples if start <= offset < end]
        spent = sum(inside)
        if not inside:
            inside = [dt for _offset, dt in self.samples]
        if not inside:
            if not self._fallback:
                self._fallback = [timed_probe() for _ in range(3)]
            inside = self._fallback
        return sum(NOMINAL_S / dt for dt in inside) / len(inside), spent
