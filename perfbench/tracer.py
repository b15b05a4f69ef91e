"""Outside-in tracer: wraps public oscvar entry points from the benchmark.

Each traced name is replaced in every ``oscvar`` module namespace that
binds the original object (``from .osc import apply_generator_terms`` makes
``annihilator.apply_generator_terms`` a second binding), or on its class for
methods.  A span wrapper counts calls and accumulates self time: the span's
duration minus the time covered by the wrapped calls it made.  Work done by
observers after a call is charged to neither the span nor its parent.

Everything runs in one thread of one process, so nothing waits on a queue
or a lock and no wait time is recorded.  Spans are aggregated in memory
(one counter per name) rather than stored individually, because the hot
spans run millions of times per workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from fractions import Fraction

MARK = "__perfbench_wrapped__"


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for v in row.values():
            b = _bits(v)
            if b > best:
                best = b
    return best


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Counters and self times for the traced entry points.

    ``install`` wraps every target; ``uninstall`` restores every original.
    Use it as a context manager so an exception cannot leave wrappers in
    place.
    """

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.values: dict = defaultdict(int)
        self._stack = [0.0]  # time covered by wrapped children, per open span
        self._patched: list = []  # (namespace object, attribute, original)

    # -- observers: extra counts taken from arguments and results ----------

    def _observe_insert(self, args, kwargs, result):
        if result:
            self.values["linalg.insert.accepted"] += 1

    def _observe_kernel(self, args, kwargs, result):
        self.values["linalg.kernel_of_columns.columns"] += len(_arg(args, kwargs, 0, "columns"))
        self.values["linalg.kernel_of_columns.kernel_dim"] += len(result)
        self._note_bits(_max_bits(result))

    def _observe_level(self, args, kwargs, result):
        self.values["filtration.rows_total"] += result.dim
        self._note_bits(_max_bits(result.rows.values()))

    def _observe_piece(self, args, kwargs, result):
        self.values["annihilator.unknowns"] += result.unknown_count
        self.values["annihilator.coordinate_members"] += len(result.coordinate_members)
        preservers = _arg(args, kwargs, 3, "known_level_preservers")
        if preservers and _arg(args, kwargs, 1, "p") >= 2 and not result.split_symbols:
            self.values["annihilator.split_fallbacks"] += 1

    def _note_bits(self, bits):
        if bits > self.values["linalg.max_coeff_bits"]:
            self.values["linalg.max_coeff_bits"] = bits

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
            if observe is not None:
                t1 = clock()
                observe(args, kwargs, result)
                stack[-1] += clock() - t1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def targets(self):
        """(metric name, module, attribute, wrapper kind, observer).

        The attribute is ``function`` or ``Class.method``; the kind is
        ``span`` (calls and self time) or ``count`` (calls only, for
        functions too hot to time).
        """
        return [
            ("osc.apply_generator_terms", "osc", "apply_generator_terms", "span", None),
            ("osc.apply_generator", "osc", "apply_generator", "span", None),
            ("osc.project_T_monomial", "osc", "project_T_monomial", "span", None),
            ("linalg.insert", "linalg", "EchelonBasis.insert", "span", self._observe_insert),
            ("linalg.reduce_scaled", "linalg", "EchelonBasis.reduce_scaled", "span", None),
            ("linalg.contains", "linalg", "EchelonBasis.contains", "span", None),
            ("linalg.kernel_of_columns", "linalg", "kernel_of_columns", "span", self._observe_kernel),
            ("linalg.span_equal", "linalg", "span_equal", "span", None),
            ("poly.mul", "poly", "Poly.__mul__", "span", None),
            ("poly.substitute", "poly", "Poly.substitute", "span", None),
            ("poly.order_key", "poly", "order_key", "count", None),
            ("filtration.explicit_level", "filtration", "explicit_level", "span", self._observe_level),
            ("filtration.bruteforce_level", "filtration", "bruteforce_level", "span", self._observe_level),
            ("filtration.build_tower", "filtration", "build_tower", "span", None),
            ("filtration.compare_towers", "filtration", "compare_towers", "span", None),
            ("detvar.phi", "detvar", "phi", "span", None),
            ("detvar.enumerate_gset", "detvar", "enumerate_gset", "span", None),
            ("detvar.verify_minor2_kernel", "detvar", "verify_minor2_kernel", "span", None),
            ("detvar.verify_minor3_kernel", "detvar", "verify_minor3_kernel", "span", None),
            ("detvar.verify_gset_independence", "detvar", "verify_gset_independence", "span", None),
            ("annihilator.compute_annihilator_piece", "annihilator", "compute_annihilator_piece", "span", self._observe_piece),
            ("annihilator.apply_sym_monomial", "annihilator", "apply_sym_monomial", "span", None),
            ("annihilator.sym_membership", "annihilator", "sym_membership", "span", None),
            ("annihilator.operator_identically_zero", "annihilator", "operator_identically_zero", "span", None),
            ("annihilator.verify_variety_presentation", "annihilator", "verify_variety_presentation", "span", None),
        ]

    # -- installation ----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, module, attr, kind, observe in self.targets():
                home = importlib.import_module(f"oscvar.{module}")
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    if owner is None or member not in vars(owner):
                        raise AttributeError(f"oscvar.{module}.{attr} does not exist")
                    bindings = [owner]
                else:
                    if member not in vars(home):
                        raise AttributeError(f"oscvar.{module}.{attr} does not exist")
                    bindings = _module_bindings(vars(home)[member], member)
                original = vars(bindings[0])[member]
                if getattr(original, MARK, False):
                    raise RuntimeError(f"oscvar.{module}.{attr} is already wrapped")
                if kind == "span":
                    wrapper = self._span(name, original, observe)
                else:
                    wrapper = self._count(name, original)
                for ns in bindings:
                    setattr(ns, member, wrapper)
                    self._patched.append((ns, member, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patched:
            ns, member, original = self._patched.pop()
            setattr(ns, member, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values: ``<name>.calls``, ``<name>.s`` and the extras."""
        out = {}
        for name, _module, _attr, kind, _observe in self.targets():
            out[f"{name}.calls"] = self.calls[name]
            if kind == "span":
                out[f"{name}.s"] = self.self_s[name]
        inserts = self.calls["linalg.insert"]
        out["linalg.insert.accept_ratio"] = (
            self.values["linalg.insert.accepted"] / inserts if inserts else 0.0
        )
        for key in (
            "linalg.kernel_of_columns.columns",
            "linalg.kernel_of_columns.kernel_dim",
            "linalg.max_coeff_bits",
            "filtration.rows_total",
            "annihilator.unknowns",
            "annihilator.coordinate_members",
            "annihilator.split_fallbacks",
        ):
            out[key] = self.values[key]
        return out


def _module_bindings(original, member) -> list:
    """Every loaded oscvar module whose global ``member`` is ``original``."""
    return [
        mod
        for modname, mod in sorted(sys.modules.items())
        if (modname == "oscvar" or modname.startswith("oscvar."))
        and mod is not None
        and vars(mod).get(member) is original
    ]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still bound anywhere in oscvar."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "oscvar" or modname.startswith("oscvar.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for member, inner in vars(value).items():
                    if getattr(inner, MARK, False):
                        found.append(f"{modname}.{attr}.{member}")
    return found
