"""Start-up: what a fresh process imports, and the plain classes that keep
it small.

Every CLI call is a fresh interpreter, so importing oscvar is paid before
each verdict.  None of the modules a verdict imports may pull in
``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``); the classes below are plain classes or ``NamedTuple``s, and
these tests pin the behaviour their callers read from them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscvar
from oscvar.detvar import GMonomial
from oscvar.osc import Config
from oscvar.reports import CheckRecord, Report

GUARDED = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "modules",
    ["oscvar.suite, oscvar.annihilator, oscvar.filtration, oscvar.detvar", "oscvar.cli"],
)
def test_import_loads_no_dataclasses_or_inspect(modules):
    # the child imports the same oscvar as this process, installed or not
    src = str(Path(oscvar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys; import {modules}; print([m for m in {GUARDED!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_suite_import_freezes_the_loaded_layers():
    # after the import, the layers' functions sit outside the collected
    # generations and the young-generation counters start from zero
    src = str(Path(oscvar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import gc, oscvar.suite, oscvar.osc; "
        "tracked = {id(o) for o in gc.get_objects()}; "
        "print(gc.get_count()[1:], id(oscvar.osc.generators) in tracked, "
        "id(oscvar.suite.run_suite) in tracked)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "(0, 0) False False"


def test_config_is_equal_and_hashed_by_its_fields():
    cfg = Config(4, 1, 3, -1, 1)
    assert cfg == Config(n=4, n1=1, n2=3, l1=-1, l2=1)
    assert hash(cfg) == hash((4, 1, 3, -1, 1))
    assert Config(3, 1, 2) == Config(3, 1, 2, 0, 0)
    assert hash(Config(3, 1, 2)) == hash((3, 1, 2, 0, 0))
    for other in (Config(4, 1, 3, -1, 0), Config(4, 2, 3, -1, 1), Config(5, 1, 3, -1, 1)):
        assert cfg != other
    # a tuple of the same fields is not a Config
    assert cfg != (4, 1, 3, -1, 1)
    assert len({Config(3, 1, 2), Config(3, 1, 2, 0, 0), Config(3, 1, 2, 0, 1)}) == 2


def test_config_repr_names_its_fields():
    assert repr(Config(4, 1, 3, -1, 1)) == "Config(n=4, n1=1, n2=3, l1=-1, l2=1)"
    assert repr(Config(3, 1, 2)) == "Config(n=3, n1=1, n2=2, l1=0, l2=0)"


def test_config_refuses_writes_and_checks_its_layout():
    cfg = Config(4, 1, 3, -1, 1)
    with pytest.raises(AttributeError):
        cfg.n = 5
    with pytest.raises(AttributeError):
        cfg.extra = 1
    with pytest.raises(AttributeError):
        del cfg.l1
    assert (cfg.n, cfg.n1, cfg.n2, cfg.l1, cfg.l2) == (4, 1, 3, -1, 1)
    for bad in ((1, 1, 1), (4, 0, 3), (4, 3, 2), (4, 1, 5)):
        with pytest.raises(ValueError):
            Config(*bad)


def test_config_caches_its_space_and_tables():
    cfg = Config(4, 1, 3, -1, 1)
    for name in ("space", "weyl_tables", "cartan_tables"):
        assert name not in vars(cfg)
        first = getattr(cfg, name)
        assert vars(cfg)[name] is first
        assert getattr(cfg, name) is first
    # an equal Config caches its own
    assert Config(4, 1, 3, -1, 1).cartan_tables is not cfg.cartan_tables


def test_record_and_report_defaults_are_per_instance():
    a, b = CheckRecord("a", "x", "pass"), CheckRecord("b", "x", "pass")
    assert a.payload == b.payload == {} and a.payload is not b.payload
    a.payload["k"] = 1
    assert b.payload == {}
    assert (a.elapsed, a.reason) == (0.0, "")
    r, s = Report("x", {}), Report("x", {})
    assert r.checks == s.checks == [] and r.checks is not s.checks
    r.checks.append(a)
    assert s.checks == [] and not s.params_too_small


def test_gmonomial_is_equal_and_hashed_by_its_parts():
    g = GMonomial((1,), (2,), ((3, 1),))
    assert g == GMonomial((1,), (2,), ((3, 1),))
    assert hash(g) == hash(((1,), (2,), ((3, 1),)))
    assert g != GMonomial((1,), (), ((3, 1),))
    assert repr(g) == "GMonomial(x_part=(1,), y_part=(2,), z_part=((3, 1),))"
