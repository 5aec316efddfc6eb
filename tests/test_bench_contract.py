"""The names that ``perfbench/tracing.py`` patches must exist in the library.

``--trace 1`` wraps each of them at install and crashes if one is missing;
these tests catch a rename without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def chem(name):
    return importlib.import_module(f"chemostat.{name}")


@pytest.mark.parametrize("mod, attr", sorted(set(tracing.SPANS) | set(tracing.CALL_COUNTERS)))
def test_wrapped_function_exists(mod, attr):
    assert callable(getattr(chem(mod), attr))


@pytest.mark.parametrize("shape", tracing.SHAPES)
def test_shape_defines_its_own_evaluators(shape):
    cls = getattr(chem("scalarfn"), shape)
    assert "__call__" in cls.__dict__
    assert "eval_dual" in cls.__dict__


def test_other_patched_names_exist():
    assert "step" in chem("rk45").DormandPrince54.__dict__
    assert callable(chem("model").vector_field)
    assert issubclass(chem("cycles").NoReturnError, Exception)


def test_install_and_uninstall_round_trip():
    names = ("model", "scalarfn", "expr", "roots", "rk45", "equilibria",
             "certificates", "dynamics", "cycles", "cli")
    mods = {name: chem(name) for name in names}
    classes = [getattr(mods["scalarfn"], s) for s in tracing.SHAPES]
    classes.append(mods["rk45"].DormandPrince54)
    before = [dict(vars(m)) for m in mods.values()] + [dict(vars(c)) for c in classes]
    tracer = tracing.Tracer(mods)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    after = [dict(vars(m)) for m in mods.values()] + [dict(vars(c)) for c in classes]
    for old, new in zip(before, after):
        assert {k: new[k] for k in old} == old
