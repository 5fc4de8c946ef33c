"""The benchmark's tracer wraps library names from outside the package, so
deleting or renaming one of them must fail here, not only under --trace 1.
"""

import importlib.util
from pathlib import Path

import regtail
import regtail.cli  # noqa: F401  (the tracer patches every module, cli included)

from conftest import run_fresh

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every module-level name and every traced class's attributes."""
    spaces = [regtail] + [getattr(regtail, m) for m in tracing.MODULES]
    for _, home, attrs, _ in tracing.LAYERS:
        for attr in attrs:
            if "." in attr:
                spaces.append(getattr(getattr(regtail, home), attr.split(".")[0]))
    return [(space, dict(vars(space))) for space in spaces]


def _resolve(home, attr):
    obj = getattr(regtail, home)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_names_resolve_and_uninstall_restores_them():
    tracing = _load_tracing()
    traced = [(home, attr) for _, home, attrs, _ in tracing.LAYERS for attr in attrs]
    originals = {key: _resolve(*key) for key in traced}
    assert all(callable(fn) for fn in originals.values())
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install(regtail)
    try:
        for key, fn in originals.items():
            assert _resolve(*key) is not fn, f"{key} was not wrapped"
    finally:
        tracer.uninstall()
    for space, names in before:
        now = vars(space)
        assert set(now) == set(names), space
        for name, value in names.items():
            assert now[name] is value, f"{space.__name__}.{name} not restored"


def test_package_resolves_every_traced_module_in_a_fresh_process():
    # the package loads its modules on demand, so the tracer's
    # getattr(regtail, m) must import each one, not find it already loaded
    code = ("import sys, types, regtail, regtail.cli\n"
            "print(all(isinstance(getattr(regtail, m), types.ModuleType)"
            " for m in sys.argv[1:]))")
    assert run_fresh(code, *_load_tracing().MODULES).strip() == "True"
