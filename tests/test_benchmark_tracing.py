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


def test_tracer_result_hooks_count_the_work_of_each_layer(tmp_path):
    # the hooks read the traced calls' arguments and results, so a changed
    # signature or result type must fail here, not only under --trace 1
    tracing = _load_tracing()
    host = tmp_path / "host.txt"  # K4 with a pendant edge: not one clique
    host.write_text("5 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n")
    k3 = ("--pattern", "k3")
    steps = (
        ("peel", *k3, "--graph", str(host), "--n", "100", "--p", "0.05",
         "--delta", "1", "--eps", "0.5"),
        ("count", *k3, "--graph", str(host), "--per-edge"),
        ("cond-exp", *k3, "--graph", str(host), "--n", "5", "--p", "0.1"),
        ("varbound", *k3, "--delta", "1", "--n", "1000", "--p", "0.01",
         "--clique-range", "8:16"),
        ("simulate", *k3, "--n", "10", "--p", "0.3", "--trials", "5"),
        ("verify", "--lemma", "strong"),
    )
    tracer = tracing.Tracer()
    tracer.install(regtail)
    try:
        for argv in steps:
            rc, _, err, _ = tracing.run_inprocess(regtail.cli.main, argv)
            assert rc == 0, (argv, err)
    finally:
        tracer.uninstall()
    rows = tracing.aggregate(tracer.spans)
    for layer, counter in (
        ("structures.peel", "edges_removed"),
        ("counting.count_with_edges", "copies"),
        ("ratefn.exact_conditional_expectation", "subsets"),
        ("ratefn.variational_upper_bound", "candidates"),
        ("sim.mc", "trials"),
        ("verify.strong-core-degree-product", "instances"),
    ):
        assert rows[layer].get(counter, 0) > 0, (layer, counter, dict(rows[layer]))
