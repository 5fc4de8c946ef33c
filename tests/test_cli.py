import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regtail
from regtail.cli import main
from regtail import __version__
from regtail.graphs import (
    MAX_MASK_BYTES,
    MAX_VERTICES,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    petersen,
)
from regtail.verify import report_jsonl, run_all, summary_table

from conftest import (
    forbid_kernel,
    format_edge_list,
    oracle_conditional_expectation,
    random_regular_bipartite,
    run_fresh,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_rate_dense_example(capsys):
    record = run_json(
        capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e6", "--p", "1e-2"
    )
    # n p = 1e4 exceeds sqrt(n) = 1e3: dense, so the tilted root wins
    assert record["result"]["regime"] == "dense-localized"
    assert record["result"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rate_sparse_example(capsys):
    record = run_json(
        capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e6", "--p", "1e-4"
    )
    # n p = 100 sits between log n and sqrt(n): sparse, clique cost 1/2
    assert record["result"]["regime"] == "sparse-localized"
    assert record["result"]["value"] == pytest.approx(0.5, abs=1e-12)


def test_record_schema(capsys):
    record = run_json(
        capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e6", "--p", "1e-2"
    )
    assert set(record) == {"command", "parameters", "result", "version", "seed"}
    assert record["command"] == "rate"
    assert record["version"] == __version__
    assert record["parameters"]["n"] == 1000000


def test_package_surface_resolves():
    import regtail

    assert len(regtail.__all__) == len(set(regtail.__all__))
    for name in regtail.__all__:
        assert hasattr(regtail, name), name


SURFACE_PROBE = """
import json, sys
import regtail
lazy = not any(m.startswith("regtail.") for m in sys.modules)
listed = set(regtail.__all__) <= set(dir(regtail))
try:
    regtail.no_such_name
except AttributeError as exc:
    error = str(exc)
from regtail import *
unbound = [n for n in regtail.__all__ if globals().get(n) is not getattr(regtail, n)]
import regtail.decompose, regtail.graphs
same = regtail.double_cover is regtail.graphs.double_cover is regtail.decompose.double_cover
print(json.dumps([lazy, listed, error, unbound, same]))
"""


def test_package_surface_loads_on_demand():
    lazy, listed, error, unbound, same = json.loads(run_fresh(SURFACE_PROBE))
    assert lazy, "import regtail loaded a submodule"
    assert listed
    assert error == "module 'regtail' has no attribute 'no_such_name'"
    assert unbound == []
    assert same


# each record's constructor parameters, in field order, with their defaults
RECORDS = {
    "graphs.Graph": "vertex_count edges adjacency_masks",
    "graphs.PatternGraph": "vertex_count edges adjacency_masks delta",
    "graphs.SparsityContext": "n p",
    "counting.CountReport": "total per_edge",
    "counting._Compiled": "order backs need inner lows weight gens=()",
    "ratefn.Regime": "tag density_scale sqrt_n poisson_ceiling",
    "ratefn.PlantedStructure": "descriptor realized",
    "independence.FractionalIndependence": "value witness",
    "structures.CoreParams": "delta eps context pattern c_bar=0.0 c_star=0.0",
    "structures.PredicateWitness":
        "satisfied violated_clause=None attained=None required=None",
    "structures.EdgePartition": "low_vertices e11 e12 e22",
    "verify.CheckResult": "check_id instances violations observations=None",
    "sim.RngSpec": "seed",
    "sim.McEstimate": "mean std_error trials",
    "decompose.EdgeColoring": "color num_colors",
    "decompose.CoverComponent": "kind vertices",
    "decompose.CycleEdgeCover": "components",
    "decompose.OrderedCover": "parts attachments",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_their_fields(name):
    module, _, cls_name = name.partition(".")
    cls = getattr(importlib.import_module(f"regtail.{module}"), cls_name)
    params = inspect.signature(cls).parameters.values()
    assert " ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params
    ) == RECORDS[name]
    assert cls._fields == tuple(p.name for p in params)


def test_theta_c4_example(capsys):
    record = run_json(capsys, "theta", "--pattern", "c4", "--delta", "1")
    assert record["result"]["theta"] == pytest.approx(0.22474487139158905, abs=1e-12)
    assert abs(record["result"]["residual"]) <= 1e-12 * 2


def test_count_file_example(capsys, tmp_path):
    path = tmp_path / "k23.txt"
    path.write_text("5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    record = run_json(capsys, "count", "--pattern", "c4", "--graph", str(path))
    assert record["result"]["count"] == 24


def test_count_hom_flag(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    record = run_json(
        capsys, "count", "--pattern", "c4", "--graph", str(path), "--hom"
    )
    assert record["result"]["count"] == 18


def test_count_missing_file_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "count", "--pattern", "k3", "--graph", "/nonexistent/g.txt"
    )
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_hostile_header_vertex_count_is_refused(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000 0\n")
    code, out, err = run_cli(
        capsys, "count", "--pattern", "k3", "--graph", str(path)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(MAX_VERTICES) in err


def _star_on_top_label(leaves: int) -> str:
    """Edge-list text of a star centred on vertex MAX_VERTICES - 1: few
    edges, but every leaf's mask is MAX_VERTICES bits wide."""
    top = MAX_VERTICES - 1
    return "\n".join([f"{MAX_VERTICES} {leaves}"]
                     + [f"{i} {top}" for i in range(leaves)]) + "\n"


def test_mask_heavy_file_is_refused_before_building(capsys, tmp_path):
    # its masks would take 1.25 GB; the text and parsed pairs take far less
    path = tmp_path / "star.txt"
    path.write_text(_star_on_top_label(MAX_VERTICES - 1))
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "count", "--pattern", "k3", "--graph", str(path)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error: adjacency masks would take ")
    assert err.endswith(f" above the limit of {MAX_MASK_BYTES}\n")
    assert err.count("\n") == 1
    assert peak < 64 << 20


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--pattern", "k3"])  # --delta, --n, --p missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--pattern", "k3", "--delta", "1", "--n", "1e400", "--p", "0.1"],
        ["rate", "--pattern", "k3", "--delta", "inf", "--n", "1e6", "--p", "1e-2"],
        ["rate", "--pattern", "k3", "--delta", "nan", "--n", "1e6", "--p", "1e-2"],
        ["rate", "--pattern", "k3", "--delta", "1", "--n", "1e6", "--p", "nan"],
        ["classify", "--pattern", "k3", "--n", "100", "--p", "inf"],
        ["classify", "--pattern", "k3", "--n", "nan", "--p", "0.1"],
        ["peel", "--pattern", "k3", "--graph", "g.txt", "--n", "30", "--p", "0.3",
         "--delta", "1", "--eps", "0.5", "--c-bar", "inf"],
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err


def test_non_finite_result_is_an_error_not_json(capsys, monkeypatch):
    import regtail.ratefn as ratefn

    def infinite_rate(h, delta, ctx):
        return float("inf"), ratefn.classify_regime(h, ctx)

    monkeypatch.setattr(ratefn, "rate_function", infinite_rate)
    for extra in ([], ["--csv"]):
        code, out, err = run_cli(
            capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e6",
            "--p", "1e-2", *extra,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("pattern, extra", [
    ("k3", []), ("k3", ["--tail-delta", "1"]), ("c4", []),
], ids=["extra0", "extra1", "c4-basis"])
def test_simulate_refuses_huge_n_before_pair_table(capsys, monkeypatch, pattern, extra):
    import regtail.sim as sim

    def no_pairs(n):
        raise AssertionError(f"pair table of n={n} requested")

    monkeypatch.setattr(sim, "_pairs", no_pairs)
    code, out, err = run_cli(
        capsys, "simulate", "--pattern", pattern, "--n", "1e6", "--p", "0.1",
        "--trials", "2", *extra,
    )
    assert code == 1
    assert out == ""
    assert err == (
        f"error: n=1000000 exceeds the sampling limit of {sim.MAX_SAMPLE_VERTICES}"
        " vertices\n"
    )


BAD_P = "p must lie strictly inside (0, 1), got 1.0"
SMALL_N = "n=3 smaller than pattern order 4"


@pytest.mark.parametrize("argv, planted, message", [
    (["--pattern", "c4", "--n", "300", "--p", "1"], None, BAD_P),
    (["--pattern", "c4", "--n", "300", "--p", "1"], "300 0\n", BAD_P),
    (["--pattern", "k4", "--n", "3", "--p", "0.5"], None, SMALL_N),
    (["--pattern", "k4", "--n", "3", "--p", "0.5"], "3 0\n", SMALL_N),
], ids=["p-one", "p-one-planted", "small-n", "small-n-planted"])
def test_simulate_refuses_bad_scale_before_sampling(
    capsys, monkeypatch, tmp_path, argv, planted, message
):
    import regtail.sim as sim

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before (n, p) was checked")

    if planted is not None:
        path = tmp_path / "planted.txt"
        path.write_text(planted)
        argv = [*argv, "--planted", str(path)]
    monkeypatch.setattr(sim, "_trial_counts", no_trials)
    code, out, err = run_cli(capsys, "simulate", *argv, "--trials", "2")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_tail_accepts_p_one(capsys):
    record = run_json(capsys, "simulate", "--pattern", "k3", "--n", "5", "--p", "1",
                      "--trials", "2", "--tail-delta", "1")
    assert record["result"]["threshold"] == 250.0
    assert record["result"]["frequency"] == 0.0


@pytest.mark.parametrize("argv, message", [
    (["count", "--pattern", "k3", "--graph", "{graph}", "--hom", "--per-edge"],
     "--per-edge cannot be combined with --hom"),
    (["peel", "--pattern", "k3", "--graph", "{graph}", "--n", "100", "--p", "0.05",
      "--delta", "1", "--eps", "0.5", "--c-bar", "-2"],
     "c_bar must be nonnegative, got -2.0"),
    (["plant", "--kind", "clique:x", "--n", "30", "--p", "0.1"],
     "bad structure sizes in 'clique:x'"),
    (["color"], "need --graph, --pattern, or --pattern-file"),
    (["varbound", "--pattern", "k3", "--delta", "1", "--n", "1e4", "--p", "5e-3",
      "--clique-range", "5"], "--clique-range takes LO:HI integers, got '5'"),
    (["varbound", "--pattern", "k3", "--delta", "1", "--n", "1e4", "--p", "5e-3",
      "--hub-range", "1:x"], "--hub-range takes LO:HI integers, got '1:x'"),
    (["simulate", "--pattern", "k3", "--n", "10", "--p", "0.3", "--trials", "2",
      "--tail-delta", "1", "--planted", "{missing}"],
     "--planted cannot be combined with --tail-delta"),
    (["simulate", "--pattern", "k3", "--n", "10", "--p", "0.3", "--trials", "2",
      "--seed", "-1"], "seed must lie in [0, 2**128), got -1"),
    (["simulate", "--pattern", "c4", "--n", "10", "--p", "0.3", "--trials", "2",
      "--seed", str(2**128)], f"seed must lie in [0, 2**128), got {2**128}"),
    (["color", "--graph", "{graph}", "--pattern", "petersen"],
     "--graph cannot be combined with --pattern or --pattern-file"),
    (["color", "--graph", "{graph}", "--pattern-file", "{graph}"],
     "--graph cannot be combined with --pattern or --pattern-file"),
    (["decompose", "--pattern", "k4", "--mode", "ordered"],
     "mode 'ordered' needs --cherry A B C"),
], ids=["count-hom-per-edge", "peel-negative-c-bar", "plant-bad-size", "color-no-graph",
        "varbound-bad-clique-range", "varbound-bad-hub-range",
        "simulate-tail-planted", "simulate-negative-seed", "simulate-seed-too-large",
        "color-graph-pattern", "color-graph-pattern-file",
        "decompose-ordered-no-cherry"])
def test_refusals_are_one_line_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    files = {"{graph}": str(path), "{missing}": str(tmp_path / "missing.txt")}
    argv = [files.get(a, a) for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def _cycle_file(path, n: int) -> str:
    path.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    return str(path)


@pytest.mark.parametrize("extra", [1, 400])
def test_pattern_above_the_vertex_limit_is_refused(capsys, tmp_path, extra):
    from regtail.counting import MAX_PATTERN_VERTICES as limit

    big = _cycle_file(tmp_path / "big.txt", limit + extra)
    k3 = _cycle_file(tmp_path / "k3.txt", 3)
    message = f"pattern has {limit + extra} vertices, above the limit of {limit}"
    for verb in (["count"], ["count", "--hom"]):
        assert run_cli(capsys, *verb, "--pattern-file", big, "--graph", k3) == (
            1, "", f"error: {message}\n"
        )


def test_pattern_at_the_vertex_limit_counts(capsys, tmp_path):
    from regtail.counting import MAX_PATTERN_VERTICES as limit

    # the search recurses through every pattern vertex on each copy
    ring = _cycle_file(tmp_path / "ring.txt", limit)
    record = run_json(capsys, "count", "--pattern-file", ring, "--graph", ring)
    assert record["result"]["count"] == 2 * limit


def test_domain_error_exits_one(capsys):
    # poisson regime is a domain refusal, not a crash
    code, out, err = run_cli(
        capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e4", "--p", "1e-4"
    )
    assert code == 1
    assert "error:" in err


def test_csv_mode(capsys):
    code, out, err = run_cli(
        capsys,
        "rate",
        "--pattern",
        "k3",
        "--delta",
        "1",
        "--n",
        "1e6",
        "--p",
        "1e-2",
        "--csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    cols = header.split(",")
    cells = row.split(",")
    assert len(cols) == len(cells)
    assert "result.value" in cols
    value = cells[cols.index("result.value")]
    assert value == "%.12g" % (1.0 / 3.0)


def test_classify_verb(capsys):
    record = run_json(
        capsys, "classify", "--pattern", "k3", "--n", "16", "--p", "0.25"
    )
    assert record["result"]["regime"] == "clique-only-boundary"


def test_pattern_file_with_automorphism_count(capsys, tmp_path):
    # petersen fed back through a file: counting it in itself finds its
    # 120 automorphisms
    path = tmp_path / "pet.txt"
    path.write_text(format_edge_list(petersen()))
    record = run_json(
        capsys,
        "count",
        "--pattern-file",
        str(path),
        "--graph",
        str(path),
    )
    assert record["result"]["count"] == 120


def test_subset_sum_cap_comes_before_the_automorphism_search(
    capsys, tmp_path, monkeypatch
):
    # the prism C7 x K2 is 3-regular with 21 edges, one over the cap
    import regtail.ratefn as ratefn

    def refuse(h, g):
        raise AssertionError("automorphism search reached")

    monkeypatch.setattr(ratefn, "copy_edge_lists", refuse)
    prism = from_edge_list(14, [
        *((i, (i + 1) % 7) for i in range(7)),
        *((7 + i, 7 + (i + 1) % 7) for i in range(7)),
        *((i, 7 + i) for i in range(7)),
    ])
    pattern = tmp_path / "prism.txt"
    pattern.write_text(format_edge_list(prism))
    host = tmp_path / "host.txt"
    host.write_text(format_edge_list(from_edge_list(20, combinations(range(5), 2))))
    scale = ("--n", "20", "--p", "0.3")
    for argv in (
        ("cond-exp", "--graph", str(host), *scale),
        ("cond-exp", "--graph", str(host), "--exact", "--gain", *scale),
        ("varbound", "--delta", "1", "--clique-range", "3:5", "--hub-range", "1:2",
         *scale),
    ):
        code, out, err = run_cli(capsys, argv[0], "--pattern-file", str(pattern),
                                 *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: 21 pattern edges; subset sum capped at 20\n"


def test_pattern_file_rejects_irregular(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, err = run_cli(
        capsys, "count", "--pattern-file", str(path), "--graph", str(path)
    )
    assert code == 1
    assert "error:" in err


def test_plant_verb_union(capsys):
    record = run_json(
        capsys,
        "plant",
        "--kind",
        "clique:5+bipartite:2,3",
        "--n",
        "40",
        "--p",
        "0.1",
    )
    assert record["result"]["edge_count"] == 16
    assert record["result"]["support_size"] == 10


def test_plant_verb_hub(capsys):
    record = run_json(
        capsys, "plant", "--kind", "hub:4", "--n", "30", "--p", "0.1"
    )
    assert record["result"]["edge_count"] == 4 * 26 + 6
    assert record["result"]["support_size"] == 30


@pytest.mark.parametrize("argv", [
    ["plant", "--kind", "clique:100000"],
    ["plant", "--kind", "hub:2"],
    ["plant", "--kind", "bipartite:50000,50000"],
    ["varbound", "--pattern", "k3", "--delta", "1", "--clique-range", "1:100000"],
    ["varbound", "--pattern", "k3", "--delta", "1", "--hub-range", "1:100000"],
])
def test_plant_refuses_huge_structure_before_building(capsys, monkeypatch, argv):
    import regtail.ratefn as ratefn

    def no_edges(*args):
        raise AssertionError(f"edge list of {args} requested")

    monkeypatch.setattr(ratefn, "from_edge_list", no_edges)
    code, out, err = run_cli(capsys, *argv, "--n", "100000", "--p", "0.1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: planted structure has ")
    assert err.endswith(f" edges, above the limit of {ratefn.MAX_PLANTED_EDGES}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["plant", "--kind", "clique:3"],
    ["plant", "--kind", "hub:1"],
    ["varbound", "--pattern", "k3", "--delta", "1", "--clique-range", "3:4"],
])
def test_plant_refuses_huge_canvas_before_building(capsys, monkeypatch, argv):
    import regtail.ratefn as ratefn

    def no_edges(*args):
        raise AssertionError(f"edge list of {args} requested")

    monkeypatch.setattr(ratefn, "from_edge_list", no_edges)
    code, out, err = run_cli(capsys, *argv, "--n", "1e9", "--p", "0.1")
    assert code == 1
    assert out == ""
    assert err == (
        f"error: canvas of n=1000000000 vertices is above the limit of {MAX_VERTICES}\n"
    )


def test_plant_refuses_mask_heavy_structure_before_building(capsys):
    # 99999 left vertices, each with a mask reaching label 99999: 1.25 GB,
    # though the part has only 99999 edges
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "plant", "--kind", "bipartite:99999,1",
                                 "--n", "100000", "--p", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error: adjacency masks would take ")
    assert err.endswith(f" above the limit of {MAX_MASK_BYTES}\n")
    assert err.count("\n") == 1
    assert peak < 1 << 20


def test_planted_cliques_and_hubs_skip_the_kernel(capsys, monkeypatch, tmp_path):
    n, p = 30, 0.2
    labels = (2, 9, 17, 23, 29)
    g = from_edge_list(n, combinations(labels, 2))
    path = tmp_path / "k5.txt"
    path.write_text(format_edge_list(g))
    expect = oracle_conditional_expectation(g, cycle(6), n, p)
    forbid_kernel(monkeypatch)
    record = run_json(capsys, "cond-exp", "--pattern", "c6", "--graph", str(path),
                      "--n", str(n), "--p", str(p), "--exact", "--gain")
    frac = f"{expect.numerator}/{expect.denominator}"
    assert record["result"]["expectation_exact"] == frac
    # the argmins the kernel gave for these two families
    record = run_json(capsys, "varbound", "--pattern", "k4", "--delta", "1",
                      "--n", "60", "--p", "0.1", "--clique-range", "4:20",
                      "--hub-range", "1:10")
    assert (record["result"]["argmin"], record["result"]["argmin_edges"]) == (
        ["clique", 4], 6)
    record = run_json(capsys, "varbound", "--pattern", "k4", "--delta", "1",
                      "--n", "400", "--p", "0.05", "--hub-range", "1:8")
    assert (record["result"]["argmin"], record["result"]["argmin_edges"]) == (
        ["hub", 1], 399)
    assert record["result"]["cost"] == 19.949999999999996


def test_plant_bad_kind_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "plant", "--kind", "ring:4", "--n", "30", "--p", "0.1"
    )
    assert code == 1
    assert "error:" in err


def test_cond_exp_exact_fraction(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("5 3\n0 1\n1 2\n0 2\n")
    record = run_json(
        capsys,
        "cond-exp",
        "--pattern",
        "k3",
        "--graph",
        str(path),
        "--n",
        "5",
        "--p",
        "0.5",
        "--exact",
    )
    assert "/" in record["result"]["expectation_exact"]
    assert record["result"]["expectation"] > record["result"]["unconditional"]


def test_verify_single_lemma(capsys):
    record_code, out, err = run_cli(capsys, "verify", "--lemma", "alpha")
    assert record_code == 0
    assert "alpha" in out
    assert "pass" in out


def test_verify_unknown_lemma_errors(capsys):
    code, out, err = run_cli(capsys, "verify", "--lemma", "nonsense")
    assert code == 1
    assert "error:" in err


def test_verify_is_run_all(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--lemma", "cycle", "--jsonl", "--seed", "5", "--trials", "4"
    )
    results = run_all(seed=5, trials=4, lemma="cycle")
    assert code == 0
    assert out == summary_table(results) + report_jsonl(results)


def test_verify_refuses_negative_trials(capsys):
    # a negative size would run no instance and still report a pass
    code, out, err = run_cli(capsys, "verify", "--trials", "-3", "--lemma", "alpha")
    assert (code, out) == (1, "")
    assert err == "error: trials must be non-negative, got -3\n"


def test_verify_jsonl_deterministic(capsys):
    code1, out1, err1 = run_cli(
        capsys, "verify", "--lemma", "alpha", "--jsonl", "--seed", "3"
    )
    code2, out2, err2 = run_cli(
        capsys, "verify", "--lemma", "alpha", "--jsonl", "--seed", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    line = out1.strip().split("\n")[-1]
    assert json.loads(line)["check"].startswith("alpha")


def test_simulate_mean(capsys):
    record = run_json(
        capsys,
        "simulate",
        "--pattern",
        "k3",
        "--n",
        "12",
        "--p",
        "0.3",
        "--trials",
        "60",
        "--seed",
        "5",
    )
    assert record["seed"] == 5
    assert record["result"]["trials"] == 60
    assert record["result"]["mean"] > 0


def test_color_avoid(capsys, tmp_path):
    g = random_regular_bipartite(3, 4, 17)
    path = tmp_path / "bip.txt"
    path.write_text(format_edge_list(g))
    first = sorted(g.edge_set())[0]
    record = run_json(
        capsys,
        "color",
        "--graph",
        str(path),
        "--avoid",
        str(first[0]),
        str(first[1]),
    )
    matching = [tuple(e) for e in record["result"]["matching"]]
    assert len(matching) == 4
    assert first not in matching


def test_decompose_cycles(capsys):
    record = run_json(
        capsys,
        "decompose",
        "--pattern",
        "petersen",
        "--mode",
        "cycles",
        "--edge",
        "0",
        "1",
    )
    comps = record["result"]["components"]
    covered = sorted(v for comp in comps for v in comp["vertices"])
    assert covered == list(range(10))
    forbidden = {(0, 1)}
    for comp in comps:
        vs = comp["vertices"]
        if comp["kind"] == "cycle":
            pairs = {
                tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
                for i in range(len(vs))
            }
        else:
            pairs = {tuple(sorted(vs))}
        assert not (pairs & forbidden)


def test_decompose_ordered(capsys):
    record = run_json(
        capsys,
        "decompose",
        "--pattern",
        "petersen",
        "--mode",
        "ordered",
        "--cherry",
        "0",
        "1",
        "2",
    )
    assert len(record["result"]["parts"]) >= 3
    assert len(record["result"]["attachments"]) == len(record["result"]["parts"]) - 3


def test_decompose_missing_edge_flag(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--pattern", "petersen", "--mode", "cycles"
    )
    assert code == 1
    assert "needs --edge" in err


def test_peel_verb(capsys, tmp_path):
    from regtail.graphs import from_edge_list

    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    path = tmp_path / "tri.txt"
    path.write_text(format_edge_list(g))
    record = run_json(
        capsys,
        "peel",
        "--pattern",
        "k3",
        "--graph",
        str(path),
        "--n",
        "100",
        "--p",
        "0.05",
        "--delta",
        "1.0",
        "--eps",
        "0.5",
    )
    assert record["result"]["edges_after"] == 3
    assert record["result"]["edges_before"] == 4


@pytest.mark.parametrize("strong", [False, True])
def test_peel_counts_the_host_once(capsys, monkeypatch, tmp_path, strong):
    # the peel's surviving per-edge counts judge the peeled host: no recount
    from regtail import counting, structures

    calls = []
    real = counting.count_with_edges

    def counted(h, g):
        calls.append(g.edge_count)
        return real(h, g)

    monkeypatch.setattr(counting, "count_with_edges", counted)
    monkeypatch.setattr(structures, "count_with_edges", counted)
    path = tmp_path / "host.txt"
    path.write_text("5 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n")
    record = run_json(capsys, "peel", "--pattern", "k3", "--graph", str(path),
                      "--n", "100", "--p", "0.05", "--delta", "1", "--eps", "0.5",
                      *(["--strong"] if strong else []))
    assert record["result"]["removed"] == 1
    assert calls == [7]


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "0", "--jsonl"],
    ["plant", "--kind", "clique:300", "--n", "400", "--p", "0.1", "--emit-edges"],
    ["theta", "--pattern", "k3", "--delta", "1"],
], ids=["verify-jsonl", "plant-emit-edges", "theta"])
def test_closed_stdout_ends_without_a_traceback(argv):
    # as under `| head -1`: the reader is gone before the first write
    read, write = os.pipe()
    os.close(read)
    src = Path(regtail.__file__).resolve().parents[1]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "regtail.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_peel_rejects_the_removed_copy_budget(capsys, tmp_path):
    path = tmp_path / "host.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["peel", "--pattern", "k3", "--graph", str(path), "--n", "100",
              "--p", "0.05", "--delta", "1.0", "--eps", "0.5", "--copy-budget", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --copy-budget 3" in err
    assert "Traceback" not in err


def test_varbound_verb(capsys):
    record = run_json(
        capsys,
        "varbound",
        "--pattern",
        "k3",
        "--n",
        "60",
        "--p",
        "0.15",
        "--delta",
        "0.5",
        "--clique-range",
        "3:12",
    )
    assert record["result"]["cost"] > 0
    assert record["result"]["argmin"][0] == "clique"
    assert record["result"]["argmin_edges"] > 0


def test_varbound_no_candidates_exits_one(capsys):
    code, out, err = run_cli(
        capsys,
        "varbound",
        "--pattern",
        "k3",
        "--n",
        "60",
        "--p",
        "0.15",
        "--delta",
        "0.5",
    )
    assert code == 1
    assert "no candidate" in err


@pytest.mark.parametrize("flag", ["--clique-range", "--hub-range"])
def test_varbound_huge_range_is_cut_before_building(capsys, monkeypatch, flag):
    import regtail.ratefn as ratefn

    argv = ["varbound", "--pattern", "k3", "--delta", "1", "--n", "100",
            "--p", "0.1", flag]
    expect = run_cli(capsys, *argv, "1:500")
    assert expect[0] == 1 and expect[2].startswith("error: ")
    lengths = []
    bound = ratefn.variational_upper_bound

    def recording(h, delta, ctx, family):
        lengths.append(len(family))
        return bound(h, delta, ctx, family)

    monkeypatch.setattr(ratefn, "variational_upper_bound", recording)
    assert run_cli(capsys, *argv, "1:1000000000") == expect
    assert lengths == [ratefn.MAX_PLANTED_EDGES + 1]
    # a range that fits is not cut: every size is a candidate
    record = run_json(capsys, *argv, "5:14")
    assert record["parameters"]["candidates"] == 10
    assert lengths[-1] == 10


# ---------------------------------------------------------------------------
# fuzzing: generated argv over generated edge-list text, in process

HOSTILE_HEADERS = [
    "1000000000000 0", "-1 0", "99999999999999999999999 0", "3", "a b",
    "0 0", "2 5", "4 0 1", "1e3 0", "inf 0",
]


# 3000 leaves on the top label need 37.5 MB of masks in a 33 KB file
MASK_HEAVY_TEXT = _star_on_top_label(3000)


@st.composite
def edge_list_text(draw):
    """(n, text): mostly well-formed edge lists, some with hostile headers,
    out-of-range endpoints, a junk line or masks above MAX_MASK_BYTES. Some
    are one clique plus isolated vertices, which cond-exp counts in closed
    form."""
    n = draw(st.integers(2, 8))
    if draw(st.sampled_from([False] * 9 + [True])):
        return n, MASK_HEAVY_TEXT
    ends = st.integers(0, n - 1)
    if draw(st.sampled_from([False] * 3 + [True])):
        members = sorted(draw(st.lists(ends, unique=True, max_size=n)))
        pairs = list(combinations(members, 2))
    else:
        pairs = draw(st.lists(
            st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=16
        ))
    header = draw(st.sampled_from([f"{n} {len(pairs)}"] * 20 + HOSTILE_HEADERS))
    lines = [header] + [f"{u} {v}" for u, v in pairs]
    junk = st.sampled_from(["1 1", "-1 2", f"0 {n}", "0", "# note"])
    junk |= st.text(max_size=10)
    for line in draw(st.lists(junk, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return n, "\n".join(lines) + "\n"


def _mostly(good: list, bad: list):
    """Mostly one of ``good``, sometimes one of ``bad``."""
    return st.sampled_from(good * (3 * len(bad)) + bad)


@st.composite
def cli_argv(draw, graph: str, pattern_file: str, n: int):
    verb = draw(st.sampled_from(["count", "cond-exp", "peel"]))
    if verb == "count" and draw(_mostly([False], [True])):
        argv = [verb, "--pattern-file", pattern_file]
    else:
        argv = [verb, "--pattern", draw(st.sampled_from(["k3", "c4", "k4", "c5"]))]
    argv += ["--graph", graph]
    flags = {"count": ["--per-edge", "--hom"], "cond-exp": ["--exact", "--gain"],
             "peel": ["--strong", "--emit-edges"]}[verb]
    argv += draw(st.lists(st.sampled_from(flags), unique=True))
    if verb != "count":
        argv += ["--n", draw(_mostly([str(n)], ["0", "-2", "12", "1e400", "nan"])),
                 "--p", draw(_mostly(["0.1", "0.5"], ["1", "0", "-0.2", "inf"]))]
    if verb == "peel":
        argv += ["--delta", draw(_mostly(["1", "0.2"], ["0", "-1", "1e400"])),
                 "--eps", draw(_mostly(["0.1", "0.5"], ["1", "2", "0"]))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_exits_cleanly(argv):
    """Run ``main`` in process: exit 0 with strict JSON, 1 with a one-line
    ``error:``, or 2 from argparse, and never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "crash: " + traceback.format_exc()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    elif code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(graph=edge_list_text(), pattern=edge_list_text(), data=st.data())
def test_cli_fuzz_exits_cleanly(graph, pattern, data):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, pattern_path = Path(tmp) / "g.txt", Path(tmp) / "h.txt"
        graph_path.write_text(graph[1], encoding="utf-8")
        pattern_path.write_text(pattern[1], encoding="utf-8")
        argv = data.draw(cli_argv(str(graph_path), str(pattern_path), graph[0]))
        _assert_exits_cleanly(argv)


# regular graphs, so that covers and colourings get past validation: cubic
# and quartic patterns, a 2-regular one, and regular bipartite hosts
REGULAR_TEXTS = [
    (g.vertex_count, format_edge_list(g), g.edges)
    for g in [complete(4), complete(5), complete_bipartite(3, 3), petersen(),
              cycle(5)]
    + [random_regular_bipartite(d, m, 7) for d, m in ((2, 3), (3, 4), (4, 5))]
]


@st.composite
def vertex_args(draw, n: int, edges, k: int):
    """k vertex arguments: a walk along ``edges`` (any k vertices below n
    when there are none), each sometimes out of range or not a number."""
    if edges:
        arcs = [arc for u, v in edges for arc in ((u, v), (v, u))]
        walk = list(draw(st.sampled_from(arcs)))
        while len(walk) < k:
            ahead = [v for u, v in arcs if u == walk[-1] and v not in walk]
            walk.append(draw(st.sampled_from(ahead)))
    else:
        walk = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return [draw(_mostly([str(w)], ["-1", str(n), "x"])) for w in walk]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_covers_exit_cleanly(data):
    if data.draw(_mostly([True], [False])):
        n, body, edges = data.draw(st.sampled_from(REGULAR_TEXTS))
    else:
        (n, body), edges = data.draw(edge_list_text()), ()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(body, encoding="utf-8")
        if data.draw(st.booleans()):
            mode = data.draw(st.sampled_from(["cycles", "ordered"]))
            argv = ["decompose", "--pattern-file", str(path), "--mode", mode]
            flag = data.draw(
                _mostly([{"cycles": "--edge", "ordered": "--cherry"}[mode]],
                        ["--edge", "--cherry", None])
            )
            if flag:
                arity = {"--edge": 2, "--cherry": 3}[flag]
                argv += [flag] + data.draw(vertex_args(n, edges, arity))
        else:
            argv = ["color", "--graph", str(path)]
            for _ in range(data.draw(st.integers(0, 3))):
                argv += ["--avoid"] + data.draw(vertex_args(n, edges, 2))
        _assert_exits_cleanly(argv)
