import json

import pytest

from regtail.cli import main
from regtail import __version__


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
    import regtail.cli as cli

    def infinite_rate(h, delta, ctx):
        return float("inf"), cli.classify_regime(h, ctx)

    monkeypatch.setattr(cli, "rate_function", infinite_rate)
    for extra in ([], ["--csv"]):
        code, out, err = run_cli(
            capsys, "rate", "--pattern", "k3", "--delta", "1", "--n", "1e6",
            "--p", "1e-2", *extra,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


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
    from regtail.graphs import format_edge_list, petersen

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
    from regtail.graphs import format_edge_list, random_regular_bipartite

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
    from regtail.graphs import format_edge_list, from_edge_list

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
