"""Golden records of the JSON verbs, the help text and each verb's imports,
and the stdout digests of two ``verify`` runs.

Each case runs the CLI in process on fixed argv over small edge-list files
and compares the whole stdout (command, parameters, result, version and
seed, in key order) with ``tests/data/cli_golden.json``. Input paths are
written as ``{tmp}`` there. ``tests/data/cli_help.json`` holds the text of
``--help`` and of every verb's ``--help`` at 80 columns.
"""

import json
from hashlib import sha256
from pathlib import Path

import pytest

from regtail.cli import build_parser, main

from conftest import run_fresh

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))
HELP = json.loads((DATA / "cli_help.json").read_text(encoding="utf-8"))

FILES = {
    "host.txt": "6 8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n",
    "planted.txt": "8 4\n0 1\n1 2\n0 2\n2 3\n",
    "c4.txt": "4 4\n0 1\n1 2\n2 3\n0 3\n",
    "k33.txt": "6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
}

CASES = {
    "rate": ["rate", "--pattern", "k3", "--delta", "1", "--n", "1e6", "--p", "1e-2"],
    "theta": ["theta", "--pattern-file", "{tmp}/c4.txt", "--delta", "1"],
    "count": ["count", "--pattern", "k3", "--graph", "{tmp}/host.txt", "--per-edge"],
    "count-hom": ["count", "--pattern", "c4", "--graph", "{tmp}/host.txt", "--hom"],
    "cond-exp": ["cond-exp", "--pattern", "k3", "--graph", "{tmp}/planted.txt",
                 "--n", "8", "--p", "0.25", "--exact", "--gain"],
    "classify": ["classify", "--pattern-file", "{tmp}/c4.txt", "--n", "1e4",
                 "--p", "0.01"],
    "peel": ["peel", "--pattern", "k3", "--graph", "{tmp}/host.txt", "--n", "100",
             "--p", "0.05", "--delta", "1", "--eps", "0.5", "--strong",
             "--emit-edges"],
    "partition": ["partition", "--graph", "{tmp}/host.txt", "--degree-threshold", "2"],
    "decompose-cycles": ["decompose", "--pattern", "petersen", "--mode", "cycles",
                         "--edge", "0", "1"],
    "decompose-ordered": ["decompose", "--pattern", "k4", "--mode", "ordered",
                          "--cherry", "0", "1", "2"],
    "color": ["color", "--graph", "{tmp}/k33.txt", "--avoid", "0", "3"],
    "color-pattern": ["color", "--pattern", "c6"],
    "plant": ["plant", "--kind", "clique:4+bipartite:2,3", "--n", "12", "--p", "0.1",
              "--emit-edges"],
    "varbound": ["varbound", "--pattern", "k3", "--delta", "0.5", "--n", "60",
                 "--p", "0.15", "--clique-range", "3:6", "--hub-range", "1:2",
                 "--candidate", "bipartite:2,3"],
    "simulate": ["simulate", "--pattern", "k3", "--n", "10", "--p", "0.3",
                 "--trials", "20", "--seed", "5"],
    "simulate-tail": ["simulate", "--pattern", "k3", "--n", "10", "--p", "0.3",
                      "--trials", "20", "--seed", "5", "--tail-delta", "0.5"],
    "simulate-planted": ["simulate", "--pattern", "k3", "--n", "8", "--p", "0.25",
                         "--trials", "20", "--planted", "{tmp}/planted.txt"],
    # above the basis range: these trials are counted on adjacency masks
    "simulate-sparse": ["simulate", "--pattern", "c5", "--n", "80", "--p", "0.05",
                        "--trials", "20", "--seed", "5"],
    "simulate-tail-sparse": ["simulate", "--pattern", "k3", "--n", "100", "--p", "0.1",
                             "--trials", "20", "--seed", "5", "--tail-delta", "0.05"],
}

JSON_VERBS = {"rate", "theta", "count", "cond-exp", "classify", "peel", "partition",
              "decompose", "color", "plant", "varbound", "simulate"}


@pytest.fixture
def run(tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)

    def _run(argv):
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
        out, err = capsys.readouterr()
        assert code == 0, err
        return out.replace(str(tmp_path), "{tmp}")

    return _run


def test_cases_cover_every_json_verb():
    assert {argv[0] for argv in CASES.values()} == JSON_VERBS
    assert set(GOLDEN) == set(CASES) | {"csv"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_record(run, name):
    assert run(CASES[name]) == json.dumps(GOLDEN[name]) + "\n"


def test_golden_csv(run):
    assert run(CASES["peel"] + ["--csv"]) == GOLDEN["csv"]


# sha256 of the whole stdout of verify, summary table and JSON lines: every
# instance count, violation and observation of these runs is pinned, so a
# faster checker must reproduce the recorded bytes
VERIFY_DIGESTS = {
    "--seed 0 --jsonl":
        "8c5bc86f289110f0affa53c6572b343a411734fa43676539b3dd3a7e91edc983",
    "--seed 5 --trials 3 --jsonl":
        "c35d52a4a54d738c5f27e0e36ecad9cc3fea5b65c2d21747bfe1162120f92a0e",
}


@pytest.mark.parametrize("args", sorted(VERIFY_DIGESTS))
def test_verify_output_digest(run, args):
    out = run(["verify", *args.split()])
    assert sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[args]


def test_help_covers_every_verb():
    verbs = build_parser()._subparsers._group_actions[0].choices
    assert set(HELP) == {"--help"} | {f"{verb} --help" for verb in verbs}


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_verb_parser_matches_the_full_parser(name):
    argv = CASES[name]
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)


def test_verb_parser_adds_only_its_own_arguments():
    subs = build_parser("cond-exp")._subparsers._group_actions[0].choices
    dests = {verb: [a.dest for a in sub._actions] for verb, sub in subs.items()}
    assert dests.pop("cond-exp") == ["help", "pattern", "pattern_file", "graph", "n",
                                     "p", "exact", "gain", "csv"]
    assert all(d == ["help"] for d in dests.values())


# stderr of two usage errors at 80 columns, recorded from the parser that
# added every verb's arguments: a verb missing a required option, and an
# unknown option before the verb
USAGE_ERRORS = {
    "cond-exp --pattern k3 --n 8 --p 0.25":
        "usage: regtail cond-exp [-h]\n"
        "                        (--pattern {c4,c5,c6,k3,k4,petersen} | --pattern-file FILE)\n"
        "                        --graph FILE --n N --p P [--exact] [--gain] [--csv]\n"
        "regtail cond-exp: error: the following arguments are required: --graph\n",
    "--bogus cond-exp --pattern k3 --graph g.txt --n 8 --p 0.25":
        "usage: regtail [-h] [--version]\n"
        "               {rate,theta,count,cond-exp,classify,peel,partition,decompose,"
        "color,plant,varbound,verify,simulate}\n"
        "               ...\n"
        "regtail: error: unrecognized arguments: --bogus\n",
}


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
def test_usage_error_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", USAGE_ERRORS[argv])


# The regtail modules each verb loads beside the package and cli, one case
# per verb, and whether numpy loads: a verb pays only for its own modules.
# None loads dataclasses, inspect or typing, which cost about 10 ms a
# process; numpy imports inspect itself.
RATEFN = {"graphs", "counting", "independence", "ratefn"}
LOADS = {
    "--version": ({"graphs"}, False),
    "rate": (RATEFN, False),
    "theta": ({"graphs", "independence"}, False),
    "count": ({"graphs", "counting"}, False),
    "cond-exp": (RATEFN, False),
    "classify": (RATEFN, False),
    "peel": ({"graphs", "counting", "structures"}, False),
    "partition": ({"graphs", "counting", "structures"}, False),
    "decompose-ordered": ({"graphs", "decompose"}, False),
    "color": ({"graphs", "decompose"}, False),
    "plant": (RATEFN, False),
    "varbound": (RATEFN, False),
    "verify": ({"graphs", "counting", "independence", "structures", "verify"}, False),
    "simulate-planted": ({"graphs", "counting", "sim"}, True),
}
ARGV = {**CASES, "--version": ["--version"],
        "verify": ["verify", "--seed", "0", "--trials", "1"]}
LOAD_PROBE = """
import json, sys
heavy = {"dataclasses", "inspect", "typing"} - set(sys.modules)
from regtail.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m[8:] for m in sys.modules if m.startswith("regtail."))
heavy = sorted(heavy & set(sys.modules))
print(json.dumps([code, loaded, "numpy" in sys.modules, heavy]))
"""


def test_loads_cover_every_verb():
    assert {ARGV[case][0] for case in LOADS} == JSON_VERBS | {"--version", "verify"}


@pytest.mark.parametrize("case", sorted(LOADS))
def test_verb_loads_only_its_modules(case, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in ARGV[case]]
    code, loaded, numpy, heavy = json.loads(run_fresh(LOAD_PROBE, *argv).splitlines()[-1])
    modules, uses_numpy = LOADS[case]
    assert code == 0
    assert set(loaded) == modules | {"cli"}
    assert numpy == uses_numpy
    if not uses_numpy:
        assert heavy == []
