"""The four benchmark workloads: seeded inputs, CLI steps and output checks.

Every host, planted graph and pattern file is generated here from the
workload seed. The program sees only those files and the seed-derived
``--seed`` flags, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

INPUT_ROOT = Path(".bench_build") / "inputs"
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Floats may differ from the record by summation order only (ROADMAP item 2).
REL_TOL = 1e-12
# The root solver's stated residual contract.
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class Step:
    """One ``regtail`` invocation of a workload.

    ``check`` returns the invariant violations of the parsed output.
    ``work`` maps the parsed output to this step's share of the workload's
    work count; steps with ``work=None`` are outside the work rate.
    ``digest_only`` steps are recorded as a digest of stdout, so the check
    against the record is byte-for-byte.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[object], list[str]]
    work: Callable[[object], int] | None = None
    digest_only: bool = False

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str
    steps: tuple[Step, ...]


# ---------------------------------------------------------------------------
# seeded inputs


def _gnm(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """Uniform graph with exactly m edges; a fixed edge count keeps the
    work of one seed close to that of another."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return edges


def _clique(vertices) -> set[tuple[int, int]]:
    vs = sorted(vertices)
    return {(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]}


def _write(path: Path, n: int, edges) -> int:
    edges = sorted(edges)
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(edges)


def _input_dir(name: str) -> Path:
    d = INPUT_ROOT / name
    d.mkdir(parents=True, exist_ok=True)
    return d


# ---------------------------------------------------------------------------
# invariant helpers


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _need(ok: bool, message: str, out: list[str]) -> None:
    if not ok:
        out.append(message)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _simulate_check(trials: int, frequency: bool):
    def check(rec) -> list[str]:
        r, out = rec["result"], []
        _need(r["trials"] == trials, f"trials {r['trials']} != {trials}", out)
        _need(_is_finite(r["std_error"]) and r["std_error"] >= 0, "bad std_error", out)
        if frequency:
            _need(0 <= r["frequency"] <= 1, "frequency outside [0, 1]", out)
        else:
            _need(_is_finite(r["mean"]) and r["mean"] >= 0, "bad mean", out)
        return out

    return check


def _count_check(edge_count: int, host_edges: int, per_edge: bool):
    def check(rec) -> list[str]:
        r, out = rec["result"], []
        _need(_is_count(r["count"]), "count is not a non-negative int", out)
        if per_edge:
            pe = r["per_edge"]
            _need(len(pe) == host_edges, f"{len(pe)} per-edge keys, host has {host_edges}", out)
            _need(all(_is_count(c) for c in pe.values()), "per-edge count not an int", out)
            total = sum(pe.values())
            _need(total == edge_count * r["count"],
                  f"sum(per_edge)={total} != e(H)*count={edge_count * r['count']}", out)
        return out

    return check


def _peel_check(host_edges: int):
    def check(rec) -> list[str]:
        r, out = rec["result"], []
        before, after = r["edges_before"], r["edges_after"]
        _need(before == host_edges, f"edges_before {before} != {host_edges}", out)
        _need(_is_count(after) and after <= before, "edges_after > edges_before", out)
        _need(r["removed"] == before - after, "removed != before - after", out)
        return out

    return check


def _cond_exp_check(rec) -> list[str]:
    r, out = rec["result"], []
    num, _, den = r["expectation_exact"].partition("/")
    exact = float(Fraction(int(num), int(den)))
    _need(_close(r["expectation"], exact),
          f"float {r['expectation']!r} != exact {exact!r} within {REL_TOL}", out)
    _need(_is_finite(r["asymptotic_gain"]), "bad asymptotic_gain", out)
    return out


def _varbound_check(rec) -> list[str]:
    r, out = rec["result"], []
    _need(r["argmin"][0] == "clique", "argmin is not a clique", out)
    m = r["argmin"][1]
    _need(r["argmin_edges"] == m * (m - 1) // 2, "argmin_edges != m(m-1)/2", out)
    _need(_close(r["cost"] * r["edge_scale"], r["argmin_edges"]),
          "cost != argmin_edges / edge_scale", out)
    return out


def _theta_check(rec) -> list[str]:
    r, out = rec["result"], []
    _need(0 < r["theta"] < 1, "theta outside (0, 1)", out)
    _need(abs(r["residual"]) <= RESIDUAL_TOL, f"|residual| > {RESIDUAL_TOL}", out)
    return out


def _verify_check(rows) -> list[str]:
    out: list[str] = []
    _need(len(rows) == 8, f"{len(rows)} checkers reported, expected 8", out)
    for row in rows:
        _need(row["status"] == "pass", f"checker {row['check']} failed", out)
        _need(row["violations"] == [], f"checker {row['check']} has violations", out)
    return out


# ---------------------------------------------------------------------------
# workloads


def _mc(seed: int) -> Workload:
    rng = random.Random(f"mc:{seed}")
    planted = _input_dir("mc") / "planted_k5.txt"
    _write(planted, 20, _clique(rng.sample(range(20), 5)))
    s1, s2, s3 = (str(rng.randrange(2**32)) for _ in range(3))
    trials = lambda rec: rec["result"]["trials"]  # noqa: E731
    return Workload("mc", "trials_per_s", (
        Step("simulate-k3-planted-k5",
             ("simulate", "--pattern", "k3", "--n", "20", "--p", "0.3",
              "--trials", "2000", "--seed", s1, "--planted", str(planted)),
             _simulate_check(2000, False), trials, digest_only=True),
        Step("simulate-k3-gnp",
             ("simulate", "--pattern", "k3", "--n", "30", "--p", "0.2",
              "--trials", "1000", "--seed", s2),
             _simulate_check(1000, False), trials, digest_only=True),
        Step("simulate-c4-tail",
             ("simulate", "--pattern", "c4", "--n", "16", "--p", "0.3",
              "--tail-delta", "0.25", "--trials", "1000", "--seed", s3),
             _simulate_check(1000, True), trials, digest_only=True),
    ))


def _host(seed: int) -> Workload:
    rng = random.Random(f"host:{seed}")
    d = _input_dir("host")
    sparse, planted = d / "gnm_1000.txt", d / "gnm_300_k20.txt"
    # G(1000, 0.01) and G(300, 0.05) with the expected edge count fixed.
    # The C4 peel enumerates every copy at once, so its memory grows as
    # K^4 in the planted clique; K20 keeps one peel near a second.
    m_sparse = _write(sparse, 1000, _gnm(rng, 1000, 4995))
    m_planted = _write(
        planted, 300, _gnm(rng, 300, 2242) | _clique(rng.sample(range(300), 20))
    )
    copies = lambda rec: rec["result"]["count"]  # noqa: E731
    steps = []
    for name, e in (("k3", 3), ("c4", 4), ("c5", 5)):
        steps.append(Step(f"count-{name}",
                          ("count", "--pattern", name, "--graph", str(sparse)),
                          _count_check(e, m_sparse, False), copies))
    steps.append(Step("count-c4-per-edge",
                      ("count", "--pattern", "c4", "--graph", str(sparse), "--per-edge"),
                      _count_check(4, m_sparse, True), copies))
    steps.append(Step("count-c4-hom",
                      ("count", "--pattern", "c4", "--graph", str(sparse), "--hom"),
                      _count_check(4, m_sparse, False), copies))
    for name in ("k3", "c4"):
        for strong in (False, True):
            argv = ("peel", "--pattern", name, "--graph", str(planted), "--n", "300",
                    "--p", "0.05", "--delta", "4", "--eps", "0.5")
            steps.append(Step(f"peel-{name}-{'strong' if strong else 'core'}",
                              argv + (("--strong",) if strong else ()),
                              _peel_check(m_planted)))
    return Workload("host", "copies_per_s", tuple(steps))


def _condexp(seed: int) -> Workload:
    rng = random.Random(f"condexp:{seed}")
    d = _input_dir("condexp")
    planted, k33 = d / "planted_k8.txt", d / "k33.txt"
    _write(planted, 60, _clique(rng.sample(range(60), 8)))
    # a seeded relabelling of K3,3; the expectation does not depend on it
    perm = rng.sample(range(6), 6)
    _write(k33, 6, {tuple(sorted((perm[i], perm[3 + j]))) for i in range(3) for j in range(3)})
    scale = ("--n", "60", "--p", "0.1")
    steps = []
    for key, pattern, e in (("k4", ("--pattern", "k4"), 6), ("c6", ("--pattern", "c6"), 6),
                            ("k33", ("--pattern-file", str(k33)), 9)):
        # --gain walks the 2^e(H) subsets a second time
        steps.append(Step(f"cond-exp-{key}",
                          ("cond-exp", *pattern, "--graph", str(planted), *scale,
                           "--exact", "--gain"),
                          _cond_exp_check, lambda rec, e=e: 2 * 2**e))
    steps.append(Step("varbound-k4",
                      ("varbound", "--pattern", "k4", "--delta", "1", *scale,
                       "--clique-range", "4:20"),
                      _varbound_check,
                      lambda rec: rec["parameters"]["candidates"] * 2**6))
    return Workload("condexp", "subsets_per_s", tuple(steps))


def _verify(seed: int) -> Workload:
    rng = random.Random(f"verify:{seed}")
    instances = lambda rows: sum(r["instances"] for r in rows)  # noqa: E731
    # The work of one checker seed swings with its random hosts (the dense
    # ones dominate), so a pass runs three seeds to keep passes comparable.
    steps = [Step(f"verify-{i}", ("verify", "--seed", str(rng.randrange(10**6)), "--jsonl"),
                  _verify_check, instances, digest_only=True) for i in range(3)]
    steps.append(Step("theta-petersen", ("theta", "--pattern", "petersen", "--delta", "1"),
                      _theta_check))
    return Workload("verify", "instances_per_s", tuple(steps))


WORKLOADS = {"mc": _mc, "host": _host, "condexp": _condexp, "verify": _verify}


def build(name: str, seed: int) -> Workload:
    """Write the workload's input files for this seed and return its steps."""
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# parsing and checking one step's output


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


def _strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


def _parse_verify(text: str) -> list[dict]:
    """The summary table followed by one JSON line per checker."""
    lines = text.splitlines()
    if not lines or lines[0].split() != ["check", "instances", "violations", "status"]:
        raise ValueError("verify output does not start with the summary table")
    split = next((i for i, ln in enumerate(lines) if ln.startswith("{")), len(lines))
    table = lines[1:split]
    records = [_strict_json(ln) for ln in lines[split:]]
    if len(table) != len(records):
        raise ValueError(f"{len(table)} table rows but {len(records)} JSON lines")
    rows = []
    for row, rec in zip(table, records):
        check, instances, violations, status = row.split()
        if (check, int(instances), int(violations)) != (
            rec["check"], rec["instances"], len(rec["violations"])
        ):
            raise ValueError(f"table row {row!r} disagrees with its JSON line")
        rows.append({**rec, "status": status})
    return rows


def parse(step: Step, stdout: str):
    if step.verb == "verify":
        return _parse_verify(stdout)
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)} lines")
    rec = _strict_json(lines[0])
    if not isinstance(rec, dict) or rec.get("command") != step.verb:
        raise ValueError(f"record is not a {step.verb} record")
    return rec


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recordable(step: Step, stdout: bytes, parsed) -> dict:
    """What the record keeps of one step's output."""
    if step.digest_only:
        return {"sha256": digest(stdout)}
    rec = json.loads(json.dumps(parsed))
    pe = rec["result"].get("per_edge")
    if pe is not None:
        rec["result"]["per_edge"] = {
            "sha256": digest(json.dumps(pe, sort_keys=True).encode())
        }
    return {"record": rec}


def compare(expected, actual, path: str = "") -> list[str]:
    """Exact on ints, strings, bools and null; REL_TOL on floats; the
    root residual against its absolute contract."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != recorded {sorted(expected)}"]
        out = []
        for k in expected:
            out += compare(expected[k], actual[k], f"{path}.{k}" if path else k)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != recorded {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and _is_finite(actual) and not isinstance(actual, int):
        if path.endswith("residual"):
            ok = abs(actual) <= RESIDUAL_TOL
        else:
            ok = _close(expected, actual)
        return [] if ok else [f"{path}: {actual!r} != recorded {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != recorded {expected!r}"]
    return []


def load_expected() -> dict:
    """Recorded outputs, keyed by "<workload>/<seed>", then by step key."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def save_expected(data: dict) -> None:
    """One line per workload and seed, so records diff cleanly."""
    keys = sorted(data, key=lambda k: (k.split("/")[0], int(k.split("/")[1])))
    lines = [f"{json.dumps(k)}: {json.dumps(data[k], sort_keys=True, separators=(',', ':'))}"
             for k in keys]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
