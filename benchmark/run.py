#!/usr/bin/env python3
"""Benchmark of the regtail CLI: four workloads, end to end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload mc --seed 0 --seconds 22 --trace 0
    python3 benchmark/run.py --seconds 22        # all four workloads in turn

--trace 0 measures end to end. Each step is one ``python -m regtail.cli``
child process, started only after the previous one exited: a closed loop
with one client, never more than one child at a time. After one untimed
warm-up pass, passes of the workload repeat until --seconds have elapsed;
``--version`` is sampled before each pass for the set-up time. A speed
probe runs before every child and after the last one of a pass, and each
pass's step times are scaled by the mean of its probes (see SpeedProbe);
the ``--version`` samples are scaled by a start probe (Child.start_probe).

--trace 1 runs the same steps in this process through ``regtail.cli.main``,
alternating untraced and traced passes, and reports each layer's calls,
self time and work counts (see tracing.py).

Every output is checked: against the record in expected.json for recorded
seeds, and against invariants and the warm-up pass for every seed. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --record stores this seed's outputs as the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = Path(".bench_build")
STEP_TIMEOUT_S = 60.0
SETUP_SAMPLES_PER_PASS = 2
IMPORT_SAMPLES = 5
# Reported times are scaled to a machine on which one speed probe takes
# PROBE_REFERENCE_S and one start probe START_PROBE_REFERENCE_S; the raw
# times are printed and kept beside them.
PROBE_REFERENCE_S = 0.05
START_PROBE_CODE = "import numpy"
START_PROBE_REFERENCE_S = 0.2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# child processes


class Child:
    """Runs one child process, its output kept in files so the exact
    resource usage of that process can be read from wait4."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.dir = BUILD / "run"
        self.dir.mkdir(parents=True, exist_ok=True)

    def run(self, argv: list[str]) -> tuple[int, bytes, str, float, float]:
        """(exit code, stdout, stderr, wall seconds, max RSS in MB)."""
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0

    def cli(self, args) -> tuple[int, bytes, str, float, float]:
        return self.run([sys.executable, "-m", "regtail.cli", *args])

    def start_probe(self) -> float:
        """Wall time of a fresh interpreter that imports numpy and runs no
        regtail code.

        Process start and imports slow down with the machine's file cache
        and memory more than with its CPU speed, which the speed probe
        follows, so ``--version`` samples are scaled by this probe instead.
        """
        rc, _, err, wall, _ = self.run([sys.executable, "-c", START_PROBE_CODE])
        if rc != 0:
            raise RuntimeError(f"start probe failed: {err.strip()}")
        return wall


class SpeedProbe:
    """A fixed piece of pure-Python work, timed in this process.

    A shared machine's speed drifts by tens of percent within seconds and
    between minutes. The CLI steps slow down with it, so each pass's step
    times are divided by the mean of the probes taken between them: those
    ratios compare across runs where raw times do not. The probe mixes what
    regtail spends its time on (Fraction and integer arithmetic, dicts, set
    intersections on a sparse graph) but runs no regtail code, so no change
    to regtail moves it.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj: list[set[int]] = [set() for _ in range(4000)]
        for _ in range(24000):
            u, v = rng.randrange(4000), rng.randrange(4000)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 1200):
            total += Fraction(1, i * i)
        x = 0
        for i in range(120000):
            x += i * i % 7
            table[i & 1023] = x
        triangles = 0
        for u, au in enumerate(self.adj):
            for v in au:
                if v > u:
                    triangles += len(au & self.adj[v])
        self.samples.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Judges each step's output and counts attempts and failures.

    A step fails on a non-zero exit, a traceback, output that does not
    parse, a broken invariant, a mismatch with the record, or output that
    differs from the same step in the warm-up pass.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.record = workloads.load_expected().get(f"{workload}/{seed}")
        self.reference: dict[str, bytes] = {}
        self.parsed: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, step: workloads.Step, rc: int, stdout: bytes, stderr: str):
        """Return the parsed output, or None when the step failed."""
        self.attempted += 1
        problems = self._problems(step, rc, stdout, stderr)
        if problems:
            self.failed += 1
            self.problems += [f"{step.key}: {p}" for p in problems]
            return None
        return self.parsed[step.key]

    def _problems(self, step, rc, stdout, stderr) -> list[str]:
        out = []
        if rc != 0:
            out.append(f"exit code {rc}")
        if "Traceback" in stderr:
            out.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
        ref = self.reference.get(step.key)
        if ref is not None:
            if stdout != ref:
                out.append("stdout differs from the warm-up pass")
            return out
        try:
            parsed = workloads.parse(step, stdout.decode("utf-8"))
            out += step.check(parsed)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return out + [f"unexpected output: {exc!r}"]
        if self.record is not None:
            want = self.record.get(step.key)
            got = workloads.recordable(step, stdout, parsed)
            if want is None:
                out.append("no recorded value for this step")
            else:
                out += workloads.compare(want, got)
        if not out:
            self.reference[step.key] = stdout
            self.parsed[step.key] = parsed
        return out


# ---------------------------------------------------------------------------
# end-to-end measurement


def _another_pass(start: float, seconds: float, done: int) -> bool:
    """Start another pass while, at the average pass length so far, it
    would end less than half a pass after the deadline."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def measure(wl: workloads.Workload, checker: Checker, child: Child, seconds: float) -> dict:
    for step in wl.steps:  # warm-up: bytecode and file cache, and the reference output
        rc, out, err, _, _ = child.cli(step.argv)
        checker.judge(step, rc, out, err)
    probe = SpeedProbe()
    setup, walls, rates, rss, probes, start_probes = [], [], [], [], [], []
    step_walls: dict[str, list[float]] = {step.key: [] for step in wl.steps}
    start = time.perf_counter()
    while _another_pass(start, seconds, len(walls)):
        # A probe before every child and after the last one, so the pass's
        # probe mean follows the machine's speed through the pass.
        first = len(probe.samples)
        pass_setup, pass_start = [], []
        for _ in range(SETUP_SAMPLES_PER_PASS):
            probe()
            pass_start.append(child.start_probe())
            rc, out, err, wall, mb = child.cli(["--version"])
            checker.attempted += 1
            if rc != 0 or not out.strip():
                checker.failed += 1
                checker.problems.append(f"--version: exit code {rc}")
            pass_setup.append(wall)
        runs = []
        for step in wl.steps:
            probe()
            runs.append((step, child.cli(step.argv)))
        probe()
        probes.append(statistics.fmean(probe.samples[first:]))
        setup.append(pass_setup)
        start_probes.append(pass_start)
        walls.append(sum(wall for _, (_, _, _, wall, _) in runs))
        work, work_s = 0, 0.0
        for step, (rc, out, err, wall, _) in runs:  # checked after the timed pass
            parsed = checker.judge(step, rc, out, err)
            step_walls[step.key].append(wall)
            if step.work is not None:
                work += step.work(parsed) if parsed is not None else 0
                work_s += wall
        rates.append(work / work_s)
        rss.append(max(mb for _, (*_, mb) in runs))
    scales = [PROBE_REFERENCE_S / p for p in probes]
    start_scales = [START_PROBE_REFERENCE_S / statistics.fmean(p) for p in start_probes]
    flat_setup = [x for xs in setup for x in xs]
    raw = {"wall_s": statistics.median(walls), "setup_s": statistics.median(flat_setup),
           "work_per_s": statistics.median(rates)}
    return {
        "wall_s": (statistics.median(w * k for w, k in zip(walls, scales)), len(walls)),
        "setup_s": (statistics.median(x * k for xs, k in zip(setup, start_scales) for x in xs),
                    len(flat_setup)),
        "peak_rss_mb": (max(rss), len(rss)),
        "work_per_s": (statistics.median(r / k for r, k in zip(rates, scales)), len(rates)),
        "raw": raw,
        "samples": {"wall_s": walls, "setup_s": setup, "work_per_s": rates,
                    "probe_s": probes, "probe_samples_s": probe.samples,
                    "start_probe_s": start_probes, "steps": step_walls},
    }


# ---------------------------------------------------------------------------
# traced measurement


def import_times(child: Child) -> dict:
    code = ("import time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import regtail.cli; t2 = time.perf_counter(); "
            "print(t1 - t0, t2 - t0)")
    numpy_s, total_s = [], []
    for _ in range(IMPORT_SAMPLES):
        rc, out, err, _, _ = child.run([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"importing regtail failed: {err.strip()}")
        a, b = map(float, out.split())
        numpy_s.append(a)
        total_s.append(b)
    return {"cli.import_numpy_s": statistics.median(numpy_s),
            "cli.import_s": statistics.median(total_s)}


def measure_traced(wl, checker: Checker, child: Child, seconds: float, seed: int) -> dict:
    times = import_times(child)
    sys.path.insert(0, str(SRC))
    import regtail
    import regtail.cli

    if not Path(regtail.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"regtail imported from {regtail.__file__}, not from {SRC}")
    main = regtail.cli.main
    tracer = tracing.Tracer()
    for step in wl.steps:  # warm-up
        rc, out, err, _ = tracing.run_inprocess(main, step.argv)
        checker.judge(step, rc, out, err)
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while _another_pass(start, seconds, len(traced)):
        total = 0.0
        for step in wl.steps:
            rc, out, err, wall = tracing.run_inprocess(main, step.argv)
            checker.judge(step, rc, out, err)
            total += wall
        untraced.append(total)
        tracer.install(regtail)
        root = tracer.wrap("cli.main", main)
        first = len(tracer.spans)
        total = 0.0
        try:
            for step in wl.steps:
                tracer.step = f"{len(traced)}:{step.key}"
                rc, out, err, wall = tracing.run_inprocess(root, step.argv)
                checker.judge(step, rc, out, err)
                total += wall
        finally:
            tracer.uninstall()
        traced.append(total)
        passes.append(tracing.aggregate(tracer.spans[first:]))
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_dir / f"{wl.name}-seed{seed}.spans.jsonl")

    layers = {}
    for name in tracing.layer_names():
        rows = [p.get(name, {"calls": 0, "self_s": 0.0}) for p in passes]
        row = dict(rows[0])  # work counts repeat exactly from pass to pass
        row["self_s"] = statistics.fmean(r["self_s"] for r in rows)
        layers[name] = row
    times["trace.traced_s"] = statistics.fmean(traced)
    times["trace.untraced_s"] = statistics.fmean(untraced)
    return {"layers": layers, "times": times, "passes": len(traced)}


def per_layer_metrics(traced: dict) -> dict:
    values = dict(traced["times"])
    for name, row in traced["layers"].items():
        for k, v in row.items():
            values[f"{name}.{k}"] = v
    out = {}
    for name, unit in tracing.result_metric_names():
        out[name] = {"value": values.get(name, 0), "unit": unit}
    return out


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60).stdout.strip() or "unknown"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=ROOT).stdout.strip() if (ROOT / ".git").exists() else ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "regtail").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit or "not a git checkout",
        "src_sha256": digest.hexdigest()[:16],
    }


def print_end_to_end(wl, result: dict, checker: Checker) -> None:
    print(f"{'metric':<18} {'value':>14} {'raw':>14}  {'unit':<6} runs")
    for name, unit in END_TO_END:
        value, runs = result[name]
        raw = result["raw"].get(name, value)
        label = wl.rate_name if name == "work_per_s" else name
        print(f"{label:<18} {value:>14.6g} {raw:>14.6g}  {unit:<6} {runs}")
    rate = checker.failed / checker.attempted
    print(f"{'error_rate':<18} {rate:>14.6g} {rate:>14.6g}  {'ratio':<6} "
          f"{checker.attempted} steps")
    probes = result["samples"]["probe_samples_s"]
    starts = [x for xs in result["samples"]["start_probe_s"] for x in xs]
    print(f"speed probe: median {statistics.median(probes):.4f} s over {len(probes)} samples; "
          f"each pass is scaled to a {PROBE_REFERENCE_S} s probe")
    print(f"start probe `python -c '{START_PROBE_CODE}'`: median "
          f"{statistics.median(starts):.4f} s over {len(starts)} samples; setup_s is scaled "
          f"to a {START_PROBE_REFERENCE_S} s probe")


def print_layers(traced: dict) -> None:
    total = traced["times"]["trace.traced_s"]
    untraced = traced["times"]["trace.untraced_s"]
    print(f"{'layer':<40} {'calls':>9} {'self_s':>10} {'share':>7}  work")
    covered = 0.0
    for name, row in traced["layers"].items():
        covered += row["self_s"]
        work = "  ".join(f"{k}={v}" for k, v in row.items() if k not in ("calls", "self_s"))
        if name in ("ratefn.exact_conditional_expectation",
                    "ratefn.asymptotic_conditional_gain") and row.get("subsets"):
            work += f"  nonzero_subsets/subsets={row['nonzero_subsets'] / row['subsets']:.4f}"
        print(f"{name:<40} {row['calls']:>9} {row['self_s']:>10.4f} "
              f"{row['self_s'] / total:>7.1%}  {work}")
    print(f"in-process total per pass: traced {total:.4f} s, untraced {untraced:.4f} s, "
          f"tracing overhead {total - untraced:+.4f} s over {traced['passes']} passes")
    print(f"layer self times cover {covered / total:.1%} of the traced total")
    for k in ("cli.import_s", "cli.import_numpy_s"):
        print(f"{k} (fresh process, median of {IMPORT_SAMPLES}): {traced['times'][k]:.4f} s")


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, child: Child):
    wl = workloads.build(name, seed)
    checker = Checker(name, seed)
    log(f"{name}: seed {seed}, {'traced' if trace else 'end to end'}, "
        f"{'recorded' if checker.record else 'no record, invariants only'}")
    print(f"== workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    if trace:
        traced = measure_traced(wl, checker, child, seconds, seed)
        print_layers(traced)
        metrics = per_layer_metrics(traced)
        summary = {"layers": traced["layers"], "times": traced["times"]}
    else:
        result = measure(wl, checker, child, seconds)
        print_end_to_end(wl, result, checker)
        metrics = {n: {"value": result[n][0], "unit": u} for n, u in END_TO_END}
        summary = {n: {"value": result[n][0], "runs": result[n][1]} for n, _ in END_TO_END}
        summary["raw"] = result["raw"]
        summary["samples"] = result["samples"]
        summary[wl.rate_name] = summary["work_per_s"]
        summary["error_rate"] = checker.failed / checker.attempted
    for p in checker.problems[:20]:
        log(f"  FAILED {p}")
    return checker, metrics, summary


def record(name: str, seed: int, child: Child) -> None:
    wl = workloads.build(name, seed)
    data = workloads.load_expected()
    entry = {}
    for step in wl.steps:
        rc, out, err, _, _ = child.cli(step.argv)
        parsed = workloads.parse(step, out.decode("utf-8"))
        problems = step.check(parsed) + ([f"exit code {rc}"] if rc else [])
        if problems:
            raise SystemExit(f"error: {name} seed {seed} {step.key}: {problems}")
        entry[step.key] = workloads.recordable(step, out, parsed)
    data[f"{name}/{seed}"] = entry
    workloads.save_expected(data)
    log(f"recorded {name} seed {seed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in expected.json")
    args = parser.parse_args()
    if not (SRC / "regtail" / "cli.py").is_file():
        log(f"error: no regtail sources at {SRC / 'regtail'}; run from the repository root")
        return 2
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = Child(env)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        for name in names:
            record(name, args.seed, child)
        return 0

    env_info = environment()
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    attempted = failed = 0
    metrics, report = {}, {"environment": env_info, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        checker, m, summary = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                           child)
        attempted += checker.attempted
        failed += checker.failed
        report["workloads"][name] = summary
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
