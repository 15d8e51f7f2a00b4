"""procure benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload grid_fine --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports procure from src/.
The seed picks one generated scenario (instance seed % POOL); the program
receives only that YAML file. Each repetition times, in this process:

- setup_s:  procure.scenario.load_scenario on the YAML;
- solve_s:  procure.cli.main(["solve", YAML, "--out", DIR]), or
            "exclusion-search" when the workload searches subsets;
- verify_s: procure.cli.main(["verify", YAML]) with stdout captured.

The host's speed is sampled while each call runs (hostspeed.py), and
the call's wall time is scaled to the reference host speed; the wall
times as measured are printed beside the metrics.

A traced solve call comes first as a warm-up; it is not timed, and the
instance shape and solver branch are read from its spans. Repetitions then
continue until --seconds have passed (at least MIN_REPS). Every call is
checked against reference.json: exit codes, the SHA-256 of schedule.csv,
outcome.csv and settlement.csv, buyer_utility and t0 in run_manifest.json,
and each check that passed at the reference must still pass. With
--trace 1, repetitions alternate traced and untraced, and the per-layer
metrics come from the traced ones (see tracer.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. "--workload all" runs every workload, each in a fresh process.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import PROBE_REFERENCE_S, HostSpeed
from tracer import Tracer, layer_metrics, solver_branch
from workloads import GENERATORS, POOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A grid_fine repetition takes 8-15 s, depending on other load on the
# host; with fewer than 4 samples one slow repetition moves the median.
MIN_REPS = 4
# Untraced repetitions repeat the set-up load until this many seconds have
# passed, so that setup_s, which is milliseconds on some workloads, rests
# on many samples spread over the run.
SETUP_SECONDS = 0.6
OUTPUTS = ("schedule.csv", "outcome.csv", "settlement.csv")
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
# OpenBLAS thread count, fixed so that every machine takes the same BLAS
# code path. With 2 threads on a 2-core box the wall time is the same as
# with 1 (grid_fine solve 2.9 s either way) while the second thread burns
# a core (5.4 s CPU against 2.9 s), which only exposes the timings to
# other load on the machine.
BLAS_THREADS = "1"

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def retain_freed_memory() -> None:
    """Keep memory that the program frees in this process's heap.

    By default glibc serves large arrays with mmap and returns freed memory
    to the kernel, so every numpy temporary faults its pages in afresh:
    about 757,000 minor faults per exclusion_wide solve, and 35-55% of the
    wall time as system time. On a virtual machine the cost of a fault
    follows the host's memory pressure, which moved whole batches of runs
    by 40-55%. With mmap off and no trimming, pages are faulted in once
    (during the warm-up) and reused, and the timings measure computation.
    """
    path = ctypes.util.find_library("c")
    libc = ctypes.CDLL(path) if path else None
    if not (hasattr(libc, "mallopt") and libc.mallopt(M_MMAP_MAX, 0)
            and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)):
        raise SystemExit("error: the benchmark needs glibc's mallopt")


def load_program():
    """Import procure from the checkout's src/; returns (cli, scenario, import_s)."""
    src = ROOT / "src"
    if not (src / "procure" / "cli.py").is_file():
        raise SystemExit(f"error: no procure sources at {src}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    retain_freed_memory()
    sys.path.insert(0, str(src))
    start = perf_counter()
    import procure.cli as cli
    import procure.scenario as scenario

    import_s = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: procure imported from {cli.__file__}, not {src}")
    return cli, scenario, import_s


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(cli, argv):
    """Call procure's CLI in process: (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # counted as a failed call; the run goes on
        return perf_counter() - start, None, out.getvalue(), traceback.format_exc()
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def solver_command(workload: str) -> str:
    return "exclusion-search" if workload == "exclusion_wide" else "solve"


def solve_result(out_dir: Path, code) -> dict:
    """What a solve call produced, in the form reference.json records."""
    result = {"exit": code, "digests": {}}
    for name in OUTPUTS:
        if (out_dir / name).is_file():
            result["digests"][name] = digest(out_dir / name)
    manifest = out_dir / "run_manifest.json"
    if manifest.is_file():
        data = json.loads(manifest.read_text())
        result["buyer_utility"] = data.get("buyer_utility")
        result["t0"] = data.get("t0")
    return result


def solve_problems(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit {got['exit']} != reference {ref['exit']}")
    for name, want in ref["digests"].items():
        have = got["digests"].get(name)
        if have != want:
            problems.append(f"{name} sha256 {have} != reference {want}")
    for key in ("buyer_utility", "t0"):
        if got.get(key) != ref[key]:
            problems.append(f"{key} {got.get(key)!r} != reference {ref[key]!r}")
    return problems


def parse_checks(report: str) -> dict:
    """check name -> passed, from the 'check=NAME status=...' report lines."""
    checks = {}
    for line in report.splitlines():
        fields = dict(f.split("=", 1) for f in line.split(" ")[:2] if "=" in f)
        if "check" in fields and "status" in fields:
            checks[fields["check"]] = fields["status"] == "pass"
    return checks


def verify_problems(code, checks: dict, ref: dict, newly_passing: set) -> list[str]:
    problems = []
    if code not in (0, 1) or code != (0 if all(checks.values()) else 1):
        problems.append(f"exit {code} does not match report {checks}")
    for name, passed in ref["checks"].items():
        if passed and not checks.get(name, False):
            problems.append(f"check {name} passed at reference, now {checks.get(name)}")
        elif not passed and checks.get(name):
            newly_passing.add(name)
    if code != ref["exit"] and not (ref["exit"] == 1 and code == 0):
        problems.append(f"exit {code} != reference {ref['exit']}")
    return problems


class Run:
    """State of one benchmark run on one scenario file."""

    def __init__(self, cli, scenario, workload: str, yaml_path: Path, work: Path, ref: dict):
        self.cli = cli
        self.scenario = scenario
        self.workload = workload
        self.yaml = yaml_path
        self.work = work
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.newly_passing: set = set()
        self.speed = HostSpeed()
        # Wall times as measured, and scaled to the reference host speed.
        self.raw = {"setup_s": [], "solve_s": [], "verify_s": []}
        self.samples = {"setup_s": [], "solve_s": [], "verify_s": []}

    def _record(self, problems: list[str], error: str = "") -> None:
        """Count one call, failed when there are problems or an error."""
        self.attempted += 1
        if problems or error:
            self.failed += 1
            if len(self.problems) < 5:  # report the first few failures only
                self.problems.append("; ".join(problems) + ("\n" + error if error else ""))

    def _sample(self, metric: str, seconds: list[float], start: float) -> None:
        """Keep wall times of calls made since start, as measured and
        scaled to the reference host speed."""
        scale = self.speed.scale(start, perf_counter())
        self.raw[metric].extend(seconds)
        self.samples[metric].extend(s * scale for s in seconds)

    def setup(self, tracer=None) -> list[float]:
        """Time load_scenario, repeated until SETUP_SECONDS have passed
        (once when traced); returns the times. The loads count as one call,
        failed if one raises."""
        times, error = [], ""
        while not error and (not times or (tracer is None and sum(times) < SETUP_SECONDS)):
            start = perf_counter()
            try:
                with tracer.span("setup") if tracer else contextlib.nullcontext():
                    self.scenario.load_scenario(self.yaml)
            except Exception:
                error = traceback.format_exc()
            times.append(perf_counter() - start)
        self._record([], error)
        return times

    def solve(self, tracer=None):
        """One solve call; returns (seconds, out_dir, stdout)."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [solver_command(self.workload), str(self.yaml), "--out", str(out_dir)]
        with tracer.span("solve") if tracer else contextlib.nullcontext():
            seconds, code, stdout, error = run_cli(self.cli, argv)
        got = solve_result(out_dir, code)
        self._record(solve_problems(got, self.ref["solve"]), error if code is None else "")
        return seconds, out_dir, stdout

    def verify(self, tracer=None) -> float:
        with tracer.span("verify") if tracer else contextlib.nullcontext():
            seconds, code, report, error = run_cli(self.cli, ["verify", str(self.yaml)])
        checks = parse_checks(report)
        problems = verify_problems(code, checks, self.ref["verify"], self.newly_passing)
        self._record(problems, error if code is None else "")
        return seconds

    def rep(self, tracer=None):
        """One repetition: set-up, solve, verify; returns (solve seconds, out_dir)."""
        start = perf_counter()
        self._sample("setup_s", self.setup(tracer), start)
        start = perf_counter()
        seconds, out_dir, _ = self.solve(tracer)
        self._sample("solve_s", [seconds], start)
        start = perf_counter()
        self._sample("verify_s", [self.verify(tracer)], start)
        return seconds, out_dir


def cells_open(out_dir: Path) -> int:
    path = out_dir / "schedule.csv"
    if not path.is_file():
        return 0
    rows = path.read_text().splitlines()[1:]
    return sum(",closed," not in row for row in rows)


def instance_shape(scenario, yaml_path: Path, out_dir: Path, tracer, stdout: str) -> dict:
    """Instance shape and solver branch of one traced solve call, as the
    program reports them: its loaded scenario, its outputs, its stdout and
    the spans of its calls."""
    sc = scenario.load_scenario(yaml_path)
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    shape = {
        "types": len(sc.space),
        "weather_states": len(sc.weather.states),
        "cells": sc.grid.n_cells,
        "n_open": cells_open(out_dir),
        "admissible": len(manifest["admissible"]),
        **solver_branch(tracer, manifest["admissible"]),
    }
    if sc.exclusion_search:
        shape["exhaustive"] = "(exhaustive)" in stdout
    return shape


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]
    return None


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"min={min(values):.4g} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"


def measure(args, cli, scenario, import_s: float) -> dict:
    workload = args.workload
    index = args.seed % POOL
    reference = json.loads(REFERENCE.read_text())
    ref = reference["workloads"][workload][str(index)]
    text = GENERATORS[workload](index)
    if hashlib.sha256(text.encode()).hexdigest() != ref["yaml_sha256"]:
        raise SystemExit(f"error: generated {workload} instance {index} differs from reference.json")

    work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yaml_path = work / "scenario.yaml"
        yaml_path.write_text(text)
        run = Run(cli, scenario, workload, yaml_path, work, ref)
        print(f"# workload={workload} seed={args.seed} instance={index} trace={args.trace}")

        tracer = Tracer()
        with tracer.installed():
            _, out_dir, stdout = run.solve(tracer)
        solved = (out_dir / "run_manifest.json").is_file()
        shape = instance_shape(scenario, yaml_path, out_dir, tracer, stdout) if solved else {}

        layers, traced_solve, plain_solve = [], [], []
        with run.speed.sampling():
            start = perf_counter()
            for rep in itertools.count():
                if perf_counter() - start >= args.seconds and rep >= MIN_REPS and (
                    not args.trace or len(layers) >= 2
                ):
                    break
                if args.trace and rep % 2 == 0:
                    tracer = Tracer()
                    with tracer.installed():
                        seconds, out_dir = run.rep(tracer)
                    traced_solve.append(seconds)
                    layers.append(
                        layer_metrics(
                            tracer,
                            cells_open(out_dir),
                            sum(f.stat().st_size for f in out_dir.glob("*") if f.is_file()),
                        )
                    )
                else:
                    seconds, out_dir = run.rep()
                    plain_solve.append(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    print(f"# shape {json.dumps(shape, sort_keys=True)}")
    if shape and shape != ref["shape"]:
        print(f"# shape differs from reference {json.dumps(ref['shape'], sort_keys=True)}")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
    if run.newly_passing:
        print(f"# newly passing checks: {sorted(run.newly_passing)}")
    share = run.failed / max(run.attempted, 1)
    print(f"failed_share {share:.6g} ({run.failed} of {run.attempted} calls)")

    if args.trace:
        metrics, units = trace_metrics(layers, traced_solve, plain_solve, import_s, workload)
    else:
        metrics = {name: statistics.median(v) for name, v in run.samples.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = E2E_UNITS
        for name, values in run.samples.items():
            t = tail(values)
            pct = f"p{t[0]:g}={t[1]:.6g} s" if t else "no percentile with 10 samples beyond"
            print(f"{name} median={metrics[name]:.6g} s {pct} n={len(values)} {quartiles(values)}")
            print(f"  wall time as measured: median={statistics.median(run.raw[name]):.6g} s"
                  f" {quartiles(run.raw[name])}")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB")
        kernel_us = [k * 1e6 for _, k in run.speed.samples]
        print(f"host-speed kernel (reference {PROBE_REFERENCE_S * 1e6:g} us):"
              f" median={statistics.median(kernel_us):.4g} us n={len(kernel_us)} {quartiles(kernel_us)}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "bytes" if name.endswith("bytes_written") else "count"


def trace_metrics(layers, traced_solve, plain_solve, import_s, workload):
    metrics, units = {}, {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        units[name] = layer_unit(name)
        if units[name] in ("s", "ms"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                print(f"# count {name} differs between traced repetitions: {values}")
            metrics[name] = values[0]
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(traced_solve) - statistics.median(plain_solve)
    units["cli.import_s"] = units["trace.overhead_s"] = "s"
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if workload == "grid_fine":
        print(
            "# ROADMAP baseline: 38 expected_cost_grid calls in solve, 98 in run_checks;"
            f" measured {metrics['costmodel.ec_calls_solve']} and"
            f" {metrics['costmodel.ec_calls_verify']}"
        )
    return metrics, units


def run_all(args) -> int:
    """Every workload, each in a fresh process; last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in GENERATORS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli, scenario, import_s = load_program()
    result = measure(args, cli, scenario, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
