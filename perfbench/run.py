"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--save FILE]

Run from the repository root.  Each iteration launches the ``repro``
CLI as its own process (``python -m perfbench.launch``, which runs
``python -m repro`` with the benchmark's hooks) and checks its output.
Iteration k passes ``--seed 1000*N + k`` to the CLI, so a run's median
spans several inputs and the same N always gives the same inputs.
Iterations repeat until ``--seconds`` is spent; the reported value of
each metric is the median over iterations.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--save FILE`` appends that result, with the workload, seed and
environment, to FILE as one JSON line (input for perfbench/compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GRID_LEG,
    WORKERS,
    WORKLOADS,
    Outcome,
    Workload,
    check,
)

#: Thread-count variables pinned to 1 for every CLI process, so the
#: two pool workers are the only parallelism (numpy would otherwise
#: start BLAS threads on a 2-CPU machine).
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Kill a CLI process group that runs longer than this (seconds).
CLI_TIMEOUT = 100.0
#: Stop starting iterations once this much time has passed (seconds),
#: so a run ends well inside 180 s.
HARD_STOP = 120.0
#: Setup-only launches per full iteration: ``setup_s`` is the median
#: over these and the full iterations.
SETUP_PROBES = 2
#: Iteration k of a run with ``--seed N`` runs the CLI on seed
#: ``SEED_STRIDE * N + k``.
SEED_STRIDE = 1000


@dataclass
class Launch:
    """One CLI process: its resource use, hook stamps and output."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stamp: dict
    stdout: str
    workdir: Path

    @property
    def setup_s(self) -> Optional[float]:
        if "dispatch" not in self.stamp:
            return None
        return self.stamp["dispatch"] - self.stamp["launch"]


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_FAULT_SPEC", None)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a CLI's process group and wait until it is gone."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def launch(mode: str, argv: List[str], workdir: Path) -> Launch:
    """Run ``repro ARGV`` under the launcher in ``mode``; wait for it."""
    workdir.mkdir(parents=True)
    (workdir / "spans").mkdir()
    stamp_path = workdir / "stamp.json"
    command = [
        sys.executable, "-m", "perfbench.launch", mode, str(stamp_path),
        str(workdir / "spans"), "--", *argv,
    ]
    with open(workdir / "stdout.txt", "w") as out, \
            open(workdir / "stderr.txt", "w") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=cli_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(CLI_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the CLI and its workers first
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            _reap_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else {}
    stamp["launch"] = started
    return Launch(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        # wait4 reports the largest ru_maxrss of the CLI and the workers it reaped.
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stamp=stamp,
        stdout=(workdir / "stdout.txt").read_text(),
        workdir=workdir,
    )


class Runner:
    """Iterations of one workload inside a scratch directory of the checkout."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.outcome: Optional[Outcome] = None

    def run(self, mode: str, iteration: int,
            workload: Optional[Workload] = None) -> Launch:
        """Launch iteration ``iteration`` in ``mode`` and check its output."""
        workload = workload or self.workload
        self.count += 1
        workdir = self.scratch / f"{self.count:03d}-{mode}"
        ckpt = workdir / "ckpt"
        seed = SEED_STRIDE * self.seed + iteration
        result = launch(mode, workload.argv(seed, ckpt), workdir)
        if mode != "setup":
            outcome = self.outcome = check(workload, result.code, result.stdout, ckpt)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.problems += [f"{workload.name}: {p}" for p in outcome.problems]
            if mode == "trace" and result.stamp.get("unpatched"):
                self.failed += outcome.attempted - outcome.failed
                self.problems.append(
                    f"trace missed callers: {result.stamp['unpatched']}"
                )
        elif result.code != 0 or result.setup_s is None:
            self.problems.append(f"setup probe exited {result.code}")
        shutil.rmtree(workdir / "ckpt", ignore_errors=True)
        return result


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _keep_going(started: float, laps: List[float], seconds: float, done: int,
                minimum: int) -> bool:
    elapsed = time.monotonic() - started
    if elapsed > HARD_STOP:
        return False
    if done < minimum:
        return True
    return elapsed + _median(laps) <= seconds


def end_to_end(runner: Runner, seconds: float) -> Dict[str, float]:
    """Untraced iterations; medians of the user-visible metrics."""
    started = time.monotonic()
    runs: List[Launch] = []
    setups: List[float] = []
    laps: List[float] = []
    while _keep_going(started, laps, seconds, len(runs), minimum=2):
        lap = time.monotonic()
        result = runner.run("plain", len(runs))
        setups.append(result.setup_s)
        for _ in range(SETUP_PROBES):
            setups.append(runner.run("setup", len(runs)).setup_s)
        runs.append(result)
        laps.append(time.monotonic() - lap)
    return {
        "wall_s": _median([r.wall_s for r in runs]),
        "setup_s": _median([s for s in setups if s is not None]),
        "cpu_s": _median([r.cpu_s for r in runs]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in runs]),
    }


def traced_layers(result: Launch) -> Dict[str, float]:
    spans = tracing.load_spans(str(result.workdir / "spans"))
    metrics = tracing.layer_metrics(spans, WORKERS)
    metrics["cli.import_s"] = result.stamp.get("import_s", 0.0)
    metrics["trace.unaccounted_s"] = (
        result.wall_s
        - metrics["cli.import_s"]
        - tracing.parent_span_seconds(spans, result.stamp.get("pid"))
    )
    return metrics


def per_layer(runner: Runner, seconds: float) -> Dict[str, float]:
    """Alternating untraced and traced iterations; medians per layer."""
    started = time.monotonic()
    plain: List[float] = []
    traced: List[Dict[str, float]] = []
    laps: List[float] = []
    while _keep_going(started, laps, seconds, len(traced), minimum=1):
        lap = time.monotonic()
        plain.append(runner.run("plain", len(traced)).wall_s)
        result = runner.run("trace", len(traced))
        layers = traced_layers(result)
        layers["wall_s"] = result.wall_s
        traced.append(layers)
        laps.append(time.monotonic() - lap)
    metrics = {
        name: _median([t[name] for t in traced]) for name in traced[0]
    }
    traced_wall = metrics.pop("wall_s")
    metrics["trace.overhead_frac"] = traced_wall / _median(plain) - 1.0
    for cell in tracing.RATE_CELLS:
        metrics[f"core.batch_kernel.speedup_vs_grid.{cell}"] = 0.0
    if runner.workload.name == "replica-stack":
        grid = runner.run("trace", 0, GRID_LEG)
        rates = tracing.chain_rates_by_cell(
            tracing.load_spans(str(grid.workdir / "spans"))
        )
        for cell in tracing.RATE_CELLS:
            batch = metrics[f"core.batch_kernel.replica_steps_per_s.{cell}"]
            if rates.get(cell):
                metrics[f"core.batch_kernel.speedup_vs_grid.{cell}"] = (
                    batch / rates[cell]
                )
    return metrics


def environment() -> Dict[str, object]:
    """What each result is recorded with."""
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, networkx; print(numpy.__version__, networkx.__version__)"],
        env=cli_env(), capture_output=True, text=True, timeout=60,
    ).stdout.split()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
    ) if (ROOT / ".git").exists() and shutil.which("git") else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0] if versions else None,
        "networkx": versions[1] if len(versions) > 1 else None,
        "commit": (commit.stdout.strip() if commit and commit.returncode == 0
                   else "unknown"),
        "threads": THREAD_VARS,
        "workers": WORKERS,
    }


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="FILE", default=None)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a repository checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, scratch)
    try:
        runner.run("setup", 0)  # compiles bytecode so every timed launch starts warm
        if args.trace:
            values = per_layer(runner, args.seconds)
        else:
            values = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    for problem in runner.problems:
        print(f"check: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload:>16}  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>16}  {'failed_frac':<52} {failed_frac:>14.6g} "
          f"(of {runner.attempted} cells)")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    env = environment()
    print(f"env: {json.dumps(env)}")
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "env": env, "result": result}
        with open(args.save, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
