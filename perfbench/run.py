"""Benchmark of the rbffock command line on three seeded workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's fixed list of CLI calls as a
pass, each call in a fresh interpreter, and repeats the pass until the
next one would end after ``--seconds``.  Every output is checked after the
timed passes and must be byte-identical in every pass.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory; the run's
files live in ``.perfbench_runs/`` there and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# layer shares of the traced pass that the workload design rests on
SHARES = ("share.spaces_series_quatarray_self",
          "share.qslice_kernel_and_cmd_gram_self",
          "share.gauss_hermite_and_integrate_rd")


def span_names() -> list[str]:
    from rbffock.verify import CRITERIA
    return ([f"verify.{key}" for key in CRITERIA] + list(tracer.METHODS)
            + list(tracer.FUNCTIONS) + [tracer.EIGENSOLVE])


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {}
    for name in span_names():
        units.update({f"{name}.s": "s", f"{name}.self_s": "s",
                      f"{name}.calls": "count"})
    units.update({
        "verify.worst_margin": "ratio",
        "spaces.FockCSpace.nodes": "count",
        "kernels.rbf_kernel_qslice.unique_ratio": "ratio",
        "gram.eigensolve.dim": "count",
        "cli.csv_bytes": "bytes",
        "quadrature.gauss_hermite.distinct_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    units.update({name: "ratio" for name in SHARES})
    return units


END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")} or "default",
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# processes

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc: subprocess.Popen):
    """Reap ``proc``; return (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(run_dir: Path) -> float:
    """Seconds from process start to an imported CLI with its parser."""
    start = time.time_ns()
    with subprocess.Popen([sys.executable, str(CHILD), "--setup"],
                          cwd=run_dir, env=_child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.read()
        code, _ = _wait(proc)
    if code != 0:
        raise RuntimeError("the CLI could not be imported")
    return (int(ready) - start) / 1e9


def run_call(call: workloads.Call, pass_dir: Path, log, spans: Path | None):
    """One CLI call; return (wall s, peak RSS MB, exit code)."""
    argv = [sys.executable, str(CHILD)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    start = time.perf_counter()
    with subprocess.Popen(argv + ["--", *call.argv], cwd=pass_dir,
                          env=_child_env(), stdout=log, stderr=log) as proc:
        try:
            code, rss = _wait(proc)
        finally:
            if proc.returncode is None:  # interrupted: stop the call
                proc.kill()
    return time.perf_counter() - start, rss, code


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# spans

class LayerStats:
    """Span totals of one traced pass, summed over its calls."""

    def __init__(self):
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.attr_sum = defaultdict(int)
        self.distinct = defaultdict(int)

    def add(self, spans: list) -> None:
        child_ns = defaultdict(int)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        seen = defaultdict(set)
        for sid, _, name, start, end, attr in spans:
            self.ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[sid]
            self.calls[name] += 1
            if isinstance(attr, int):
                self.attr_sum[name] += attr
            elif attr is not None:
                seen[name].add(attr)
        # distinct keys per process: what a per-process cache could reuse
        for name, keys in seen.items():
            self.distinct[name] += len(keys)

    def ratio(self, name: str) -> float:
        return self.distinct[name] / self.calls[name] if self.calls[name] else 0.0

    def metrics(self, wall: float) -> dict[str, float]:
        out = {}
        for name in span_names():
            out[f"{name}.s"] = self.ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.calls"] = self.calls[name]
        out["spaces.FockCSpace.nodes"] = self.attr_sum["spaces.FockCSpace"]
        out["kernels.rbf_kernel_qslice.unique_ratio"] = \
            self.ratio("kernels.rbf_kernel_qslice")
        out["gram.eigensolve.dim"] = self.attr_sum[tracer.EIGENSOLVE]
        out["quadrature.gauss_hermite.distinct_ratio"] = \
            self.ratio("quadrature.gauss_hermite")
        shares = (
            sum(ns for name, ns in self.self_ns.items()
                if name.startswith(("spaces.", "series.", "quatarray."))),
            self.ns["kernels.rbf_kernel_qslice"] + self.self_ns["cli.cmd_gram"],
            self.ns["quadrature.gauss_hermite"]
            + self.ns["quadrature.integrate_rd"])
        out.update({name: ns / 1e9 / wall for name, ns in zip(SHARES, shares)})
        return out


# ---------------------------------------------------------------------------
# passes

class Run:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.calls = workloads.build(workload, seed, run_dir / "inputs")
        self.first_dir = run_dir / "first"
        self.log = open(run_dir / "calls.log", "w")
        self.digests: dict[str, str | None] = {}
        # per pass: calls that exited non-zero or whose bytes changed
        self.failed_calls: list[set[str]] = []
        self.problems: list[str] = []

    def close(self) -> None:
        self.log.close()

    def run_pass(self, traced: bool):
        """Run every call once; return (wall s, peak RSS MB, LayerStats)."""
        first = not self.failed_calls
        pass_dir = (self.first_dir if first
                    else self.run_dir / f"pass{len(self.failed_calls)}")
        pass_dir.mkdir()
        stats = LayerStats() if traced else None
        wall, rss = 0.0, 0.0
        failed = set()
        for call in self.calls:
            spans = pass_dir / f"{call.name}.spans.json" if traced else None
            seconds, call_rss, code = run_call(call, pass_dir, self.log, spans)
            wall += seconds
            rss = max(rss, call_rss)
            if code != 0:
                failed.add(call.name)
                self.problems.append(f"{call.name}: exit code {code}")
            for out in call.outputs:
                digest = _digest(pass_dir / out)
                key = f"{call.name}/{out}"
                if first:
                    self.digests[key] = digest
                elif digest != self.digests[key]:
                    failed.add(call.name)
                    self.problems.append(f"{key}: bytes differ from pass 1")
            if spans is not None:
                stats.add(json.loads(spans.read_text()))
        self.failed_calls.append(failed)
        if not first:
            shutil.rmtree(pass_dir)
        return wall, rss, stats

    def check(self) -> tuple[int, int]:
        """Check pass-1 outputs; return (attempted, failed) over all passes."""
        wrong = set()
        for call in self.calls:
            try:
                problems = call.check(self.first_dir)
            except Exception:  # a broken output must not stop the report
                problems = [f"{call.name}: check raised\n"
                            + traceback.format_exc()]
            if problems:
                wrong.add(call.name)
                self.problems.extend(problems)
        attempted = len(self.calls) * len(self.failed_calls)
        failed = sum(len(wrong | bad) for bad in self.failed_calls)
        return attempted, failed

    def csv_bytes(self) -> int:
        return sum((self.first_dir / out).stat().st_size
                   for call in self.calls for out in call.outputs
                   if out.endswith(".csv"))


def measure(run: Run, seconds: float, traced: bool) -> dict[str, float]:
    start = time.perf_counter()
    if not traced:
        walls, rss = [], []
        while True:
            wall, peak, _ = run.run_pass(False)
            walls.append(wall)
            rss.append(peak)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        print(f"{run.workload}: {len(walls)} passes, pass walls "
              + ", ".join(f"{w:.3f}" for w in walls) + " s")
        return {"pass_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(rss)}

    layer_runs, pairs = [], []
    while True:
        plain, _, _ = run.run_pass(False)
        wall, _, stats = run.run_pass(True)
        metrics = stats.metrics(wall)
        metrics["trace.overhead_ratio"] = wall / plain
        layer_runs.append(metrics)
        pairs.append(wall + plain)
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            break
    missing = [name for name in workloads.EXPECTED_SPANS[run.workload]
               if not layer_runs[0][f"{name}.calls"]]
    if missing:
        run.problems.append(f"spans that never fired: {missing}")
    out = {name: statistics.median(m[name] for m in layer_runs)
           for name in layer_runs[0]}
    out["cli.csv_bytes"] = run.csv_bytes()
    out["verify.worst_margin"] = (workloads.verify_worst_margin(run.first_dir)
                                  if run.workload == "verify" else 0.0)
    print(f"{run.workload}: {len(layer_runs)} untraced/traced pass pairs")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let SIGTERM unwind like Ctrl-C, so the running call is stopped and
    # the run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rbffock" / "cli.py").is_file():
        sys.stderr.write(f"error: no rbffock sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import rbffock
    if Path(rbffock.__file__).resolve().parent != SRC / "rbffock":
        sys.stderr.write(f"error: imported rbffock from {rbffock.__file__}\n")
        return 2

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        measure_setup(run_dir)  # compiles bytecode once, as a first use would
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = statistics.median(
                measure_setup(run_dir) for _ in range(SETUP_REPEATS))
        run = Run(args.workload, args.seed, run_dir)
        try:
            metrics.update(measure(run, args.seconds, bool(args.trace)))
            attempted, failed = run.check()
        finally:
            run.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("environment " + json.dumps(environment()))
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {failed}/{attempted} = "
          f"{failed / attempted:.6g}")
    result = {"correct": not run.problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
