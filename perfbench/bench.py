"""End-to-end benchmark of the perimetric CLI, with a traced per-layer split.

For one workload and seed it generates the snapshot, writes it to a file
and runs the real CLI on it in a fresh interpreter, one run at a time from
one process (a closed loop with one client and the default ``--jobs 1``),
for ``--seconds`` seconds. Every run's exit code and stdout bytes are
checked. Its times are divided by the pace of a fixed reference job run
beside it on the same CPU, which cancels the shared host's drift (see
``measure_cli``). With ``--trace 1`` it instead runs the same command
in-process with span wrappers installed around each layer (see tracer.py)
and reports the per-layer split.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it print the
run context and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import perimetric
import perimetric.cli
from perimetric import kernels
from perimetric.ingestion import serialize_snapshot

import checks
import reference_job
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
PINNED = json.loads((HERE / "digests.json").read_text())

DEFAULT_SEED = 0
SETUP_BLOCK_S = 0.05  # setup passes after each timed CLI run: at least one, and this long
IMPORT_REPEATS = 7
MIN_SAMPLES = 3
RUNS_PER_CPU = 4  # timed CLI runs in a row on one CPU before moving to the next
CLI_TIMEOUT_S = 120
# Wall and CPU seconds of reference_job.py on the 2-vCPU VM the benchmark was
# tuned on. Timed metrics are scaled to a host running at that speed.
REFERENCE_WALL_S = 0.25
REFERENCE_CPU_S = 0.26

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "grants_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_rate": "ratio",
}
PER_LAYER = {"cli.import_s": "s", **tracer.LAYER_METRICS, "trace.overhead_s": "s"}


@dataclass
class CliRun:
    exit_code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Tally:
    """Runs attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def child_env() -> dict[str, str]:
    """This environment with the program's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(command: list[str], cpus: set[int] | None = None) -> CliRun:
    """Run ``command`` in a fresh interpreter, via launch.py.

    ``cpus`` limits the CPUs it may run on; by default, those this process may use.
    """
    stdout_path = WORK / "stdout.bin"
    allowed = ",".join(map(str, sorted(cpus or os.sched_getaffinity(0))))
    launcher = [sys.executable, str(HERE / "launch.py"), str(CLI_TIMEOUT_S), allowed, str(stdout_path)]
    launched = subprocess.run(
        launcher + command, env=child_env(), cwd=HERE.parent, stdout=subprocess.PIPE, check=True, timeout=CLI_TIMEOUT_S + 30
    )
    return CliRun(stdout=stdout_path.read_bytes(), **json.loads(launched.stdout))


def run_cli(args: list[str], snapshot_path: Path, cpus: set[int] | None = None) -> CliRun:
    """Run ``python -m perimetric.cli`` on the snapshot in a fresh interpreter."""
    return launch([sys.executable, "-m", "perimetric.cli", *args, str(snapshot_path)], cpus)


def host_pace(cpu: int) -> tuple[float, float]:
    """How slow ``cpu`` runs now: reference_job.py's wall and CPU seconds over their reference values."""
    run = launch([sys.executable, str(HERE / "reference_job.py")], {cpu})
    if run.exit_code != 0 or run.stdout.decode().strip() != reference_job.EXPECTED:
        raise RuntimeError(f"reference job failed: exit code {run.exit_code}, output {run.stdout[:80]!r}")
    return run.wall_s / REFERENCE_WALL_S, run.cpu_s / REFERENCE_CPU_S


def run_in_process(args: list[str], snapshot_path: Path, trace: tracer.Tracer | None) -> tuple[int, bytes, float]:
    """Run the CLI command through ``perimetric.cli.main`` in this interpreter."""
    argv = [*args, str(snapshot_path)]
    out = io.StringIO()
    code = 0
    gc.collect()  # start like a fresh interpreter, without earlier runs' garbage
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            if trace is None:
                perimetric.cli.main(argv, standalone_mode=False)
            else:
                with trace:
                    trace.span(tracer.ROOT, perimetric.cli.main, argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode("utf-8"), time.perf_counter() - start


def import_seconds() -> float:
    """Median time of a fresh interpreter's ``import perimetric.cli``."""
    code = "import time; t = time.perf_counter(); import perimetric.cli; print(time.perf_counter() - t)"
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(samples)


def snapshot_bytes(name: str, seed: int, size: str = "full") -> tuple[workloads.Workload, bytes]:
    workload = workloads.build(name, seed, size)
    return workload, serialize_snapshot(workload.snapshot).encode("utf-8")


def time_setup(name: str, seed: int, size: str, data: bytes, cpu: int) -> tuple[float, list[str]]:
    """Median time of generate+serialize passes on ``cpu``: at least one, for SETUP_BLOCK_S.

    A pass whose snapshot bytes differ from ``data`` is a problem.
    """
    allowed = os.sched_getaffinity(0)
    times, problems = [], []
    os.sched_setaffinity(0, {cpu})
    try:
        deadline = time.perf_counter() + SETUP_BLOCK_S
        while not times or time.perf_counter() < deadline:
            start = time.perf_counter()
            _, again = snapshot_bytes(name, seed, size)
            times.append(time.perf_counter() - start)
            if again != data:
                problems = [f"setup: seed {seed} gave different snapshots"]
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(times), problems


def write_snapshot(name: str, seed: int, data: bytes) -> Path:
    path = WORK / f"{name}-{seed}.json"
    path.write_bytes(data)
    return path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fits(deadline: float, durations: list[float]) -> bool:
    """Whether one more sample of the usual length ends inside the window."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def measure_cli(args: list[str], path: Path, seconds: float, check, setup_pass) -> tuple[dict[str, float], int]:
    """Closed loop of fresh-interpreter CLI runs for ``seconds``; medians per metric.

    On a shared host the CPUs' speed drifts with the neighbours' load, by up
    to 2x within minutes, and one CPU can be slowed while another is not.
    So the runs go to each CPU in turn, a few in a row, and each run sits
    between two runs of reference_job.py on the same CPU: its wall and CPU
    times are divided by the mean of the two jobs' pace, which cancels the
    host's drift but not a change to the program. ``setup_pass(cpu)``, the
    time to build the snapshot, runs after each CLI run, before the second
    job, and is scaled alike. The raw medians and the pace are returned
    too, for the report.
    """
    cpus = sorted(os.sched_getaffinity(0))
    runs, setups, paces, durations = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_SAMPLES or fits(deadline, durations):
        start = time.perf_counter()
        cpu = cpus[len(runs) // RUNS_PER_CPU % len(cpus)]
        if len(runs) % RUNS_PER_CPU == 0:
            before = host_pace(cpu)
        run = run_cli(args, path, {cpu})
        setups.append(setup_pass(cpu))
        after = host_pace(cpu)
        check(run.exit_code, run.stdout)
        runs.append(run)
        paces.append(((before[0] + after[0]) / 2, (before[1] + after[1]) / 2))
        before = after
        durations.append(time.perf_counter() - start)
    metrics = {
        "wall_s": statistics.median(r.wall_s / p[0] for r, p in zip(runs, paces)),
        "cpu_s": statistics.median(r.cpu_s / p[1] for r, p in zip(runs, paces)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(t / p[0] for t, p in zip(setups, paces)),
        "raw_wall_s": statistics.median(r.wall_s for r in runs),
        "raw_cpu_s": statistics.median(r.cpu_s for r in runs),
        "raw_setup_s": statistics.median(setups),
        "host_pace": statistics.median(p[0] for p in paces),
    }
    return metrics, len(runs)


def measure_layers(args: list[str], path: Path, seconds: float, check, spans_path: Path) -> tuple[dict[str, float], int]:
    """Alternating untraced and traced in-process runs for ``seconds``.

    Each layer metric is the median over traced runs; each overhead sample
    compares two runs made a second apart on the same host state, and the
    order within a pair alternates.
    """
    code, stdout, _ = run_in_process(args, path, None)  # warm-up: first-call costs are not a layer's
    check(code, stdout)
    overheads, traced, durations = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or fits(deadline, durations):
        start = time.perf_counter()
        spans = tracer.Tracer()
        took = {}  # traced? -> seconds
        for trace in (None, spans) if len(traced) % 2 else (spans, None):
            code, stdout, took[trace is spans] = run_in_process(args, path, trace)
            check(code, stdout)
        overheads.append(took[True] - took[False])
        traced.append(tracer.layer_metrics(spans))
        durations.append(time.perf_counter() - start)
    spans_path.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans.spans, "counters": spans.counters})
    )
    return {**tracer.median_metrics(traced), "trace.overhead_s": statistics.median(overheads)}, len(traced)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run of one workload; returns the result record."""
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    workload, data = snapshot_bytes(name, seed, size)
    path = write_snapshot(name, seed, data)
    args = list(workload.cli_args)
    grants = checks.resolve_grants(workload.snapshot)
    context = {
        "python": platform.python_version(),
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "seed": seed,
        "size": size,
        "sizes": checks.sizes(workload.snapshot, grants),
        "loop": "closed, 1 client, --jobs 1",
    }

    # Untimed reference run: warms the file cache and bytecode, and its
    # output is checked in full. Later runs must reproduce it byte for byte.
    reference = run_cli(args, path)
    problems = checks.check_output(workload, reference.stdout, reference.exit_code, grants)
    if not problems:
        problems = checks.check_sample(workload, reference.stdout, grants, seed)
    if size == "full" and seed == DEFAULT_SEED and digest(reference.stdout) != PINNED[name]:
        problems.append(f"stdout digest {digest(reference.stdout)} differs from the pinned seed-{DEFAULT_SEED} digest")
    tally.record(problems)
    if size == "full" and seed != DEFAULT_SEED:
        _, default_data = snapshot_bytes(name, DEFAULT_SEED)
        got = digest(run_cli(args, write_snapshot(name, DEFAULT_SEED, default_data)).stdout)
        tally.record([] if got == PINNED[name] else [f"seed-{DEFAULT_SEED} stdout digest {got} differs from the pinned one"])

    def check(code: int, stdout: bytes) -> None:
        if code != workload.exit_code:
            tally.record([f"exit code {code}, expected {workload.exit_code}"])
        else:
            tally.record([] if stdout == reference.stdout else ["stdout differs from the reference run"])

    def setup_pass(cpu: int) -> float:
        seconds, problems = time_setup(name, seed, size, data, cpu)
        tally.problems.extend(p for p in problems if p not in tally.problems)
        return seconds

    if trace:
        setup_pass(min(os.sched_getaffinity(0)))  # checks that the seed repeats its snapshot
        layers, samples = measure_layers(args, path, seconds, check, WORK / f"{name}-{seed}.spans.json")
        metrics = {"cli.import_s": import_seconds(), **layers}
    else:
        cli, samples = measure_cli(args, path, seconds, check, setup_pass)
        metrics = {
            "wall_s": cli["wall_s"],
            "cpu_s": cli["cpu_s"],
            "grants_per_s": context["sizes"]["grants"] / cli["wall_s"],
            "peak_rss_mb": cli["peak_rss_mb"],
            "setup_s": cli["setup_s"],
            "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
        }
        context["unscaled"] = {key: cli[key] for key in ("raw_wall_s", "raw_cpu_s", "raw_setup_s", "host_pace")}
    context["samples"] = samples
    return {
        "workload": name,
        "context": context,
        "stdout_sha256": digest(reference.stdout),
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
    }


def metric_unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER[name]


def report(result: dict) -> None:
    print(f"== {result['workload']}  correct={result['correct']}  runs {result['attempted']} attempted, {result['failed']} failed")
    print("context " + json.dumps(result["context"], sort_keys=True))
    print(f"stdout sha256 {result['stdout_sha256']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    samples = result["context"]["samples"]
    for key, value in result["metrics"].items():
        note = f"  (median of {samples})" if key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s") else ""
        print(f"  {key:32s} {value:14.6f} {metric_unit(key)}{note}")
    if "pass_rate" in result["metrics"]:
        print(f"  {'fail_rate':32s} {result['failed'] / result['attempted']:14.6f} ratio")
    if unscaled := result["context"].get("unscaled"):
        print(f"  as measured, before dividing by the host pace ({unscaled['host_pace']:.4f}):")
        for key in ("wall_s", "cpu_s", "setup_s"):
            print(f"  {key:32s} {unscaled['raw_' + key]:14.6f} s  (median of {samples})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(perimetric.__file__).resolve().is_relative_to(SRC):
        print(f"error: perimetric imported from {perimetric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key): {"value": value, "unit": metric_unit(key)}
            for r in results
            for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0
