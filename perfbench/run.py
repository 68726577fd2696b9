#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qjulia CLI.

Run from the repository root:

    python3 perfbench/run.py --workload render-newton-cutoff --seed 0 --seconds 20 --trace 0

Each workload is one CLI command on a bundled config at its written size,
run closed-loop (one command at a time) with --workers 2.

--trace 0 spawns the command repeatedly until --seconds have passed (at
least once) and reports the median wall time and peak RSS of those
processes, plus setup_s, the median wall time of a subprocess that only
imports qjulia.cli and parses the config.

--trace 1 runs the command once in this process with the layer functions
wrapped (tracing.py), re-runs every cast_rays call at 1 worker, and
reports per-layer times and exact work counts.

Seed 0 runs the config as written and checks output digests and counts
pinned from the seed commit in pinned.json.  Any other seed shifts the
region by a seed-derived sub-voxel offset (grid and image sizes
unchanged), checks the outputs as checks.py describes and records their
digests.  The last line of standard output is the JSON result; the line
before it holds provenance, quartiles, sample counts and digests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINNED = Path(__file__).resolve().parent / "pinned.json"
WORKERS = 2
SETUP_REPEATS = 11

SETUP_CODE = """\
import sys
from qjulia import cli, config
parse = config.parse_sweep if sys.argv[2] == "sweep" else config.parse_config
with open(sys.argv[1], encoding="utf-8") as fh:
    parse(fh.read())
"""


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    region: tuple[str, ...]  # keys leading to the region object in the config
    outputs: dict[str, str]  # output name -> file name in the work directory
    options: tuple[str, ...]  # CLI options; "{name}" stands for an output path

    def argv(self, config: Path, outputs: dict[str, Path]) -> list[str]:
        return [self.command, str(config), *(o.format(**outputs) for o in self.options)]


WORKLOADS = {
    "render-newton-cutoff": Workload(
        "render",
        "configs/newton_cubic_cutoff.json",
        ("region",),
        {"ppm": "newton.ppm", "csv": "newton.csv"},
        ("--workers", str(WORKERS), "--out", "{ppm}", "--dump-field", "{csv}"),
    ),
    "sweep-newton-escape": Workload(
        "sweep",
        "configs/sweep_newton.json",
        ("base", "region"),
        {"csv": "sweep.csv"},
        ("--workers", str(WORKERS), "--no-images", "--out", "{csv}"),
    ),
    "slice-newton-oracle": Workload(
        "slice",
        "configs/newton_cubic_cutoff.json",
        ("region",),
        {"pgm": "slice.pgm"},
        ("--out", "{pgm}"),
    ),
}


@dataclass
class Call:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class Tally:
    """Attempted and failed commands; a failed command keeps its timings."""

    calls: list[Call] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def spawn(argv: list[str], log: Path, env: dict[str, str]) -> Call:
    """Run argv to completion; wall time from spawn to exit and its peak RSS."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def measure(
    argv: list[str],
    outputs: dict[str, Path],
    gate: Callable[[int, dict[str, Path]], list[str]],
    seconds: float,
    log: Path,
    env: dict[str, str],
    tally: Tally,
) -> None:
    """Closed loop: start commands one after another until seconds have passed."""
    start = time.perf_counter()
    while True:
        for path in outputs.values():
            path.unlink(missing_ok=True)
        call = spawn(argv, log, env)
        tally.calls.append(call)
        tally.add(gate(call.exit_code, outputs))
        if time.perf_counter() - start >= seconds:
            return


def setup_times(kind: str, config: Path, log: Path, env: dict[str, str], tally: Tally) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, str(config), kind]
    spawn(argv, log, env)  # warm the bytecode and file caches
    times = []
    for _ in range(SETUP_REPEATS):
        call = spawn(argv, log, env)
        if call.exit_code != 0:
            tally.add([f"setup exit code {call.exit_code}"])
        times.append(call.wall_s)
    return times


def make_config(workload: Workload, seed: int, work: Path) -> Path:
    """The bundled config for seed 0, else a copy with its region shifted
    by a seed-derived offset of up to half a voxel on each axis."""
    bundled = ROOT / workload.config
    if seed == 0:
        return bundled
    data = json.loads(bundled.read_text(encoding="utf-8"))
    region = data
    for key in workload.region:
        region = region[key]
    rng = random.Random(seed)
    lo, hi, res = region["min"], region["max"], region["resolution"]
    offsets = [rng.uniform(-0.5, 0.5) * (b - a) / (n - 1) for a, b, n in zip(lo, hi, res)]
    region["min"] = [a + o for a, o in zip(lo, offsets)]
    region["max"] = [b + o for b, o in zip(hi, offsets)]
    path = work / "config.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return path


def in_process(argv: list[str], problems: list[str]) -> tuple[float, int]:
    """Run the CLI in this process; an exception it lets escape is a failure."""
    from qjulia import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    if code != 0:
        problems.append("command output: " + sink.getvalue()[-400:])
    return seconds, code


def same_depth_map(a, b) -> bool:
    arrays = ("hit", "depth", "points", "steps")
    return (a.du, a.dv) == (b.du, b.dv) and all(
        getattr(a, n).tobytes() == getattr(b, n).tobytes() for n in arrays
    )


def traced(argv: list[str], outputs: dict[str, Path], gate, pinned_counts, tally: Tally) -> dict:
    import tracing

    for path in outputs.values():
        path.unlink(missing_ok=True)
    problems: list[str] = []
    with tracing.Tracer() as tracer:
        traced_s, code = in_process(argv, problems)
    problems += gate(code, outputs)

    cast_rays = tracer.originals["render.cast_rays"]
    cast_rays_1w_s = 0.0
    for span in tracer.returned("render.cast_rays"):
        start = time.perf_counter()
        one = cast_rays(**dict(span.args.arguments, workers=1))
        cast_rays_1w_s += time.perf_counter() - start
        if not same_depth_map(one, span.result):
            problems.append(f"cast_rays: 1 and {span.args.arguments['workers']} workers differ")

    metrics = tracing.layer_metrics(tracer, traced_s, cast_rays_1w_s)
    for name, want in (pinned_counts or {}).items():
        if metrics[name] != want:
            problems.append(f"{name}: {metrics[name]}, pinned {want}")
    tally.add(problems)
    return metrics


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values), "n": len(values)
    }


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workers": WORKERS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "qjulia" / "cli.py").is_file() or not (ROOT / workload.config).is_file():
        print(f"error: {ROOT} holds no qjulia sources or no {workload.config}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if WORKERS > nproc:
        print(f"error: refusing {WORKERS} worker threads on {nproc} usable CPUs", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    import checks

    env = dict(os.environ, PYTHONPATH=str(SRC))
    pinned = json.loads(PINNED.read_text(encoding="utf-8")).get(args.workload, {})
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    detail = provenance(args.seed)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        config = make_config(workload, args.seed, work)
        check = getattr(checks, f"{workload.command}_check")(config, random.Random(f"{args.seed}:check"))
        gate = checks.Gate(check, pinned.get("digests") if args.seed == 0 else None)
        outputs = {name: work / file for name, file in workload.outputs.items()}
        cli_argv = workload.argv(config, outputs)
        if args.trace:
            counts = pinned.get("counts") if args.seed == 0 else None
            layers = traced(cli_argv, outputs, gate, counts, tally)
            metrics = {
                name: metric(layers[name], unit) for name, unit in declared_units("per_layer").items()
            }
        else:
            setup = setup_times(workload.command, config, work / "setup.log", env, tally)
            measure(
                [sys.executable, "-m", "qjulia", *cli_argv],
                outputs, gate, args.seconds, work / "cli.log", env, tally,
            )
            walls = [c.wall_s for c in tally.calls]
            rss = [c.peak_rss_mb for c in tally.calls]
            values = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
            detail.update((name, summary(v)) for name, v in values.items())
            metrics = {
                name: metric(statistics.median(values[name]), unit)
                for name, unit in declared_units("end_to_end").items()
            }
        log = work / "cli.log"
        if tally.failed and log.is_file():
            tally.problems.append("last command output: " + log.read_text(errors="replace")[-400:])
    with contextlib.suppress(OSError):
        WORK.rmdir()

    detail.update(
        workload=args.workload,
        trace=args.trace,
        fail_frac=tally.failed / tally.attempted,
        digests=gate.digests,
        problems=tally.problems[:20],
    )
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
