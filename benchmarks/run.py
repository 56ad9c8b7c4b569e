"""fknlab benchmark: end-to-end metrics of CLI workloads, per-layer metrics
from a separate traced pass.

Run from the repository root:

    python3 benchmarks/run.py --workload theorem1_sweep --seed 0 --seconds 15 --trace 0

One caller in one process issues one command at a time through the public
entry point `fknlab.cli.main(argv)` (a closed loop; no threads, no pool).
Each workload runs in a fresh child process, one at a time, so its set-up
time and peak memory are its own.  The parent process imports neither
numpy nor fknlab.

The child sets up (imports fknlab from ./src and builds the workload's
input files), runs one untimed pass over the workload's command pool, then
repeats whole timed passes until --seconds have passed.  In the timed
passes a calibration kernel runs before the first command and after each
one, and every time is scaled by it (see calibration.py).  Every command's
exit code, `violations=0` line, absence of an `errors=` line, and a digest
of its stdout, stderr and written files are checked: repeats must reproduce
the first pass, and at the reference seed the digests must equal
reference.json.  With --trace 1 every command then runs once more untraced
and once traced, with every layer boundary wrapped (see tracer.py), and the
traced digests must match too.

Every metric prints as `name=value unit`; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOAD_NAMES, build, check_output, digest, reference_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"  # scratch space inside the checkout
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0

SETUP_SAMPLES = 5  # set-up-only processes per run; setup_s is their median
SETUP_CALIBRATIONS = 2  # kernel runs before and again after each of them
MAX_PROBLEMS = 20
CHILD_TIMEOUT_S = 170

# Every time below is wall time scaled to the reference speed of
# calibration.py: each command's wall time times reference_s over the time of
# a calibration kernel run right before and after it.  The unscaled wall
# times print beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("command_p50_ms", "ms"),
    ("command_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (the benchmark's own tests)")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# child process: one workload


def import_fknlab():
    """Import fknlab from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fknlab.cli

    if Path(fknlab.cli.__file__).resolve().parent != SRC / "fknlab":
        raise SystemExit(f"error: fknlab imported from {fknlab.cli.__file__}, not {SRC}")
    return fknlab.cli


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under BUILD as the working directory; removed afterwards."""
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=BUILD))
    try:
        os.chdir(work)
        yield work
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def execute(cli, command) -> dict:
    """Run one command through cli.main; its time, digest and output check."""
    for name in command.files:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            exit_code = cli.main(list(command.argv))  # looked up per call, so a traced pass sees the wrapper
        except Exception:  # a crash fails this command, not the run
            exit_code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    files = [Path(name).read_bytes() if Path(name).exists() else b"" for name in command.files]
    problems, errored = check_output(command, exit_code, stdout)
    if exit_code is None:
        problems.append(f"{command.key}: raised\n{stderr}")
    return {
        "seconds": seconds,
        "digest": digest(exit_code, stdout, stderr, files),
        "problems": problems,
        "errored": errored,
        "failed_command": exit_code != 0,
    }


def run_pass(cli, commands, timer=None) -> list[dict]:
    """Run `commands` in order.  With a calibration `timer`, the kernel also
    runs before the first command and after each one, and every outcome gets
    `calibration_s`, the mean of the kernel times right before and after it."""
    if timer is None:
        return [execute(cli, command) for command in commands]
    outcomes = []
    before = timer()
    for command in commands:
        outcome = execute(cli, command)
        after = timer()
        outcome["calibration_s"] = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


def traced_pass(cli, commands, tracer) -> tuple[list[dict], list[dict]]:
    """Run every command untraced and then traced, back to back, so that a
    drift in machine speed does not show up as tracing overhead."""
    untraced, traced = [], []
    for index, command in enumerate(commands):
        untraced.append(execute(cli, command))
        tracer.command = index
        with tracer.installed():
            traced.append(execute(cli, command))
    return untraced, traced


def repeat_problems(label: str, commands, first: list[dict], again: list[dict]) -> list[str]:
    return [
        f"{command.key}: {label} digest differs from the first pass"
        for command, a, b in zip(commands, first, again)
        if a["digest"] != b["digest"]
    ]


def child_main(args) -> dict:
    # A set-up-only process scales its set-up by the `import` kernel timed
    # just before and after it.  The workload process does not run that
    # kernel, whose allocations would count in its peak memory.
    if args.child == "setup":
        setup_timer, setup_reference_s = calibration.kernel("import")
        around = [setup_timer() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    cli = import_fknlab()
    with work_dir(f"{args.workload}-"):
        workload = build(args.workload, args.seed, args.tiny)
        setup = run_pass(cli, workload.setup)
        setup_wall_s = time.perf_counter() - start
        problems = [p for outcome in setup for p in outcome["problems"]]
        if args.child == "setup":
            around += [setup_timer() for _ in range(SETUP_CALIBRATIONS)]
            setup_s = setup_wall_s * setup_reference_s / statistics.mean(around)
            return {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "problems": problems}

        pool = workload.pool
        first = run_pass(cli, pool)  # untimed: first touches, and the digests repeats must reproduce
        problems += [p for outcome in first for p in outcome["problems"]]
        # Read before any calibration kernel runs, so that their arrays never
        # count; every later pass repeats these same commands.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        if args.seed == REFERENCE_SEED and not args.tiny:
            reference = json.loads(REFERENCE.read_text())
            digests = [(c, o["digest"]) for c, o in zip(workload.setup + pool, setup + first)]
            problems += reference_problems(args.workload, digests, reference)

        timer, reference_s = calibration.kernel(workload.calibration)
        timed: list[dict] = []
        loop_start = time.perf_counter()
        while not timed or time.perf_counter() - loop_start < args.seconds:
            outcomes = run_pass(cli, pool, timer)
            problems += [p for outcome in outcomes for p in outcome["problems"]]
            problems += repeat_problems("repeated", pool, first, outcomes)
            timed += outcomes

        result = {
            "times_s": [o["seconds"] * reference_s / o["calibration_s"] for o in timed],
            "wall_times_s": [o["seconds"] for o in timed],
            "speed": reference_s / statistics.mean(o["calibration_s"] for o in timed),
            "calibration": workload.calibration,
            "pool_size": len(pool),
            "instances": len(timed) // len(pool) * sum(c.instances for c in pool),
            "failed": sum(o["errored"] + o["failed_command"] for o in timed),
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            tracer = Tracer()
            untraced, traced = traced_pass(cli, pool, tracer)
            problems += repeat_problems("traced", pool, first, traced)
            result["layers"] = tracer.metrics(
                sum(o["seconds"] for o in traced), sum(o["seconds"] for o in untraced)
            )
            trace_file = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file, {"workload": args.workload, "seed": args.seed, "commands": [c.key for c in pool]})
            result["trace_file"] = str(trace_file.relative_to(ROOT))
        result["problems"] = problems
        return result


# ---------------------------------------------------------------------------
# parent process


class BenchError(Exception):
    pass


def spawn(mode: str, name: str, args, deadline: float) -> dict:
    """Run one child process to completion and return the JSON it printed."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode, "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        argv.append("--tiny")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has ten
    samples beyond it.  Below 21 samples that percentile would not exceed the
    median, so the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def per_command(times: list[float], pool_size: int) -> list[float]:
    """Each distinct command's median time over the passes of a run.

    The median and the tail are taken over these rather than over every
    sample.  With every command repeated in each pass, the ten slowest
    samples would be a couple of commands repeated, and which commands those
    are depends on the seed.  And when a pool has few commands of different
    sizes, as `tribes_analyze` has, the median sample would fall on whichever
    repeat of a large command happened to run fastest."""
    return [statistics.median(times[i::pool_size]) for i in range(pool_size)]


def run_workload(name: str, args) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = [spawn("setup", name, args, deadline) for _ in range(SETUP_SAMPLES)]
    result = spawn("run", name, args, deadline)
    setup_times = [s["setup_s"] for s in setups]
    setup_wall = [s["setup_wall_s"] for s in setups]
    problems = [p for s in setups for p in s["problems"]] + result["problems"]
    times, wall = result["times_s"], result["wall_times_s"]
    pool_size = result["pool_size"]
    commands = per_command(times, pool_size)
    tail_s, percentile, beyond = tail(commands)
    attempted = result["instances"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": attempted / sum(times),
        "command_p50_ms": statistics.median(commands) * 1e3,
        "command_tail_ms": tail_s * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: " + ", ".join(f"{t:.4f}" for t in setup_times),
        "instances_per_s": f"{attempted} instances in {sum(times):.3f} s of scaled command time",
        "command_p50_ms": f"median of {pool_size} per-command medians, n={len(times)} commands",
        "command_tail_ms": f"p{percentile:.1f} of {pool_size} per-command medians, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of the workload process after its first pass",
    }
    wall_commands = per_command(wall, pool_size)
    wall_metrics = {
        "setup_wall_s": (statistics.median(setup_wall), "s"),
        "instances_per_wall_s": (attempted / sum(wall), "1/s"),
        "command_wall_p50_ms": (statistics.median(wall_commands) * 1e3, "ms"),
        "command_wall_tail_ms": (tail(wall_commands)[0] * 1e3, "ms"),
    }
    units = dict(END_TO_END)
    print(f"== {name}: seed {args.seed}, closed loop, 1 caller in 1 process")
    print(f"machine_speed={result['speed']} ratio  (reference_s / mean time of the {result['calibration']!r} kernel)")
    for metric, value in metrics.items():
        print(f"{metric}={value} {units[metric]}  ({notes[metric]})")
    for metric, (value, unit) in wall_metrics.items():
        print(f"{metric}={value} {unit}  (unscaled wall time, not gated)")
    print(f"failed_frac={result['failed'] / attempted} fraction  ({result['failed']} of {attempted} instances)")
    layers = result.get("layers")
    if layers is not None:
        print(f"-- per-layer, one traced pass (spans in {result['trace_file']})")
        for metric, unit, _ in LAYER_METRICS:
            print(f"{metric}={layers[metric]} {unit}")
    for problem in problems[:MAX_PROBLEMS]:
        print(f"problem: {problem}")
    if len(problems) > MAX_PROBLEMS:
        print(f"... and {len(problems) - MAX_PROBLEMS} more problems")
    if layers is not None:
        reported = {metric: {"value": layers[metric], "unit": unit} for metric, unit, _ in LAYER_METRICS}
    else:
        reported = {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()}
    return {"correct": not problems, "attempted": attempted, "failed": result["failed"], "metrics": reported}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fknlab" / "__init__.py").is_file():
        print(f"error: no fknlab sources at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
