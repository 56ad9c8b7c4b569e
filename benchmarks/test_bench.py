"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, build, check_output, reference_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer counters a traced pass must move on each workload, and ones it must not.
NONZERO = {
    "theorem1_sweep": ("rv.convolve.calls", "rv.convolve.pairs", "bounds.theorem1_check.calls", "sweep.instances", "cli.output_s"),
    "pairwise_sweep": (
        *(f"bounds.{name}.calls" for name in ("lemma4_bound", "lemma5_bound", "lemma7_bound", "claim8_check", "claim9_bound")),
        "rv.center.s",
        "cli.output_s",
    ),
    "cube_small": ("cube.wht.calls", "bounds.corollary2_apply.calls", "sweep.corollary2_exhaustive.s"),
    "tribes_analyze": ("cube.wht.calls", "cube.wht.bytes_computed", "cube.parse_boolean_function.s"),
}
ZERO = {
    "cube_small": ("rv.convolve.calls", "rv.discrete_rv.constructions"),
    "tribes_analyze": ("rv.convolve.calls", "sweep.instances"),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert re.search(rf"^{re.escape(name)}=\S+ {re.escape(unit)}(\s|$)", proc.stdout, re.M), name
    assert re.search(r"^failed_frac=0\.0 ", proc.stdout, re.M)
    if trace == "1":
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(values[name] > 0 for name in NONZERO[workload]), values
        assert all(values[name] == 0 for name in ZERO.get(workload, ())), values


def test_corrupted_reference_digest_fails_the_check(tmp_path, monkeypatch):
    cli = run.import_fknlab()
    command = build("cube_small", run.REFERENCE_SEED).pool[1]  # a fact1 sweep
    monkeypatch.chdir(tmp_path)
    outcome = run.execute(cli, command)
    assert outcome["problems"] == []
    reference = json.loads(run.REFERENCE.read_text())
    assert reference_problems("cube_small", [(command, outcome["digest"])], reference) == []
    reference["workloads"]["cube_small"][command.key] = "0" * 64
    assert reference_problems("cube_small", [(command, outcome["digest"])], reference)


def test_errors_line_counts_errored_instances_even_on_exit_0():
    command = build("theorem1_sweep", 0, tiny=True).pool[0]
    stdout = f"target=theorem1\ninstances={command.instances}\nviolations=0\nerrors=2\n"
    problems, errored = check_output(command, 0, stdout)
    assert errored == 2 and problems


def test_traced_and_untraced_digests_match_and_originals_are_restored(tmp_path, monkeypatch):
    cli = run.import_fknlab()
    import fknlab.bounds
    import fknlab.rv

    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    pool = build("pairwise_sweep", 5, tiny=True).pool  # writes CSV rows
    untraced, traced = run.traced_pass(cli, pool, tracer)
    assert [o["digest"] for o in traced] == [o["digest"] for o in untraced]
    assert {span[3] for span in tracer.spans} >= {"cli.main", "sweep.run_sweep", "rv.convolve", "cli.output"}
    assert fknlab.bounds.convolve is fknlab.rv.convolve
    assert not hasattr(fknlab.rv.convolve, "__wrapped__")
    assert "__post_init__" in vars(fknlab.rv.DiscreteRV)
    assert not hasattr(fknlab.rv.DiscreteRV.__post_init__, "__wrapped__")
    assert "print" not in vars(cli) and cli.csv is csv
    assert "parse_args" not in vars(cli._Parser)


def test_self_times_add_up_to_the_root_spans():
    tracer = Tracer()
    outer = tracer.wrap("sweep.outer", lambda: inner())
    inner = tracer.wrap("rv.inner", lambda: sum(range(10_000)))
    root = tracer.wrap("cli.main", outer)
    root()
    total = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent is None)
    assert sum(tracer.self_time.values()) == pytest.approx(total)
    assert set(tracer.self_time) == {"cli", "sweep", "rv"}


def test_every_workload_names_a_calibration_kernel():
    for name in WORKLOAD_NAMES:
        kernel = build(name, 0, tiny=True).calibration
        timer, reference_s = calibration.kernel(kernel)
        assert timer() > 0 and reference_s > 0


def test_each_command_is_scaled_by_the_kernel_runs_around_it(tmp_path, monkeypatch):
    cli = run.import_fknlab()
    monkeypatch.chdir(tmp_path)
    pool = build("theorem1_sweep", 5, tiny=True).pool
    kernel_times = iter([1.0, 3.0, 5.0])
    outcomes = run.run_pass(cli, pool, lambda: next(kernel_times))
    assert [o["calibration_s"] for o in outcomes] == [2.0, 4.0]
    assert [o["digest"] for o in outcomes] == [o["digest"] for o in run.run_pass(cli, pool)]


def test_tail_is_the_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0, 10)
    assert run.tail(times[:20]) == (20.0, 100.0, 0)  # too few samples: the maximum


def test_per_command_takes_each_commands_median_over_passes():
    passes = [1.0, 10.0, 100.0, 3.0, 30.0, 300.0, 2.0, 20.0, 200.0]  # three passes of three commands
    assert run.per_command(passes, 3) == [2.0, 20.0, 200.0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cube_small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
