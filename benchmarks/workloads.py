"""The benchmark's workloads: the input files each one builds during set-up,
the pool of `fknlab` commands it cycles through, and the check applied to
every command's output.

Only the standard library is imported here, so the parent process that
starts the workload processes never loads numpy or fknlab.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOAD_NAMES = ("theorem1_sweep", "pairwise_sweep", "cube_small", "tribes_analyze")

# The pairwise sweep targets, issued round-robin.
PAIRWISE_TARGETS = ("lemma4", "lemma5", "lemma7", "claim8", "claim9")

@dataclass(frozen=True)
class Command:
    """One `fknlab` command line and what it is expected to do."""

    argv: tuple[str, ...]
    instances: int  # instances it evaluates; one per `analyze` call
    files: tuple[str, ...] = ()  # files it writes (relative to the work dir), part of its digest

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    setup: tuple[Command, ...]  # builds the input files; timed as part of setup_s
    pool: tuple[Command, ...]  # one pass; the timed body repeats whole passes
    calibration: str = "fraction"  # the kernel of calibration.py its times are scaled by


def _sweep(target: str, n: int, seed: int, csv: str | None = None) -> Command:
    argv = ("sweep", "--target", target, "--n", str(n), "--seed", str(seed))
    if csv is None:
        return Command(argv, n)
    return Command((*argv, "--csv", csv), n, (csv,))


def _exhaustive(m: int) -> Command:
    # every non-constant function on m variables against every 2-block partition
    pairs = ((1 << (1 << m)) - 2) * ((1 << (m - 1)) - 1)
    return Command(("sweep", "--target", "corollary2", "--exhaustive-m", str(m)), pairs)


def _tribes(m: int) -> tuple[Command, Command]:
    stem = f"tribes_m{m}"
    example = Command(
        ("example", "tribes", "--m", str(m)), 1, (f"{stem}.table", f"{stem}.partition")
    )
    analyze = Command(("analyze", f"{stem}.table", "--partition-file", f"{stem}.partition"), 1)
    return example, analyze


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for benchmark seed `seed`.

    Every sweep seed is drawn from `seed`, so the same seed gives the same
    commands.  `tiny` shrinks every size for the benchmark's own tests.
    """
    rng = random.Random(f"{name}:{seed}")

    def sweep_seed() -> int:
        return rng.randrange(1 << 31)

    if name == "theorem1_sweep":
        commands, n = (2, 3) if tiny else (50, 40)
        pool = tuple(_sweep("theorem1", n, sweep_seed()) for _ in range(commands))
        return Workload((), pool)
    if name == "pairwise_sweep":
        rounds, n = (1, 3) if tiny else (16, 50)
        pool = tuple(
            _sweep(target, n, sweep_seed(), "rows.csv") for _ in range(rounds) for target in PAIRWISE_TARGETS
        )
        return Workload((), pool)
    if name == "cube_small":
        rounds, m, n = (1, 2, 3) if tiny else (4, 3, 1000)
        pool = tuple(
            command
            for _ in range(rounds)
            for command in (_exhaustive(m), _sweep("fact1", n, sweep_seed()), _sweep("fact8", n, sweep_seed()))
        )
        return Workload((), pool, "small_butterflies")
    if name == "tribes_analyze":
        # Tribes tables do not depend on the seed; m blocks give 2m variables.
        # Two of every three commands are the large table, so the median
        # command is a 20-variable analyze rather than a point between sizes.
        # At 22 variables the run-to-run spread on a shared 2-core machine
        # was about 1.5 times that at 20 and exceeded the timing bounds.
        small, large = (_tribes(2), _tribes(3)) if tiny else (_tribes(9), _tribes(10))
        return Workload((small[0], large[0]), (small[1], large[1], large[1]), "butterfly")
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOAD_NAMES}")


def digest(exit_code: int | None, stdout: str, stderr: str, files: list[bytes]) -> str:
    """Digest of everything a command produced."""
    h = hashlib.sha256(f"exit={exit_code}\n".encode())
    for part in (stdout.encode(), stderr.encode(), *files):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def check_output(command: Command, exit_code: int | None, stdout: str) -> tuple[list[str], int]:
    """Problems in one command's output, and the errored instances it reports.

    Errored instances are read from the `errors=` line, never inferred from
    the exit code: a sweep whose instances all raise still exits 0.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    lines = stdout.splitlines()
    errored = 0
    for line in lines:
        if line.startswith("errors="):
            errored = int(line.partition("=")[2])
            problems.append(f"{errored} errored instances")
    verb = command.argv[0]
    if verb == "sweep":
        if "violations=0" not in lines:
            problems.append("no violations=0 line")
        if f"instances={command.instances}" not in lines:
            problems.append(f"no instances={command.instances} line")
    elif verb == "analyze" and "holds=true" not in lines:
        problems.append("no holds=true line")
    return [f"{command.key}: {p}" for p in problems], errored


def reference_problems(
    name: str, digests: list[tuple[Command, str]], reference: dict
) -> list[str]:
    """Mismatches between the digests of one pass and the recorded reference."""
    recorded = reference.get("workloads", {}).get(name, {})
    problems = []
    for command, value in digests:
        expected = recorded.get(command.key)
        if expected is None:
            problems.append(f"{command.key}: no reference digest")
        elif expected != value:
            problems.append(f"{command.key}: digest {value[:12]} differs from reference {expected[:12]}")
    return problems
