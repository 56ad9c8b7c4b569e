"""Calibration kernels: fixed work that never touches fknlab, timed beside
every command so that a run's times can be scaled to a reference speed.

The benchmark runs on a shared VM whose speed changes from second to second
with what other tenants run on the same physical cores: the same pass of
commands took from 3.3 s to 6.9 s within five minutes.  The slowdown is not
steal time and it is charged to the process as CPU time, so neither
`time.process_time()` nor longer runs remove it.  A kernel that does the
same kind of work as the commands, timed right before and right after each
one, is slowed by the same amount; dividing by its time removes most of the
drift while leaving every change in fknlab's own speed in full.

    scaled time = wall time * reference_s / kernel time

`reference_s` is about the kernel's time on an idle core of the machine the
benchmark was written on (Intel Xeon, 2-vCPU VM, Python 3.11, numpy 2.4),
so on that machine, when idle, scaled and wall times roughly agree.  It
only sets the scale: two runs compare the same way whatever its value.

Each kernel is built by `kernel(name)`, which imports what it needs; the
parent process, which must not load numpy, never calls it.
"""

from __future__ import annotations

import time
from typing import Callable

# name -> seconds of one kernel call on the reference machine, idle
REFERENCE_S = {
    "import": 0.030,
    "fraction": 0.0036,
    "butterfly": 0.064,
    "small_butterflies": 0.0039,
}


def _import() -> Callable[[], object]:
    """Compiling a stdlib module's source and writing 48 MiB of fresh memory,
    16 MiB at a time: what a fresh process does when it imports fknlab and
    numpy.  It imports nothing itself, so it loads nothing that the set-up
    it brackets would otherwise load.  A dict-and-int loop tracked set-up
    time poorly: import time rose by 70% over an hour while that loop's time
    rose by 11%."""
    import os

    source_path = os.path.join(os.path.dirname(os.__file__), "argparse.py")
    with open(source_path, encoding="utf-8") as file:
        source = file.read()

    def run():
        code = compile(source, source_path, "exec")
        for _ in range(3):
            block = b"\x01" * (16 << 20)
        return code, len(block)

    return run


def _fraction() -> Callable[[], object]:
    """Sums and products of small `Fraction`s merged into a dict: what the
    `rv` layer does in a convolution."""
    import random
    from fractions import Fraction

    rng = random.Random(1)
    values = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)) for _ in range(12)]

    def run():
        out: dict = {}
        for _ in range(4):
            for a in values:
                for b in values:
                    v = a + b
                    out[v] = out.get(v, 0) + a * b
        return sorted(out.items())

    return run


def _butterflies(m: int, count: int) -> Callable[[], object]:
    """Unnormalised Walsh–Hadamard butterflies over `count` ±1 tables of 2^m
    entries, and the sum of squares of each: what the `cube` layer does to a
    truth table.  One table of 2^20 entries, the size `tribes_analyze`
    mostly transforms, is bound by memory bandwidth; many tiny ones by the
    cost of each numpy call."""
    import numpy as np

    rng = np.random.default_rng(1)
    tables = [rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << m) for _ in range(count)]

    def run():
        total = 0.0
        for table in tables:
            y = table.astype(np.float64)
            h = 1
            while h < len(y):
                a = y.reshape(-1, 2 * h)
                lo = a[:, :h].copy()
                hi = a[:, h:]
                a[:, :h] += hi
                a[:, h:] = lo - hi
                h *= 2
            total += float((y * y).sum())
        return total

    return run


_FACTORIES = {
    "import": _import,
    "fraction": _fraction,
    "butterfly": lambda: _butterflies(20, 1),
    "small_butterflies": lambda: _butterflies(3, 192),
}


def kernel(name: str) -> tuple[Callable[[], float], float]:
    """(timer, reference_s): `timer()` runs kernel `name` once and returns
    its wall time in seconds."""
    run = _FACTORIES[name]()

    def timer() -> float:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start

    timer()  # first call: imports, allocation, interpreter warm-up
    return timer, REFERENCE_S[name]
