"""Command-line surface: analyze, decompose, check, sweep, example, probe.

Exit codes: 0 = everything checked holds, 1 = usage or input error (such as
a setting the inequality does not read, or a --K0/--K1/--K2 that is not
positive) or standard output closed before the report was written, 2 = an
inequality violation was found, 3 = a sweep found no violation but some of
its instances could not be evaluated (its errors= line counts them).  All
numbers print as exact rationals unless --decimal asks for 15 significant
digits; a negative rational is one word (--E -1/2).

`check` evaluates an inequality through its sweep.TARGETS entry.  `sweep`
reads --config, then its flags, so a flag overrides the file, and
--exhaustive-m must lie in 2..4.  Each inequality reads the settings below
and no other (flag --K0 sets k0, --support-min support_min; rv_count_max and
atom_cap have no flag; E, x1, x2 are check's; analyze is corollary2):"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import bounds, cube, rv, sweep
from .errors import FknLabError, ParseError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1/2" for an option, as it knows only -3 and -.5 as numbers
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _create(path, parents: bool = False):
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _read_partition(args, m: int) -> cube.Partition:
    """The partition of --partition or else of --partition-file; argparse requires exactly one."""
    if args.partition is not None:
        return cube.parse_partition(args.partition, m)
    lines = cube.data_lines(_read_text(args.partition_file))
    if not lines:
        raise ParseError(f"no partition line in {args.partition_file}")
    return cube.parse_partition(lines[0][1], m)


def _add_partition_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help="blocks like 1,2|3,4")
    group.add_argument("--partition-file", help="file whose first data line is a partition")


def _checked(parse):
    """argparse type from a parser that raises ParseError: exit 1 with an error line."""

    def convert(text: str):
        try:
            return parse(text)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _add_constant_flags(parser) -> None:
    add = functools.partial(parser.add_argument, type=_checked(cube.parse_fraction))
    add("--K0", dest="k0", help="override the abs-variance transfer constant (default 4)")
    add("--K1", dest="k1", help="override the two-variable constant (default 20480)")
    add("--K2", dest="k2", help="override the sequence constant (default 61440)")


def _cmd_analyze(args) -> int:
    fmt = functools.partial(bounds.format_value, decimal=args.decimal)
    f = cube.parse_boolean_function(_read_text(args.table))
    partition = _read_partition(args, f.m)
    given = {k: v for k, v in vars(args).items() if v is not None}  # corollary2 reads only --K2
    outcome = bounds.corollary2_apply(f, partition, sweep.read_constants("corollary2", given))
    print(f"m={f.m}")
    print(f"coeff_empty={fmt(outcome.coeff_empty)}")
    print(f"variance={fmt(outcome.var_f)}")
    print(f"cross_weight={fmt(outcome.cross_weight)}")
    print(f"epsilon={fmt(outcome.epsilon)}")
    print(f"k={outcome.k + 1}")
    block = ",".join(str(i) for i in sorted(partition.blocks[outcome.k]))
    print(f"k_block={block}")
    print(f"dist={fmt(outcome.dist)}")
    print(f"bound={fmt(outcome.bound)}")
    print(f"holds={fmt(outcome.holds)}")
    return 0 if outcome.holds else 2


def _cmd_decompose(args) -> int:
    fmt = functools.partial(bounds.format_value, decimal=args.decimal)
    variable = rv.parse_rv(_read_text(args.rv_file))
    components = rv.two_point_decompose(variable)
    print(f"components={len(components)}")
    for i, (weight, component) in enumerate(components, start=1):
        atoms = rv.format_rv_inline(component.to_rv())
        print(
            f"component={i} weight={fmt(weight)} d={fmt(component.d)}"
            f" p={fmt(component.p)} atoms={atoms}"
        )
    return 0


def _cmd_check(args) -> int:
    name, files, target = args.inequality, args.rv_files, sweep.TARGETS[args.inequality]
    given = {k: v for k, v in vars(args).items() if k in sweep.SETTINGS and v is not None}
    constants = sweep.read_constants(name, given)
    if (len(files) != target.files) if target.files else len(files) < 2:
        wanted = f"exactly {target.files}" if target.files else "at least 2"
        raise _UsageError(f"{name} takes {wanted} RV file(s), got {len(files)}")
    report = target.check([rv.parse_rv(_read_text(path)) for path in files], given, constants)
    if "k" in report.witness:  # the index of an input: name its file too
        report = replace(report, witness={**report.witness, "k_file": files[report.witness["k"]]})
    for line in report.kv_lines(args.decimal):
        print(line)
    return 0 if report.holds else 2


def _cmd_sweep(args) -> int:
    fmt = functools.partial(bounds.format_value, decimal=args.decimal)
    settings = sweep.read_settings(_read_text(args.config)) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in sweep._CONFIG_KEYS and v is not None}
    cfg = sweep.config_from_settings({**settings, **flags})
    # a bad path fails before the sweep; each row is written as it comes
    with _create(args.csv) if args.csv else contextlib.nullcontext() as handle:
        on_row = csv.writer(handle).writerow if handle else None
        if on_row:
            on_row(["instance_id", "lhs", "rhs", "ratio", "holds", "witness"])
        result = sweep.run_sweep(cfg, on_row)
    print(f"target={result.target}")
    print(f"instances={result.instances_run}")
    print(f"violations={len(result.violations)}")
    for line in result.violations[:20]:
        print(f"violation: {line}")
    if len(result.violations) > 20:
        print(f"... and {len(result.violations) - 20} more")
    if result.min_ratio is not None:
        print(f"min_ratio={fmt(result.min_ratio)}")
        print(f"min_ratio_instance={result.min_ratio_witness}")
    if result.empirical_constant is not None:
        print(f"empirical_constant={fmt(result.empirical_constant)}")
    if result.errors:
        print(f"errors={len(result.errors)}")
        for index, message in result.errors[:10]:
            print(f"error: instance={index} {message}")
    if args.csv:
        print(f"csv={args.csv}")
    if result.violations:
        return 2
    return 3 if result.errors else 0


def _cmd_example(args) -> int:
    out_dir = Path(args.out_dir)
    if args.name == "tribes":
        if args.m is None or args.m < 1:
            raise _UsageError("tribes needs --m >= 1")
        f, partition = bounds.tribes_example(args.m)
        stem = f"tribes_m{args.m}"
        files = {
            out_dir / f"{stem}.table": cube.format_boolean_function(
                f,
                comments=[
                    f"OR of two ANDs on disjoint {args.m}-variable blocks (-1 = true)",
                    f"generated by: fknlab example tribes --m {args.m}",
                ],
            ),
            out_dir / f"{stem}.partition": "# block 1 = AND inputs, block 2 = AND inputs\n"
            + f"{cube.format_partition(partition)}\n",
        }
    else:  # claim6, the only other choice
        if args.m is not None:
            raise _UsageError("claim6 takes no --m")
        x, y = bounds.claim6_example()
        files = {
            out_dir / "claim6_x.rv": rv.format_rv(
                x,
                comments=[
                    "balanced pair forcing the abs-variance transfer constant >= 4/3",
                    "generated by: fknlab example claim6",
                ],
            ),
            out_dir / "claim6_y.rv": rv.format_rv(
                y, comments=["generated by: fknlab example claim6"]
            ),
        }
    for path, text in files.items():
        with _create(path, parents=True) as handle:
            handle.write(text)
        print(f"wrote {path}")
    return 0


def _cmd_probe(args) -> int:
    fmt = functools.partial(bounds.format_value, decimal=args.decimal)
    f = cube.parse_boolean_function(_read_text(args.table))
    partition = _read_partition(args, f.m)
    g, hs, dist = sweep.conjecture_probe(f, partition, budget=args.budget)
    print("experimental: exhaustive composition search; a result proves nothing")
    print(f"dist={fmt(dist)}")
    print(f"g={cube.format_table_row(g)}")
    for j, h in enumerate(hs, start=1):
        block = ",".join(str(i) for i in sorted(partition.blocks[j - 1]))
        print(f"h{j}[{block}]={cube.format_table_row(h)}")
    if dist == 0:
        print("note: exact composition found")
    return 0


@functools.cache  # one parser per process: building it costs more than a small command
def build_parser() -> _Parser:
    raw = argparse.RawDescriptionHelpFormatter  # keeps the reads table's layout
    reads = [" ".join(s for s in sweep.SETTINGS if s in t.reads) for t in sweep.TARGETS.values()]
    table = "".join(f"  {name:<11}{line}\n" for name, line in zip(sweep.TARGETS, reads))
    parser = _Parser(prog="fknlab", description=f"{__doc__}\n\n{table}", formatter_class=raw)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="partition analysis of a truth table")
    analyze.add_argument("table", help="truth-table file (m=<int> header, +/- row)")
    _add_partition_flags(analyze)
    analyze.add_argument("--decimal", action="store_true")
    _add_constant_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    decompose = sub.add_parser("decompose", help="two-point decomposition of a balanced RV")
    decompose.add_argument("rv_file")
    decompose.add_argument("--decimal", action="store_true")
    decompose.set_defaults(func=_cmd_decompose)

    check = sub.add_parser("check", help="evaluate one inequality on explicit inputs")
    check.add_argument("inequality", choices=[n for n, t in sweep.TARGETS.items() if t.check])
    check.add_argument("rv_files", nargs="+")
    rational = _checked(cube.parse_fraction)
    check.add_argument("--E", type=rational, help="shift constant, default 0")
    check.add_argument("--x1", type=rational, help="evaluation point")
    check.add_argument("--x2", type=rational, help="evaluation point")
    check.add_argument("--decimal", action="store_true")
    _add_constant_flags(check)
    check.set_defaults(func=_cmd_check)

    sweep_cmd = sub.add_parser("sweep", help="randomized/exhaustive inequality sweep")
    sweep_cmd.add_argument("--config", help="key=value config file; flags override it")
    sweep_cmd.add_argument("--target", choices=tuple(sweep.TARGETS))
    # valued settings take their parser from the config table and have no default here
    for key in "n seed support_min support_max value_lo value_hi denom_cap exhaustive_m".split():
        sweep_cmd.add_argument("--" + key.replace("_", "-"), type=_checked(sweep._CONFIG_KEYS[key]))
    sweep_cmd.add_argument("--include-claim6", action="store_true", default=None)
    sweep_cmd.add_argument("--csv", help="write per-instance rows to this file")
    sweep_cmd.add_argument("--decimal", action="store_true")
    _add_constant_flags(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    example = sub.add_parser("example", help="write the extremal example files")
    example.add_argument("name", choices=("tribes", "claim6"))
    example.add_argument(
        "--m", type=_checked(sweep._config_int), help="tribes block size; claim6 takes none"
    )
    example.add_argument("--out-dir", default=".")
    example.set_defaults(func=_cmd_example)

    probe = sub.add_parser("probe", help="experimental composition search")
    probe.add_argument("table")
    _add_partition_flags(probe)
    probe.add_argument("--budget", type=_checked(sweep._config_int), default=10**7)
    probe.add_argument("--decimal", action="store_true")
    probe.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_UsageError, FknLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
