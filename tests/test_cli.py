"""End-to-end CLI behavior: files in, key=value reports out, exit codes."""

import argparse
import csv
import hashlib
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fknlab import cli as cli_module
from fknlab import rv as rv_module
from fknlab import sweep
from fknlab.cli import build_parser, main
from fknlab.cube import parse_boolean_function, parse_partition
from fknlab.rv import parse_rv
from fknlab.bounds import claim6_example, tribes_example

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


# SHA-256 over "exit=<code>\n" + stdout + CSV of `sweep --seed 5 --csv rows.csv`
# (no --seed for corollary2, which reads none); any change to generation,
# evaluation, accumulation or formatting shows here.
SWEEP_DIGESTS = [
    (("fact1", "--n", "40"), "52f9616597ff7bd28c72abf5b203eec39c42941d759ff83b04f482713ddd6afc"),
    (("fact8", "--n", "40"), "6347d62cd5e409a6530746668c5f4e021d1b0062ff38d6e3a697fef65e5e35c5"),
    (("lemma4", "--n", "40"), "61c83a6c5cb1f977182ea78bc3c8fd2759b69736c32c4400071d87c8ae3cd4be"),
    (("lemma5", "--n", "40"), "c34fca3d216ac6a4707872d64f8256e9843b00eb748f50b7cecd20406d5f3f44"),
    (("lemma7", "--n", "40"), "d73dfedfad82838097d387acd30d00db8c9e490e0e9aad34fbd339e55d058bcd"),
    (("claim8", "--n", "40"), "3a2018157a369b9895a7476f3db068b8d4c4af03e5328fb57ed82358dde0dc59"),
    (("claim9", "--n", "40"), "1f3513928753bf97bad4e8183bb549ef2deb7d202eadc72ee2583e720430738a"),
    (("theorem1", "--n", "40"), "9d41df3670daa8fd64197b002efe7b7e6e338cdcabcbaf831245ebb02266f0dd"),
    (("corollary2", "--exhaustive-m", "3"), "0a9a9d47a4dee42461afcf95075c4e35a70eeeee195eaabe9552deff703375d9"),
    (
        ("lemma7", "--n", "40", "--include-claim6"),
        "594af1c525ad65e6c90c633569a7c6811221fe1245b1df4c14f23536fcd84f1d",
    ),
    # wide denominators and supports; negative E and non-integer means; constants; 0/1 values
    (
        ("theorem1", "--n", "40", "--value-lo", "-1/3", "--value-hi", "5/2", "--denom-cap", "30", "--support-max", "9"),
        "4163428dfd6cc40a9fcec11f69b33a60895b4783d7fbb8caa7f3c2dda6e91e84",
    ),
    (
        ("lemma7", "--n", "40", "--value-lo", "-7/4", "--value-hi", "1/2", "--denom-cap", "7"),
        "65c27b74e6685fcc083cecf4292a6ef2681ffb17d3a9a7129b7634006f078004",
    ),
    (
        ("claim9", "--n", "40", "--value-lo", "-7/4", "--value-hi", "1/2", "--denom-cap", "7"),
        "c6e650b977a9c593a4a5cefb94df84601a7914ceefec3e79a91707631635daf0",
    ),
    (
        ("lemma5", "--n", "40", "--support-min", "1", "--support-max", "1"),
        "fe28b5f6ce5037917c56beb192d179e3c9b1c653a021cf1943ef6ce9b85046bc",
    ),
    (
        ("lemma4", "--n", "40", "--support-max", "2", "--value-lo", "0", "--value-hi", "1"),
        "d284fd19533cf0d3f26a4154fa43987e35c87848319684d47b822ad3de7602ae",
    ),
    # wide denominators through the centred pairs and claim8's two-point sides
    (("claim8", "--n", "40", "--denom-cap", "30"), "4384089268ef025f62d0246852875637575ed3d4b07955b46c2c35a56e46fc67"),
    (
        ("lemma5", "--n", "40", "--value-lo", "-1/3", "--value-hi", "5/2", "--denom-cap", "30", "--support-max", "9"),
        "6d6ba254162ec7e45fac4a66c3c82405231ad5abaed81c8326fca153722c9c1c",
    ),
    (
        ("claim9", "--n", "40", "--value-lo", "-1/3", "--value-hi", "5/2", "--denom-cap", "30", "--support-max", "9"),
        "d17333584c38fb98a107a0cc786ce508d041cf1e9b9f6a354dfa6be2f5d361ee",
    ),
]


@pytest.fixture
def claim6_files(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "claim6", "--out-dir", str(tmp_path))
    assert code == 0
    return str(tmp_path / "claim6_x.rv"), str(tmp_path / "claim6_y.rv")


@pytest.fixture
def tribes2_files(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "tribes", "--m", "2", "--out-dir", str(tmp_path))
    assert code == 0
    return str(tmp_path / "tribes_m2.table"), str(tmp_path / "tribes_m2.partition")


class TestExample:
    def test_claim6_files_round_trip(self, claim6_files):
        x_path, y_path = claim6_files
        x, y = claim6_example()
        assert parse_rv(Path(x_path).read_text()).atoms == x.atoms
        assert parse_rv(Path(y_path).read_text()).atoms == y.atoms

    def test_tribes_files_round_trip(self, tribes2_files):
        table_path, partition_path = tribes2_files
        f, partition = tribes_example(2)
        parsed = parse_boolean_function(Path(table_path).read_text())
        assert np.array_equal(parsed.table, f.table)
        line = [
            l for l in Path(partition_path).read_text().splitlines()
            if l.strip() and not l.startswith("#")
        ][0]
        assert parse_partition(line, 4).blocks == partition.blocks

    def test_unwritable_out_dir(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        code, out, err = run(capsys, "example", "claim6", "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {out_dir / 'claim6_x.rv'}: ")
        assert "Traceback" not in err

    def test_claim6_rejects_m(self, tmp_path, capsys):
        code, out, err = run(capsys, "example", "claim6", "--m", "3", "--out-dir", str(tmp_path))
        assert (code, out, err) == (1, "", "error: claim6 takes no --m\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_m_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "example", "tribes", "--m", "0", "--out-dir", str(tmp_path))
        assert code == 1
        assert "m >= 1" in err


class TestCheck:
    def test_lemma5_claim6(self, claim6_files, capsys):
        code, out, _ = run(capsys, "check", "lemma5", *claim6_files)
        assert code == 0
        values = kv(out)
        assert values["lhs"] == "3/4"
        assert values["rhs"] == "1/4"
        assert values["ratio"] == "3"
        assert values["holds"] == "true"
        assert values["witness.max_abs_var"] == "1"
        assert values["witness.required_k0"] == "4/3"

    def test_k0_overrides(self, claim6_files, capsys):
        code, out, _ = run(capsys, "check", "lemma7", *claim6_files, "--K0", "1.33")
        assert code == 2
        assert kv(out)["holds"] == "false"
        code, out, _ = run(capsys, "check", "lemma7", *claim6_files, "--K0", "4/3")
        assert code == 0

    def test_lemma7_and_lemma5_need_k0_near_two(self, tmp_path, capsys):
        # X balanced on {-S, 1/4}, Y uniform on +-S/2, E = -1/4 at S = 480:
        # required_k0 = 3690241/1845601 ~ 1.99948, so K0 = 1.999 fails; X - 1/4
        # and Y turn lemma7 into lemma5, which gives the same value
        files = {
            "x": "-480 1/1921\n1/4 1920/1921\n",
            "y": "-240 1/2\n240 1/2\n",
            "x_shifted": "-1921/4 1/1921\n0 1920/1921\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.rv").write_text(text)
        x, y, x_shifted = (str(tmp_path / f"{name}.rv") for name in files)
        for argv in (("lemma7", x, y, "--E", "-1/4"), ("lemma5", x_shifted, y)):
            code, out, _ = run(capsys, "check", *argv, "--K0", "1999/1000")
            values = kv(out)
            assert (code, values["holds"]) == (2, "false")
            assert values["witness.required_k0"] == "3690241/1845601"

    def test_a_small_lemma7_witness_past_k0_1_92(self, tmp_path, capsys):
        x, y = tmp_path / "x.rv", tmp_path / "y.rv"
        x.write_text("-3/2 1/2\n3/2 1/2\n")
        y.write_text("-1/4 12/13\n3 1/13\n")
        code, out, _ = run(capsys, "check", "lemma7", str(x), str(y), "--E", "1/4")
        assert (code, kv(out)["witness.required_k0"]) == (0, "169/88")

    def test_theorem1_witness_file(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            path = tmp_path / f"u{i}.rv"
            path.write_text("-1 1/2\n1 1/2\n")
            paths.append(str(path))
        code, out, _ = run(capsys, "check", "theorem1", *paths)
        assert code == 0
        values = kv(out)
        assert values["lhs"] == "3/4"
        assert values["rhs"] == "1/30720"
        assert values["witness.k"] == "0"
        assert values["witness.k_file"] == paths[0]

    def test_theorem1_split_format(self, tmp_path, capsys):
        paths = []
        for i, text in enumerate(["-2 1/2\n2 1/2\n", "-1 1/2\n1 1/2\n", "-1 1/2\n1 1/2\n"]):
            path = tmp_path / f"v{i}.rv"
            path.write_text(text)
            paths.append(str(path))
        code, out, _ = run(capsys, "check", "theorem1", *paths)
        assert code == 0
        values = kv(out)
        assert values["witness.split_a"] == "0"
        assert values["witness.split_b"] == "1,2"

    def test_nonpositive_constant(self, claim6_files, capsys):
        code, out, err = run(capsys, "check", "lemma7", *claim6_files, "--K0", "0")
        assert code == 1
        assert out == ""
        assert "constants must be positive" in err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("sweep", "--target", "lemma7", "--n", "3", "--K0", "abc"), None),
            (("sweep", "--target", "lemma7", "--n", "3", "--value-lo", "x"), None),
            (("sweep", "--target", "lemma7", "--n", "abc"), None),
            (("check", "lemma7", "{x}", "{y}", "--E", "1/0"), None),
            (("check", "claim8", "{y}", "--x1", "q", "--x2", "0"), None),
            (("sweep", "--config", "{config}"), "target=lemma7\nn=abc\n"),
            (("sweep", "--config", "{config}"), "target=lemma7\nvalue_hi=1/0\n"),
            (("sweep", "--config", "{config}"), "target=lemma7\nk0=abc\n"),
            (("sweep", "--config", "{config}"), "target=lemma7\ninclude_claim6=ture\n"),
        ],
        ids=[
            "K0", "value-lo", "n", "E", "x1",
            "config-n", "config-value_hi", "config-k0", "config-bool",
        ],
    )
    def test_malformed_number_is_input_error(self, argv, config, claim6_files, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        if config is not None:
            config_path.write_text(config)
        paths = {"x": claim6_files[0], "y": claim6_files[1], "config": str(config_path)}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in out + err
        if config is not None:
            assert "line 2: " in err

    UNREAD = (
        [("check", name, "--E") for name in ("lemma4", "lemma5", "claim8", "theorem1")]
        + [
            ("check", name, flag)
            for name in ("lemma4", "lemma5", "lemma7", "claim9", "theorem1")
            for flag in ("--x1", "--x2")
        ]
        + [("check", "claim9", "--K0"), ("check", "claim8", "--K2"), ("check", "lemma5", "--K1")]
        + [("analyze", "corollary2", "--K0"), ("analyze", "corollary2", "--K1")]
        + [("sweep", "claim9", "--K0"), ("config", "claim9", "k0")]
    )

    @pytest.mark.parametrize(
        "command, target, flag",
        UNREAD,
        ids=[f"{t}-{f}" if c == "check" else f"{c}-{t}-{f}" for c, t, f in UNREAD],
    )
    def test_unread_flag_rejected(
        self, command, target, flag, claim6_files, tribes2_files, tmp_path, capsys
    ):
        config = tmp_path / "unread.cfg"
        config.write_text(f"target={target}\n{flag}=3\n")
        table, partition = tribes2_files
        argv = {
            "check": ("check", target, *claim6_files, flag, "3"),
            "analyze": ("analyze", table, "--partition-file", partition, flag, "3"),
            "sweep": ("sweep", "--target", target, "--n", "3", flag, "3"),
            "config": ("sweep", "--config", str(config)),
        }[command]
        code, out, err = run(capsys, *argv)
        name = flag.lstrip("-").replace("K", "k")  # --K0 and k0= both set k0
        assert (code, out, err) == (1, "", f"error: {target} does not read {name}\n")

    @pytest.mark.parametrize("inequality", ["lemma7", "claim9"])
    def test_e_read_where_shifted(self, inequality, claim6_files, capsys):
        for e in ("1/2", "-1/2"):  # a negative rational is one word as well
            code, out, _ = run(capsys, "check", inequality, *claim6_files, "--E", e)
            assert code == 0
            # claim9 turns a negative shift into E >= 0 and records the flip
            flipped = inequality == "claim9" and e.startswith("-")
            assert kv(out)["witness.e"] == (e[1:] if flipped else e)
            assert kv(out).get("witness.flipped", "false") == str(flipped).lower()
        _, unshifted, _ = run(capsys, "check", inequality, *claim6_files)
        assert kv(unshifted)["witness.e"] == "0"

    def test_claim8(self, tmp_path, capsys):
        y_path = tmp_path / "y.rv"
        y_path.write_text("-1 1/2\n1 1/2\n")
        code, out, _ = run(capsys, "check", "claim8", str(y_path), "--x1", "2", "--x2", "0")
        assert code == 0
        values = kv(out)
        assert values["lhs"] == "2"
        assert values["rhs"] == "1"

    def test_arity_errors(self, claim6_files, capsys):
        x, y = claim6_files
        for argv in (
            ("lemma5", x),
            ("lemma4", x, y, x),
            ("claim8", x),  # no --x1/--x2
            ("claim8", x, y, "--x1", "2", "--x2", "0"),
            ("theorem1", x),
        ):
            code, out, err = run(capsys, "check", *argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {argv[0]} ")

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rv"
        bad.write_text("0 1/2\n1 1/3\n")
        code, _, err = run(capsys, "check", "lemma5", str(bad), str(bad))
        assert code == 1
        assert "sum" in err

    def test_decimal_rendering(self, claim6_files, capsys):
        code, out, _ = run(capsys, "check", "lemma5", *claim6_files, "--decimal")
        assert code == 0
        assert kv(out)["lhs"] == "0.75"

    def test_decimal_values_round_once_from_the_exact_value(self, tmp_path, capsys):
        # E = 6.10339506172839506...; through a float it printed 6.10339506172839
        y = tmp_path / "one.rv"
        y.write_text("-1 1/2\n1 1/2\n")
        argv = ("lemma7", str(y), str(y), "--E", "3955/648", "--decimal")
        code, out, _ = run(capsys, "check", *argv)
        assert (code, kv(out)["witness.e"]) == (0, "6.1033950617284")

    def test_decimal_values_past_the_float_range(self, tmp_path, capsys):
        # each ended in an OverflowError traceback, and 1e-400 printed as 0
        y = tmp_path / "one.rv"
        y.write_text("-1 1/2\n1 1/2\n")
        code, out, _ = run(capsys, "check", "lemma7", str(y), str(y), "--E", "1e400", "--decimal")
        assert (code, kv(out)["witness.e"], kv(out)["rhs"]) == (0, "1e+400", "0.25")
        code, out, _ = run(capsys, "check", "lemma7", str(y), str(y), "--E", "1e-400", "--decimal")
        values = kv(out)
        assert (code, values["witness.e"], values["rhs"]) == (0, "1e-400", "2.5e-801")
        assert values["witness.max_abs_var"] == "1e-800"
        argv = ("claim8", str(y), "--x1", "1e400", "--x2", "0", "--decimal")
        code, out, _ = run(capsys, "check", *argv)
        values = kv(out)
        assert (code, values["lhs"], values["rhs"], values["witness.x1"]) == (
            0,
            "1e+800",
            "2.5e+799",
            "1e+400",
        )


class TestAnalyze:
    def test_tribes_m1(self, tmp_path, capsys):
        run(capsys, "example", "tribes", "--m", "1", "--out-dir", str(tmp_path))
        code, out, _ = run(
            capsys,
            "analyze",
            str(tmp_path / "tribes_m1.table"),
            "--partition",
            "1|2",
        )
        assert code == 0
        values = kv(out)
        assert values["m"] == "2"
        assert values["coeff_empty"] == "-1/2"
        assert values["variance"] == "3/4"
        assert values["cross_weight"] == "1/4"
        assert values["epsilon"] == "1/3"
        assert values["k"] == "1"
        assert values["dist"] == "1/2"
        assert values["holds"] == "true"

    def test_tribes_m2_partition_file(self, tribes2_files, capsys):
        table_path, partition_path = tribes2_files
        code, out, _ = run(
            capsys, "analyze", table_path, "--partition-file", partition_path
        )
        assert code == 0
        values = kv(out)
        assert values["epsilon"] == "1/7"
        assert values["dist"] == "9/16"

    def test_tribes_m11_past_the_old_int64_bound(self, tmp_path, capsys):
        # 22 variables: 3m + 2 > 62, past int64 for a sum of pointwise
        # squares; the margin check stays in int64, and the output is pinned
        run(capsys, "example", "tribes", "--m", "11", "--out-dir", str(tmp_path))
        code, out, _ = run(
            capsys,
            "analyze",
            str(tmp_path / "tribes_m11.table"),
            "--partition-file",
            str(tmp_path / "tribes_m11.partition"),
        )
        assert code == 0
        assert out == (
            "m=22\n"
            "coeff_empty=2093057/2097152\n"
            "variance=17158905855/4398046511104\n"
            "cross_weight=4190209/4398046511104\n"
            "epsilon=1/4095\n"
            "k=1\n"
            "k_block=1,2,3,4,5,6,7,8,9,10,11\n"
            "dist=4190209/2147483648\n"
            "bound=61442/4095\n"
            "holds=true\n"
        )

    def test_a_partition_file_with_no_data_line(self, tribes2_files, tmp_path, capsys):
        table_path, _ = tribes2_files
        empty = tmp_path / "empty.partition"
        empty.write_text("# no partition here\n\n")
        code, out, err = run(capsys, "analyze", table_path, "--partition-file", str(empty))
        assert (code, out, err) == (1, "", f"error: no partition line in {empty}\n")

    def test_constant_function_rejected(self, tmp_path, capsys):
        path = tmp_path / "const.table"
        path.write_text("m=2\n++++\n")
        code, _, err = run(capsys, "analyze", str(path), "--partition", "1|2")
        assert code == 1
        assert "variance zero" in err

    def test_a_header_m_that_is_not_an_integer(self, tmp_path, capsys):
        path = tmp_path / "bad.table"
        path.write_text("m=x\n+-\n")
        code, out, err = run(capsys, "analyze", str(path), "--partition", "1")
        assert (code, out, err) == (1, "", "error: line 1: bad variable count 'x'\n")

    def test_the_exhaustive_witness_has_ratio_3_on_three_blocks(self, tmp_path, capsys):
        # the m=3 exhaustive check weighs two-block partitions only: its
        # constant is 2, with this table against 1,2|3 as the witness
        code, out, _ = run(capsys, "sweep", "--target", "corollary2", "--exhaustive-m", "3")
        values = kv(out)
        assert (code, values["empirical_constant"]) == (0, "2")
        witness = "instance=66 table=---+-+++;partition=1,2|3;"
        assert values["min_ratio_instance"].startswith(witness)
        path = tmp_path / "witness.table"
        path.write_text("m=3\n---+-+++\n")
        code, out, _ = run(capsys, "analyze", str(path), "--partition", "1|2|3")
        values = kv(out)
        assert (code, values["dist"], values["epsilon"]) == (0, "3/4", "1/4")
        assert (values["bound"], values["holds"]) == ("30721/2", "true")
        code, out, _ = run(capsys, "analyze", str(path), "--partition", "1|2|3", "--K2", "1/2")
        values = kv(out)
        assert (code, values["dist"], values["epsilon"]) == (2, "3/4", "1/4")
        assert (values["bound"], values["holds"]) == ("5/8", "false")

    def test_the_m6_witness_fails_at_k2_one_half(self, tmp_path, capsys):
        path = tmp_path / "m6.table"
        path.write_text("m=6\n-+-------+------++++++++-+-------+-------+-------+-------+------\n")
        argv = ("analyze", str(path), "--partition", "1,2,3|4,5,6", "--K2", "1/2")
        code, out, _ = run(capsys, *argv)
        values = kv(out)
        assert (code, values["epsilon"], values["dist"]) == (2, "1/15", "49/128")
        assert (values["bound"], values["holds"]) == ("1/6", "false")

    def test_dictator(self, tmp_path, capsys):
        path = tmp_path / "dict.table"
        path.write_text("m=2\n+-+-\n")
        code, out, _ = run(capsys, "analyze", str(path), "--partition", "1|2")
        assert code == 0
        values = kv(out)
        assert values["epsilon"] == "0"
        assert values["dist"] == "0"


class TestDecompose:
    def test_four_atom_example(self, tmp_path, capsys):
        path = tmp_path / "y.rv"
        path.write_text("-3 1/6\n-1 1/3\n1 1/3\n3 1/6\n")
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "components=2"
        assert "weight=2/3" in lines[1] and "atoms=(-1:1/2,1:1/2)" in lines[1]
        assert "weight=1/3" in lines[2] and "atoms=(-3:1/2,3:1/2)" in lines[2]

    def test_unbalanced_rejected(self, tmp_path, capsys):
        path = tmp_path / "y.rv"
        path.write_text("0 1/2\n1 1/2\n")
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 1

    def test_decimal_atoms_past_the_float_range(self, tmp_path, capsys):
        # d = 5e399 overflowed float(); the atoms print exactly, as without --decimal
        path = tmp_path / "y.rv"
        path.write_text("-1e400 1/2\n1e400 1/2\n")
        code, out, _ = run(capsys, "decompose", str(path), "--decimal")
        big = str(10**400)
        assert (code, out) == (
            0,
            f"components=1\ncomponent=1 weight=1 d=5e+399 p=0.5 atoms=(-{big}:1/2,{big}:1/2)\n",
        )

    def test_a_nonpositive_probability_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "y.rv"
        for line, probability in (("0 0", "0"), ("0 -1/2", "-1/2")):
            path.write_text(f"-1 1/2\n{line}\n1 1/2\n")
            code, out, err = run(capsys, "decompose", str(path))
            assert (code, out) == (1, "")
            assert err == f"error: line 2: probability {probability} must be positive\n"


class TestSweep:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "sweep", "--target", "lemma7", "--n", "60", "--seed", "7")
        assert code == 0
        values = kv(out)
        assert values["violations"] == "0"
        assert values["instances"] == "60"

    def test_only_printed_variables_are_rendered(self, monkeypatch, capsys):
        # witnesses hold the drawn variables; text is made for printed lines only
        real, rendered = rv_module.format_rv_inline, []

        def counted(x):
            rendered.append(x)
            return real(x)

        for name, module in list(sys.modules.items()):
            if name == "fknlab" or name.startswith("fknlab."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        code, out, _ = run(capsys, "sweep", "--target", "theorem1", "--n", "200", "--seed", "5")
        assert code == 0
        printed = re.findall(r"(?:^|[ ;])x\d+=\(", out, flags=re.MULTILINE)
        assert printed and len(rendered) == len(printed)

    def test_violation_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--target",
            "lemma7",
            "--n",
            "30",
            "--seed",
            "7",
            "--K0",
            "1.0",
            "--include-claim6",
        )
        assert code == 2
        assert kv(out)["violations"] != "0"

    def test_corollary2_exhaustive(self, capsys):
        code, out, _ = run(capsys, "sweep", "--target", "corollary2", "--exhaustive-m", "2")
        assert code == 0
        assert kv(out)["violations"] == "0"
        assert kv(out)["instances"] == "14"

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "sweep", "--target", "claim8", "--n", "12", "--csv", str(csv_path)
        )
        assert code == 0
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["instance_id", "lhs", "rhs", "ratio", "holds", "witness"]
        assert len(rows) == 13

    def test_unwritable_csv(self, tmp_path, capsys):
        path = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "sweep", "--target", "lemma4", "--n", "3", "--csv", str(path))
        assert (code, out) == (1, "")  # refused before the sweep ran
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_negative_rational_flag(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma7\nn=20\nvalue_lo=-1/2\n")
        expected = run(capsys, "sweep", "--config", str(config))
        got = run(capsys, "sweep", "--target", "lemma7", "--n", "20", "--value-lo", "-1/2")
        assert got == expected and got[0] == 0

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma4\nn=25\nseed=3\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        assert kv(out)["target"] == "lemma4"
        assert kv(out)["instances"] == "25"

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma4\nn=25\nseed=3\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config), "--n", "7", "--seed", "9")
        expected = run(capsys, "sweep", "--target", "lemma4", "--n", "7", "--seed", "9")
        assert (code, out) == expected[:2]
        assert kv(out)["instances"] == "7"

    def test_constant_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma4\nn=30\nseed=7\nk1=1/100000000\n")
        code, _, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        code, out, _ = run(capsys, "sweep", "--config", str(config), "--K1", "20480")
        expected = run(capsys, "sweep", "--target", "lemma4", "--n", "30", "--seed", "7")
        assert (code, out) == expected[:2] and code == 0

    @pytest.mark.parametrize("m", ["-1", "0", "1", "5"])
    def test_exhaustive_m_out_of_range(self, m, capsys):
        code, out, err = run(capsys, "sweep", "--target", "corollary2", "--exhaustive-m", m)
        assert code == 1
        assert out == ""
        assert err == "error: exhaustive_m must lie in 2..4\n"

    def test_needs_target_or_config(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1

    def test_errored_instances_exit_3(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        for target, n, errors in (("theorem1", 50, 49), ("lemma7", 5, 5), ("lemma4", 20, 20)):
            config.write_text(f"target={target}\nn={n}\natom_cap=1\n")
            code, out, _ = run(capsys, "sweep", "--config", str(config))
            assert code == 3
            assert kv(out)["violations"] == "0"
            assert kv(out)["errors"] == str(errors)
            # a constant only when some instance was evaluated to measure it
            assert ("empirical_constant" in kv(out)) == (errors < n)

    def test_a_range_with_no_multiple_of_the_cap_names_the_cap_grid(self, capsys):
        # a drawn denominator of 3 fits [1/3, 7/20]; the cap 5 does not, and
        # the config refuses that grid once, before any instance is drawn
        flags = "--value-lo 1/3 --value-hi 7/20 --denom-cap 5 --support-max 1".split()
        code, out, err = run(capsys, "sweep", "--target", "lemma4", "--n", "40", *flags)
        assert (code, out, err) == (1, "", "error: no multiple of 1/5 in [1/3, 7/20]\n")

    def test_instance_count_below_one_names_n(self, capsys):
        code, out, err = run(capsys, "sweep", "--target", "lemma4", "--n", "0")
        assert (code, out, err) == (1, "", "error: n must be >= 1\n")

    @pytest.mark.parametrize("seed", ["-1", "-5", str(2**32), str(2**32 + 5)])
    def test_seed_outside_32_bits_is_input_error(self, seed, capsys):
        # masked to 32 bits, -5 and 2^32 + 5 ran the streams of 2^32 - 5 and 5
        code, out, err = run(capsys, "sweep", "--target", "lemma4", "--n", "20", "--seed", seed)
        assert (code, out, err) == (1, "", "error: seed must lie in 0..4294967295\n")

    def test_largest_seed_runs_its_own_stream(self, capsys):
        code, out, _ = run(capsys, "sweep", "--target", "lemma4", "--n", "20", "--seed", str(2**32 - 1))
        assert (code, kv(out)["instances"]) == (0, "20")
        _, other, _ = run(capsys, "sweep", "--target", "lemma4", "--n", "20", "--seed", "0")
        assert out != other

    def test_atom_cap_below_one_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma4\nn=5\natom_cap=-4\n")
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert (code, out, err) == (1, "", "error: atom_cap must be >= 1\n")

    def test_claim8_denom_cap_without_supports(self, capsys):
        # claim8 draws no supports, so only its denom_cap >= 2 is checked
        code, out, _ = run(capsys, "sweep", "--target", "claim8", "--n", "8", "--denom-cap", "3")
        assert (code, kv(out)["instances"]) == (0, "8")
        code, out, err = run(capsys, "sweep", "--target", "claim8", "--n", "8", "--denom-cap", "1")
        assert (code, out, err) == (1, "", "error: denom_cap must be >= 2\n")

    def test_past_twenty_violations_the_rest_are_counted(self, capsys):
        code, out, _ = run(capsys, "sweep", "--target", "lemma4", "--n", "30", "--K1", "1/1000000")
        lines = out.splitlines()
        assert (code, kv(out)["violations"]) == (2, "22")
        assert sum(line.startswith("violation: ") for line in lines) == 20
        assert lines[3 + 20] == "... and 2 more"
        assert lines[3 + 21].startswith("min_ratio=")

    def test_violations_win_over_errors(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("target=lemma4\nn=30\nseed=7\natom_cap=4\nk1=1/100000000\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert kv(out)["violations"] != "0"
        assert int(kv(out)["errors"]) > 0

    def test_nonpositive_constant(self, capsys):
        code, out, err = run(capsys, "sweep", "--target", "lemma7", "--n", "5", "--K0", "0")
        assert code == 1
        assert out == ""
        assert "constants must be positive" in err

    @pytest.mark.parametrize(
        "argv,expected",
        SWEEP_DIGESTS,
        ids=["_".join(a.lstrip("-") for a in argv) for argv, _ in SWEEP_DIGESTS],
    )
    def test_output_digest(self, argv, expected, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        seed = () if argv[0] == "corollary2" else ("--seed", "5")
        code, out, _ = run(capsys, "sweep", "--target", *argv, *seed, "--csv", "rows.csv")
        data = f"exit={code}\n".encode() + out.encode() + (tmp_path / "rows.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected


# What each target reads among the 14 sweep settings, written out apart from
# sweep.TARGETS: 58 (target, setting) pairs.
_RV = {"n", "seed", "support_min", "support_max", "value_lo", "value_hi", "denom_cap", "atom_cap"}
EXPECTED_READS = {
    "fact1": {"n", "seed"},
    "fact8": {"n", "seed"},
    "lemma4": _RV | {"include_claim6", "k1"},
    "lemma5": _RV | {"include_claim6", "k0"},
    "lemma7": _RV | {"include_claim6", "k0"},
    "claim8": {"n", "seed", "denom_cap"},
    "claim9": _RV | {"include_claim6"},
    "theorem1": _RV | {"rv_count_max", "k2"},
    "corollary2": {"exhaustive_m", "k2"},
}
# Each sweep setting: a config value other than the default, and its flag (None: no flag).
OTHER_VALUE = {
    "n": ("6", ("--n", "6")),
    "seed": ("1", ("--seed", "1")),
    "support_min": ("2", ("--support-min", "2")),
    "support_max": ("3", ("--support-max", "3")),
    "value_lo": ("-1", ("--value-lo", "-1")),
    "value_hi": ("1", ("--value-hi", "1")),
    "denom_cap": ("7", ("--denom-cap", "7")),
    "k0": ("3", ("--K0", "3")),
    "k1": ("5", ("--K1", "5")),
    "k2": ("7", ("--K2", "7")),
    "include_claim6": ("true", ("--include-claim6",)),
    "exhaustive_m": ("3", ("--exhaustive-m", "3")),
    "rv_count_max": ("2", None),
    "atom_cap": ("1", None),
}
READ = [(t, s) for t in EXPECTED_READS for s in OTHER_VALUE if s in EXPECTED_READS[t]]
UNREAD = [(t, s) for t in EXPECTED_READS for s in OTHER_VALUE if s not in EXPECTED_READS[t]]


class TestReads:
    @staticmethod
    def _base(target):
        """A 5-instance sweep; corollary2 enumerates m=2 instead."""
        return {"n": "5"} if target != "corollary2" else {"exhaustive_m": "2"}

    def _sweep_digest(self, capsys, tmp_path, target, settings) -> str:
        config = tmp_path / "sweep.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in {"target": target, **settings}.items()))
        rows = tmp_path / "rows.csv"
        code, out, err = run(capsys, "sweep", "--config", str(config), "--csv", str(rows))
        assert code in (0, 2, 3), err
        return hashlib.sha256(f"exit={code}\n{out}".encode() + rows.read_bytes()).hexdigest()

    def test_table_size(self):
        assert len(READ) == 58 and len(UNREAD) == 9 * 14 - 58

    @pytest.mark.parametrize("target, setting", UNREAD, ids=[f"{t}-{s}" for t, s in UNREAD])
    def test_unread_setting_rejected(self, target, setting, tmp_path, capsys):
        value, flag = OTHER_VALUE[setting]
        base = self._base(target)
        config = tmp_path / "unread.cfg"
        config.write_text(f"target={target}\n{setting}={value}\n")
        argvs = [("sweep", "--config", str(config))]
        if flag is not None:
            base_flags = [a for k, v in base.items() for a in (f"--{k.replace('_', '-')}", v)]
            argvs.append(("sweep", "--target", target, *base_flags, *flag))
        for argv in argvs:
            assert run(capsys, *argv) == (1, "", f"error: {target} does not read {setting}\n")

    @pytest.mark.parametrize("target, setting", READ, ids=[f"{t}-{s}" for t, s in READ])
    def test_read_setting_changes_output(self, target, setting, tmp_path, capsys):
        base = self._base(target)
        changed = {**base, setting: OTHER_VALUE[setting][0]}
        assert self._sweep_digest(capsys, tmp_path, target, changed) != self._sweep_digest(
            capsys, tmp_path, target, base
        )


class TestProbe:
    def test_tribes(self, tribes2_files, capsys):
        table_path, partition_path = tribes2_files
        code, out, _ = run(
            capsys, "probe", table_path, "--partition-file", partition_path
        )
        assert code == 0
        assert "experimental" in out.splitlines()[0]
        assert kv(out)["dist"] == "0"
        assert kv(out)["g"] == "+---"

    def test_budget_error(self, tmp_path, capsys):
        run(capsys, "example", "tribes", "--m", "3", "--out-dir", str(tmp_path))
        code, _, err = run(
            capsys,
            "probe",
            str(tmp_path / "tribes_m3.table"),
            "--partition",
            "1,2,3|4,5,6",
            "--budget",
            "10",
        )
        assert code == 1
        assert "budget" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("probe", "{table}", "--partition", "1,2|3,4", "--budget", "abc"), "--budget"),
        (("example", "tribes", "--m", "abc", "--out-dir", "{dir}"), "--m"),
    ],
    ids=["probe-budget", "example-m"],
)
def test_integer_flags_read_as_every_other(argv, flag, tribes2_files, tmp_path, capsys):
    # both used argparse's int, which printed "invalid int value: 'abc'"
    paths = {"table": tribes2_files[0], "dir": str(tmp_path / "out")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: bad integer 'abc'\n")


def test_a_variable_repeated_inside_one_block_is_refused(tribes2_files, capsys):
    # "1,2,2|3,4" used to run as "1,2|3,4" and exit 0
    code, out, err = run(capsys, "analyze", tribes2_files[0], "--partition", "1,2,2|3,4")
    assert (code, out, err) == (1, "", "error: variable 2 appears twice in one block\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcript() -> list[tuple[str, list[str]]]:
    """(command, the lines shown under it) for each '$ ' line of the README's code blocks."""
    steps = []
    for block in README.read_text().split("```")[1::2]:
        shown = None
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                steps.append((line[2:], shown))
            elif shown is not None:
                shown.append(line)
    return steps


def test_readme_transcripts_replay(tmp_path, monkeypatch, capsys):
    # every '$ fknlab' line that shows output prints exactly that, in one directory
    monkeypatch.chdir(tmp_path)
    replayed = []
    for command, shown in readme_transcript():
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", command)
        if heredoc:
            Path(heredoc[1]).write_text("".join(line + "\n" for line in shown[: shown.index("EOF")]))
        elif shown:
            argv = shlex.split(command, comments=True)
            assert argv[0] == "fknlab", command
            code, out, err = run(capsys, *argv[1:])
            assert (code, err, out.splitlines()) == (0, "", shown), command
            replayed.append(tuple(argv[1:3]))
    assert replayed == [
        ("example", "claim6"),
        ("example", "tribes"),
        ("check", "lemma5"),
        ("analyze", "tribes_m2.table"),
        ("decompose", "y.rv"),
        ("probe", "tribes_m2.table"),
    ]


@pytest.mark.parametrize("command", ["analyze", "probe"])
@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_partition_flags_exactly_one(tribes2_files, capsys, command, both):
    # a file next to --partition used to be ignored without a word
    table_path, partition_path = tribes2_files
    flags = ["--partition", "1,2|3,4", "--partition-file", partition_path] if both else []
    code, out, err = run(capsys, command, table_path, *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--partition" in err


class TestChoices:
    @staticmethod
    def _choices(command: str, dest: str):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub = subparsers.choices[command]
        return tuple(next(a for a in sub._actions if a.dest == dest).choices)

    def test_sweep_targets_come_from_registry(self):
        assert self._choices("sweep", "target") == tuple(sweep.TARGETS)

    def test_check_targets_are_the_entries_with_a_check(self):
        checked = tuple(name for name, target in sweep.TARGETS.items() if target.check)
        assert self._choices("check", "inequality") == checked
        assert checked == ("lemma4", "lemma5", "lemma7", "claim8", "claim9", "theorem1")


class TestParser:
    def test_second_main_builds_no_parser(self, monkeypatch, capsys):
        run(capsys, "sweep", "--target", "lemma4", "--n", "2")
        built = []
        init = cli_module._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "__init__", counted)
        assert run(capsys, "sweep", "--target", "lemma4", "--n", "2")[0] == 0
        assert built == []


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "/nonexistent/path.rv")
        assert code == 1

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_1_quietly(self, unbuffered):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        argv = [sys.executable, "-m", "fknlab.cli", "sweep", "--target", "lemma4", "--n", "5"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader goes away before the first line, as `| head -0` would
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
