import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from regcrystals import crystals as cr
from regcrystals import ladders as ld
from regcrystals import separation as sp
from regcrystals import verify as vf
from regcrystals.cli import (
    MAX_BEADS,
    MAX_CHAIN_BOUND,
    MAX_GRAPH_SIZE,
    MAX_LADDER_CLASS_BOUND,
    MAX_VERIFY_SIZE,
    build_parser,
    main,
)
from regcrystals.partitions import MAX_PARSE_SIZE, Partition, parse_partition

GOLDEN_DOT = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConj:
    def test_text(self, capsys):
        code, out, err = run(capsys, "conj", "6,4,2,1^2")
        assert code == 0 and out == "5,3,2,2,1,1\n" and err == ""

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "conj", "--json", "6,4,2,1^2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"input": "6,4,2,1,1", "conjugate": "5,3,2,2,1,1"}


def test_module_entry_point_runs_the_cli(capsys):
    # python -m regcrystals, run from any directory with the package on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(cr.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "regcrystals", "conj", "3,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, "conj", "3,1")
    assert done.returncode == 0 and done.stdout == "2,1,1\n"


class TestAbacus:
    def test_show(self, capsys):
        code, out, _ = run(capsys, "abacus", "show", "--e", "5", "--beads", "7", "6,4,2,1,1")
        assert code == 0
        assert out.splitlines() == [
            "0 1 2 3 4",
            "b b . b b",
            ". b . . b",
            ". . b . .",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "abacus", "show", "--e", "5", "--beads", "7", "--json", "6,4,2,1,1")
        assert json.loads(out) == {"e": 5, "n": 7, "occupied": [0, 1, 3, 4, 6, 9, 12]}


@pytest.mark.parametrize(
    "argv",
    [
        ["abacus", "show", "--e", "0", "2,1"],
        ["abacus", "show", "--e", "-2", "2,1"],
        ["split", "--e", "0", "--I", "0", "2,1"],
        ["paget", "--e", "0", "2,1"],
        ["paget", "--e", "-3", "2,1"],
    ],
    ids=" ".join,
)
def test_runner_count_below_one_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: an abacus needs at least one runner\n"


class TestRegRestrict:
    def test_reg_first_step(self, capsys):
        code, out, _ = run(capsys, "reg", "--e", "5", "--y", "3", "--trace", "9,3^3,2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "mu = 9,3,3,3,2"
        assert lines[1] == "step 1: 9,6,5"
        assert lines[-1] == "9,6,5"

    def test_reg_plain(self, capsys):
        code, out, _ = run(capsys, "reg", "--e", "3", "--y", "2", "4,1,1")
        assert code == 0 and out == "5,1\n"

    def test_restrict(self, capsys):
        code, out, _ = run(capsys, "restrict", "--e", "3", "--y", "2", "5,1")
        assert code == 0 and out == "3,2,1\n"

    def test_restrict_trace_prints_each_step(self, capsys):
        code, out, _ = run(capsys, "restrict", "--e", "3", "--y", "2", "--trace", "5,1")
        assert code == 0
        assert out.splitlines() == ["mu = 5,1", "step 1: 4,1,1", "step 2: 3,2,1", "3,2,1"]

    def test_fractional_slope(self, capsys):
        code, out, _ = run(capsys, "reg", "--e", "3", "--y", "4/3", "--json", "4,1,1,1,1,1")
        payload = json.loads(out)
        assert (payload["E"], payload["Y"]) == (9, 4)
        assert payload["result"] == "5,1,1,1,1"

    def test_bad_slope_is_domain_error(self, capsys):
        code, out, err = run(capsys, "reg", "--e", "3", "--y", "5", "2,1")
        assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["reg", "--e", "3", "--y", "3/0", "2,1"], "--y: bad rational '3/0'"),
        (["restrict", "--e", "3", "--y", "1/0", "2,1"], "--y: bad rational '1/0'"),
        (["crystal", "--e", "3", "--slope", "3/0+"], "--slope: bad rational '3/0'"),
    ],
    ids=["reg", "restrict", "crystal"],
)
def test_zero_denominator_is_a_usage_error(capsys, argv, reason):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {reason}: zero denominator\n")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["reg", "--e", "3", "--y", "1e100000000", "1"], "--y: bad rational '1e100000000'"),
        (["reg", "--e", "3", "--y", "1e10000000", "1"], "--y: bad rational '1e10000000'"),
        (["restrict", "--e", "3", "--y", "2.5E+3", "1"], "--y: bad rational '2.5E+3'"),
        (["crystal", "--e", "3", "--slope", "1e100000000+"], "--slope: bad rational '1e100000000'"),
    ],
    ids=["reg", "reg-shorter", "restrict", "crystal"],
)
def test_exponent_notation_is_a_usage_error_before_any_expansion(capsys, argv, reason):
    # Fraction would expand the exponent in full: 1e10000000 took 9 s
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {reason}: exponent notation is not accepted\n")


def test_signed_and_decimal_rationals_stay_accepted(capsys):
    for y in ("1.5", "+1.5", "3/2", " 1.50 "):
        assert run(capsys, "reg", "--e", "3", "--y", y, "--json", "2,1") == run(
            capsys, "reg", "--e", "3", "--y", "3/2", "--json", "2,1")
    code, out, err = run(capsys, "reg", "--e", "3", "--y", "-1.5", "2,1")
    assert code == 1 and out == "" and "error" in err


class TestLadderClass:
    def test_class_listing(self, capsys):
        code, out, _ = run(capsys, "ladder-class", "--e", "3", "--y", "2", "5,1")
        assert code == 0
        assert out.splitlines() == ["5,1", "4,1,1", "3,3", "3,2,1"]

    def test_negative_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ladder-class", "--e", "3", "--y", "2", "--bound", "-5", "3,1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "argument --bound: size -5 is negative" in captured.err

    def test_bound_over_the_limit_exits_1(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("partitions were enumerated past the bound limit")

        monkeypatch.setattr(ld, "ladder_class", refuse)
        code, out, err = run(capsys, "ladder-class", "--e", "3", "--y", "2", "--bound", "41", "5,1")
        assert (code, out) == (1, "")
        assert err == "error: oracle bound 41 exceeds the limit 40\n"

    def test_bound_at_the_limit_is_accepted(self, capsys):
        assert MAX_LADDER_CLASS_BOUND == 40
        code, out, err = run(capsys, "ladder-class", "--e", "3", "--y", "2", "--bound", "40", "5,1")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["5,1", "4,1,1", "3,3", "3,2,1"]


class TestCrystal:
    def test_dot_to_stdout(self, capsys):
        code, out, _ = run(capsys, "crystal", "--e", "3", "--arm", "0,1", "--max-size", "3")
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert '"-" -> "1" [label="0"];' in out

    def test_dot_to_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "crystal", "--e", "3", "--slope", "1-", "--max-size", "3", "--dot", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph crystal {")
        assert "wrote" in out

    def test_unwritable_dot_file_is_a_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "graph.dot"
        code, out, err = run(capsys, "crystal", "--e", "3", "--slope", "1-", "--max-size", "3", "--dot", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(target) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, golden", [
        ("--e 3 --slope 3/2+ --max-size 9", "crystal_e3_slope3_2plus_max9.dot"),
        ("--e 4 --arm 2,5,7", "crystal_e4_arm2_5_7.dot"),
        ("--e 2 --arm 1,2", "crystal_e2_arm1_2.dot"),
        ("--e 5 --slope 2- --max-size 7", "crystal_e5_slope2minus_max7.dot"),
    ])
    def test_dot_output_is_pinned(self, capsys, argv, golden):
        # the DOT text the breadth-first search with final sorts printed
        code, out, err = run(capsys, "crystal", *argv.split())
        assert (code, err) == (0, "")
        assert out == (GOLDEN_DOT / golden).read_text()

    @pytest.mark.parametrize("source", [["--arm", "2"], ["--slope", "2"]], ids=["arm", "slope"])
    def test_size_bound_0_prints_the_empty_partition(self, capsys, source):
        code, out, err = run(capsys, "crystal", "--e", "3", *source, "--max-size", "0")
        assert (code, out, err) == (0, 'digraph crystal {\n  "-";\n}\n', "")

    @pytest.mark.parametrize("argv, size", [
        (["--e", "20", "--slope", "1"], 60),
        (["--e", "100000000", "--arm", "0"], 10**8),
        (["--e", "3", "--slope", "1", "--max-size", "1000000000"], 10**9),
    ], ids=["default-3e", "default-prefix-bound", "max-size"])
    def test_size_bound_over_the_limit_exits_1(self, capsys, monkeypatch, argv, size):
        def refuse(*args, **kwargs):
            pytest.fail("a prefix or graph was built past the size limit")

        monkeypatch.setattr(cr.ArmPrefix, "from_slope", refuse)
        monkeypatch.setattr(cr, "build_graph", refuse)
        code, out, err = run(capsys, "crystal", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: size bound {size} exceeds the limit {MAX_GRAPH_SIZE}\n"

    def test_size_bound_at_the_limit_is_accepted(self, capsys):
        code, out, err = run(capsys, "crystal", "--e", "2", "--slope", "1", "--max-size", str(MAX_GRAPH_SIZE))
        assert (code, err) == (0, "") and out.startswith("digraph crystal {")

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "crystal", "--e", "3")
        assert code == 1 and "exactly one" in err

    @pytest.mark.parametrize("e", ["0", "1", "-3"])
    @pytest.mark.parametrize("source", [["--arm", "0"], ["--slope", "1-"]], ids=["arm", "slope"])
    def test_modulus_below_2_is_a_domain_error(self, capsys, e, source):
        code, out, err = run(capsys, "crystal", "--e", e, *source)
        assert (code, out, err) == (1, "", "error: e must be at least 2\n")

    @pytest.mark.parametrize("source", [["--arm", "0,1"], ["--slope", "2"]], ids=["arm", "slope"])
    def test_negative_max_size_exits_2(self, capsys, source):
        with pytest.raises(SystemExit) as info:
            main(["crystal", "--e", "3", *source, "--max-size", "-1"])
        assert info.value.code == 2
        assert "--max-size: size -1 is negative" in capsys.readouterr().err


    def test_operator_leaving_the_regular_set_exits_1(self, capsys, monkeypatch):
        # every addition to the empty partition is moved as the addition of
        # row 3 to 1,1, which gives 1,1,1, with a 3-hook of arm A_1 = 0; the
        # first edge the search takes is from it
        real = cr._move

        def faulty(parts, prefix, rows, grow):
            if parts:
                return real(parts, prefix, rows, grow)
            parts[:] = [1, 1]
            return real(parts, prefix, [3], grow)

        monkeypatch.setattr(cr, "_move", faulty)
        code, out, err = run(capsys, "crystal", "--e", "3", "--arm", "0,1")
        assert code == 1 and out == ""
        assert err == "error: operator left the A-regular set: - -0-> 1,1,1\n"


class TestChain:
    def test_figure_chain(self, capsys):
        code, out, _ = run(
            capsys, "chain", "--e", "4", "--from", "2,4,6,8", "--to", "1,2,4,5", "4,3^2,2,1^4"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "chain: (4,2) (16,7) (12,5) (8,3)"
        assert lines[1] == "start: 4,3,3,2,1,1,1,1"
        assert lines[2] == "(4,2) -> 5,4,2,1,1,1,1,1"
        assert lines[-1] == "(8,3) -> 6,4,2,1,1,1,1"


    def test_inverse_chain_prints_each_restrictisation(self, capsys):
        argv = ("chain", "--e", "4", "--from", "1,2,4,5", "--to", "2,4,6,8")
        code, out, _ = run(capsys, *argv, "6,4,2,1^4")
        assert code == 0
        assert out.splitlines()[1:] == [
            "applied as restrictisations in reverse order",
            "start: 6,4,2,1,1,1,1",
            "(8,3) -> 6,4,2,1,1,1,1",
            "(12,5) -> 5,4,2,1,1,1,1,1",
            "(16,7) -> 5,4,2,1,1,1,1,1",
            "(4,2) -> 4,3,3,2,1,1,1,1",
        ]
        _, out, _ = run(capsys, *argv, "--json", "6,4,2,1^4")
        assert json.loads(out)["images"][-1] == "4,3,3,2,1,1,1,1"

    @pytest.mark.parametrize(
        "e, dst, la",
        [("3", "0,1,2", "3"), ("3", "2,4,6", "3"), ("4", "1,2,4", "4,3")],
        ids=["forward", "identity", "figure-prefixes"],
    )
    def test_partition_outside_the_source_crystal_fails(self, capsys, e, dst, la):
        code, out, err = run(capsys, "chain", "--e", e, "--from", "2,4,6", "--to", dst, la)
        assert (code, out) == (1, "")
        assert err == f"error: {la} is not regular for the chain source\n"


    @staticmethod
    def slope_prefixes(e, n):
        """The prefixes of the longest chain: slope e - 1 '+' down to 1 '-'."""
        return [",".join(map(str, cr.ArmPrefix.from_slope(e, y, n, v).values)) for y, v in ((e - 1, "+"), (1, "-"))]

    @pytest.mark.parametrize("e, n", [(3, 101), (301, 1)])
    def test_prefix_bound_over_the_limit_exits_1(self, capsys, monkeypatch, e, n):
        def refuse(*args, **kwargs):
            pytest.fail("a chain was built past the prefix bound limit")

        monkeypatch.setattr(cr, "iso_chain", refuse)
        src, dst = self.slope_prefixes(e, n)
        code, out, err = run(capsys, "chain", "--e", str(e), "--from", src, "--to", dst)
        assert (code, out) == (1, "")
        assert err == f"error: prefix bound {e * n} exceeds the limit {MAX_CHAIN_BOUND}\n"

    def test_prefix_bound_at_the_limit_is_accepted(self, capsys):
        # e = 4 with n = 75 gives the longest step list of any e at the limit
        assert MAX_CHAIN_BOUND == 4 * 75 == 300
        src, dst = self.slope_prefixes(4, 75)
        code, out, err = run(capsys, "chain", "--e", "4", "--from", src, "--to", dst, "2,1")
        assert (code, err) == (0, "") and out.startswith("chain: ")
        assert out.splitlines()[0].count("(") == 3473


def late_failing_arm_list():
    """21,000 values at e = 3, floor(y*t) with A_16500 one too low, so the
    arm-sequence pair scan first fails at A_16500 - A_3001 - A_13499, after
    about 58 million pairs; about 116,000 bytes as one argument."""
    y = 1 + Fraction(273, 3001) + Fraction(3, 10**8)
    values = [y.numerator * t // y.denominator for t in range(1, 21_001)]
    values[16_499] -= 1
    return ",".join(map(str, values))


@pytest.mark.parametrize("argv, err", [
    (["crystal", "--e", "3", "--arm"], f"error: arm prefix length 21000 exceeds the limit {MAX_GRAPH_SIZE}\n"),
    (["chain", "--e", "3", "--to", "1", "--from"], f"error: prefix bound 63000 exceeds the limit {MAX_CHAIN_BOUND}\n"),
], ids=["crystal", "chain"])
def test_long_arm_list_is_refused_by_its_length_before_the_pair_scan(capsys, argv, err):
    arms = late_failing_arm_list()
    start = time.perf_counter()
    code, out, got = run(capsys, *argv, arms)
    assert time.perf_counter() - start < 1.0
    assert (code, out, got) == (1, "", err)


@pytest.mark.parametrize("argv, err", [
    (["split", "--e", "4", "--I", "0,x", "3,1"],
     "argument --I: bad residue list '0,x': invalid literal for int() with base 10: 'x'"),
    (["chain", "--e", "3", "--from", "1,,2", "--to", "1,2,3"],
     "argument --from: bad arm prefix '1,,2': invalid literal for int() with base 10: ''"),
], ids=["residues", "arms"])
def test_bad_integer_list_is_a_usage_error_naming_the_list(capsys, argv, err):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {err}\n")


class TestSinglePath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("reg", "--e", "4", "--y", "2", "3,3,3,3,1"),
            ("reg", "--e", "3", "--y", "3/2", "2,2,2,1,1,1"),
            ("restrict", "--e", "5", "--y", "3", "12,3"),
            ("restrict", "--e", "3", "--y", "4/3", "9,1"),
            ("mull", "--e", "5", "9,7,4,3,1"),
            ("mull", "--e", "3", "-"),
        ],
    )
    def test_trace_ends_with_the_plain_output(self, capsys, argv):
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        _, traced, _ = run(capsys, *argv, "--trace")
        assert traced.splitlines()[-1] + "\n" == plain
        _, payload, _ = run(capsys, *argv, "--json")
        _, traced_payload, _ = run(capsys, *argv, "--json", "--trace")
        traced_payload = json.loads(traced_payload)
        steps = traced_payload.pop("steps")
        assert json.loads(payload) == traced_payload
        # one JSON step per text line between the start line and the result
        assert len(steps) == len(traced.splitlines()) - 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("reg", "--e", "3", "--y", "2", "4,3,2,1"), lambda k, step: f"step {k}: {step}"),
            (("restrict", "--e", "4", "--y", "5/2", "12,9,9,5,3,3,1"), lambda k, step: f"step {k}: {step}"),
            (("mull", "--e", "3", "6,2,1"), lambda k, step: f"y = {step['y']} -> {step['partition']}"),
        ],
        ids=["reg", "restrict", "mull"],
    )
    def test_json_trace_holds_the_text_trace_steps(self, capsys, argv, line):
        _, traced, _ = run(capsys, *argv, "--trace")
        code, out, _ = run(capsys, *argv, "--json", "--trace")
        steps = json.loads(out)["steps"]
        assert code == 0 and len(steps) >= 1
        assert [line(k, step) for k, step in enumerate(steps, start=1)] == traced.splitlines()[1:-1]
        assert json.loads(out)["result"] == traced.splitlines()[-1]

    @pytest.mark.parametrize(
        "src, dst, la",
        [("2,4,6,8", "1,2,4,5", "4,3^2,2,1^4"), ("1,2,4,5", "2,4,6,8", "6,4,2,1^4")],
        ids=["forward", "inverse"],
    )
    def test_chain_ends_at_apply_chain(self, capsys, src, dst, la):
        def prefix(text):
            return cr.ArmPrefix(4, map(int, text.split(",")))

        chain = cr.iso_chain(prefix(src), prefix(dst))
        image = str(cr.apply_chain(parse_partition(la), chain))
        argv = ("chain", "--e", "4", "--from", src, "--to", dst, la)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[-1].endswith(f" -> {image}")
        _, out, _ = run(capsys, *argv, "--json")
        images = json.loads(out)["images"]
        assert len(images) == len(chain.steps) and images[-1] == image


# stdout of each command, pinned when the Mullineux loop and regularise
# moved onto one shared step loop; the loop must not change a step
GOLDEN = {
    "mull --e 3 --trace 6,2,1": """\
mu = 3,2,1,1,1,1
y = 2 -> 4,1,1,1,1,1
y = 4/3 -> 5,1,1,1,1
y = 1 -> 5,2,2
5,2,2
""",
    "mull --e 4 --trace 12,9,9,5,3,3,1": """\
mu = 7,6,6,4,4,3,3,3,3,1,1,1
y = 2 -> 11,9,6,4,4,2,1,1,1,1,1,1
y = 4/3 -> 11,9,6,5,4,2,1,1,1,1,1
y = 1 -> 11,9,6,5,4,2,2,2,1
11,9,6,5,4,2,2,2,1
""",
    "mull --e 5 --trace 20,15,11,11,7,3,2,1,1": """\
mu = 9,7,6,5,5,5,5,4,4,4,4,2,2,2,2,1,1,1,1,1
y = 2 -> 10,10,8,7,5,4,3,3,3,3,2,2,2,2,2,1,1,1,1,1
y = 8/5 -> 10,10,9,7,5,4,3,3,3,3,2,2,2,2,2,1,1,1,1
y = 1 -> 10,10,9,7,5,4,4,3,3,3,3,2,2,2,1,1,1,1
10,10,9,7,5,4,4,3,3,3,3,2,2,2,1,1,1,1
""",
    "mull --e 3 --json 6,2,1": '{"e": 3, "input": "6,2,1", "result": "5,2,2"}\n',
    "mull --e 4 --trace --json 12,9,9,5,3,3,1":
        '{"e": 4, "input": "12,9,9,5,3,3,1", "result": "11,9,6,5,4,2,2,2,1", "steps": ['
        '{"partition": "11,9,6,4,4,2,1,1,1,1,1,1", "y": "2"}, '
        '{"partition": "11,9,6,5,4,2,1,1,1,1,1", "y": "4/3"}, '
        '{"partition": "11,9,6,5,4,2,2,2,1", "y": "1"}]}\n',
    "reg --e 3 --y 2 --json --trace 4,3,2,1":
        '{"E": 3, "Y": 2, "e": 3, "input": "4,3,2,1", "result": "7,3", '
        '"steps": ["5,2,2,1", "6,2,1,1", "7,2,1", "7,3"], "y": "2"}\n',
    "restrict --e 3 --y 2 --json --trace 9,3^3,2":
        '{"E": 3, "Y": 2, "e": 3, "input": "9,3,3,3,2", "result": "5,5,5,3,2", '
        '"steps": ["5,5,5,3,2"], "y": "2"}\n',
    "reg --e 3 --y 2 --trace 4,3,2,1": """\
mu = 4,3,2,1
step 1: 5,2,2,1
step 2: 6,2,1,1
step 3: 7,2,1
step 4: 7,3
7,3
""",
    "reg --e 3 --y 3/2 --trace 9,8,5,5,4,3,2,2,1,1": """\
mu = 9,8,5,5,4,3,2,2,1,1
step 1: 10,8,5,5,4,3,2,2,1
step 2: 10,8,6,5,4,2,2,2,1
step 3: 10,8,7,5,4,2,2,2
step 4: 10,8,7,5,5,2,2,1
10,8,7,5,5,2,2,1
""",
    "reg --e 4 --y 7/3 --trace 11,8,6,5,4,2,2,1,1": """\
mu = 11,8,6,5,4,2,2,1,1
step 1: 11,9,6,5,4,2,1,1,1
11,9,6,5,4,2,1,1,1
""",
    "reg --e 3 --y 3/2 --json 9,8,5,5,4,3,2,2,1,1":
        '{"E": 6, "Y": 3, "e": 3, "input": "9,8,5,5,4,3,2,2,1,1", '
        '"result": "10,8,7,5,5,2,2,1", "y": "3/2"}\n',
    "restrict --e 3 --y 2 --trace 9,3^3,2": """\
mu = 9,3,3,3,2
step 1: 5,5,5,3,2
5,5,5,3,2
""",
    "restrict --e 3 --y 3/2 --trace 9,8,5,5,4,3,2,2,1,1": """\
mu = 9,8,5,5,4,3,2,2,1,1
step 1: 8,8,5,5,4,3,3,2,1,1
step 2: 8,7,5,5,5,3,3,2,1,1
8,7,5,5,5,3,3,2,1,1
""",
    "restrict --e 4 --y 5/2 --trace 12,9,9,5,3,3,1": """\
mu = 12,9,9,5,3,3,1
step 1: 11,9,9,5,3,3,2
step 2: 11,8,8,5,4,4,2
step 3: 10,8,8,6,4,4,2
10,8,8,6,4,4,2
""",
    "restrict --e 4 --y 7/3 --trace 11,8,6,5,4,2,2,1,1": """\
mu = 11,8,6,5,4,2,2,1,1
step 1: 9,8,6,5,4,4,2,1,1
9,8,6,5,4,4,2,1,1
""",
    "chain --e 4 --from 2,4,6,8 --to 1,2,4,5 4,3^2,2,1^4": """\
chain: (4,2) (16,7) (12,5) (8,3)
start: 4,3,3,2,1,1,1,1
(4,2) -> 5,4,2,1,1,1,1,1
(16,7) -> 5,4,2,1,1,1,1,1
(12,5) -> 6,4,2,1,1,1,1
(8,3) -> 6,4,2,1,1,1,1
""",
    "chain --e 4 --from 1,2,4,5 --to 2,4,6,8 6,4,2,1^4": """\
chain: (4,2) (16,7) (12,5) (8,3)
applied as restrictisations in reverse order
start: 6,4,2,1,1,1,1
(8,3) -> 6,4,2,1,1,1,1
(12,5) -> 5,4,2,1,1,1,1,1
(16,7) -> 5,4,2,1,1,1,1,1
(4,2) -> 4,3,3,2,1,1,1,1
""",
    "chain --e 4 --json --from 2,4,6,8 --to 1,2,4,5 4,3^2,2,1^4":
        '{"e": 4, "images": ["5,4,2,1,1,1,1,1", "5,4,2,1,1,1,1,1", "6,4,2,1,1,1,1", '
        '"6,4,2,1,1,1,1"], "inverse": false, "steps": [[4, 2], [16, 7], [12, 5], [8, 3]]}\n',
    # a long chain (33 steps, 4 moves) from slope 2 '+' to slope 1 '-' and back
    "chain --e 3 --from 2,4,6,8,10,12,14,16,18,20 --to 0,1,2,3,4,5,6,7,8,9 5,4,3,2,1^4": (
        'chain: (3,2) (30,19) (27,17) (24,15) (21,13) (18,11) (15,9) (27,16) (12,7) (21,12) (30,17) (9,5)'
        ' (24,13) (15,8) (21,11) (27,14) (6,3) (27,13) (21,10) (15,7) (24,11) (9,4) (30,13) (21,9) (12,5)'
        ' (27,11) (15,6) (18,7) (21,8) (24,9) (27,10) (30,11) (3,1)\n'
        """\
start: 5,4,3,2,1,1,1,1
(3,2) -> 8,4,1,1,1,1,1,1
(30,19) -> 8,4,1,1,1,1,1,1
(27,17) -> 8,4,1,1,1,1,1,1
(24,15) -> 8,4,1,1,1,1,1,1
(21,13) -> 8,4,1,1,1,1,1,1
(18,11) -> 8,4,1,1,1,1,1,1
(15,9) -> 8,4,1,1,1,1,1,1
(27,16) -> 8,4,1,1,1,1,1,1
(12,7) -> 8,4,1,1,1,1,1,1
(21,12) -> 8,4,1,1,1,1,1,1
(30,17) -> 8,4,1,1,1,1,1,1
(9,5) -> 8,4,1,1,1,1,1,1
(24,13) -> 8,4,1,1,1,1,1,1
(15,8) -> 9,4,1,1,1,1,1
(21,11) -> 9,4,1,1,1,1,1
(27,14) -> 9,4,1,1,1,1,1
(6,3) -> 9,4,1,1,1,1,1
(27,13) -> 9,4,1,1,1,1,1
(21,10) -> 9,4,1,1,1,1,1
(15,7) -> 9,4,1,1,1,1,1
(24,11) -> 9,4,1,1,1,1,1
(9,4) -> 9,5,1,1,1,1
(30,13) -> 9,5,1,1,1,1
(21,9) -> 9,5,1,1,1,1
(12,5) -> 9,5,1,1,1,1
(27,11) -> 9,5,1,1,1,1
(15,6) -> 9,5,1,1,1,1
(18,7) -> 9,5,1,1,1,1
(21,8) -> 9,5,1,1,1,1
(24,9) -> 9,5,1,1,1,1
(27,10) -> 9,5,1,1,1,1
(30,11) -> 9,5,1,1,1,1
(3,1) -> 9,5,2,2
"""
    ),
    "chain --e 3 --from 0,1,2,3,4,5,6,7,8,9 --to 2,4,6,8,10,12,14,16,18,20 9,5,2^2": (
        'chain: (3,2) (30,19) (27,17) (24,15) (21,13) (18,11) (15,9) (27,16) (12,7) (21,12) (30,17) (9,5)'
        ' (24,13) (15,8) (21,11) (27,14) (6,3) (27,13) (21,10) (15,7) (24,11) (9,4) (30,13) (21,9) (12,5)'
        ' (27,11) (15,6) (18,7) (21,8) (24,9) (27,10) (30,11) (3,1)\n'
        """\
applied as restrictisations in reverse order
start: 9,5,2,2
(3,1) -> 9,5,1,1,1,1
(30,11) -> 9,5,1,1,1,1
(27,10) -> 9,5,1,1,1,1
(24,9) -> 9,5,1,1,1,1
(21,8) -> 9,5,1,1,1,1
(18,7) -> 9,5,1,1,1,1
(15,6) -> 9,5,1,1,1,1
(27,11) -> 9,5,1,1,1,1
(12,5) -> 9,5,1,1,1,1
(21,9) -> 9,5,1,1,1,1
(30,13) -> 9,5,1,1,1,1
(9,4) -> 9,4,1,1,1,1,1
(24,11) -> 9,4,1,1,1,1,1
(15,7) -> 9,4,1,1,1,1,1
(21,10) -> 9,4,1,1,1,1,1
(27,13) -> 9,4,1,1,1,1,1
(6,3) -> 9,4,1,1,1,1,1
(27,14) -> 9,4,1,1,1,1,1
(21,11) -> 9,4,1,1,1,1,1
(15,8) -> 8,4,1,1,1,1,1,1
(24,13) -> 8,4,1,1,1,1,1,1
(9,5) -> 8,4,1,1,1,1,1,1
(30,17) -> 8,4,1,1,1,1,1,1
(21,12) -> 8,4,1,1,1,1,1,1
(12,7) -> 8,4,1,1,1,1,1,1
(27,16) -> 8,4,1,1,1,1,1,1
(15,9) -> 8,4,1,1,1,1,1,1
(18,11) -> 8,4,1,1,1,1,1,1
(21,13) -> 8,4,1,1,1,1,1,1
(24,15) -> 8,4,1,1,1,1,1,1
(27,17) -> 8,4,1,1,1,1,1,1
(30,19) -> 8,4,1,1,1,1,1,1
(3,2) -> 5,4,3,2,1,1,1,1
"""
    ),
    "chain --e 3 --json --from 2,4,6,8,10,12,14,16,18,20 --to 0,1,2,3,4,5,6,7,8,9 5,4,3,2,1^4":
        '{"e": 3, "images": ["8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", '
        '"8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", '
        '"8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "9,4,1,1,1,1,1", '
        '"9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", '
        '"9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", '
        '"9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", '
        '"9,5,1,1,1,1", "9,5,2,2"], "inverse": false, "steps": [[3, 2], [30, 19], [27, 17], [24, 15], '
        '[21, 13], [18, 11], [15, 9], [27, 16], [12, 7], [21, 12], [30, 17], [9, 5], [24, 13], [15, 8], '
        '[21, 11], [27, 14], [6, 3], [27, 13], [21, 10], [15, 7], [24, 11], [9, 4], [30, 13], [21, 9], '
        '[12, 5], [27, 11], [15, 6], [18, 7], [21, 8], [24, 9], [27, 10], [30, 11], [3, 1]]}\n',
    "chain --e 3 --json --from 0,1,2,3,4,5,6,7,8,9 --to 2,4,6,8,10,12,14,16,18,20 9,5,2^2":
        '{"e": 3, "images": ["9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", '
        '"9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", "9,5,1,1,1,1", '
        '"9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", '
        '"9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "9,4,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", '
        '"8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", '
        '"8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", "8,4,1,1,1,1,1,1", '
        '"8,4,1,1,1,1,1,1", "5,4,3,2,1,1,1,1"], "inverse": true, "steps": [[3, 2], [30, 19], [27, 17], '
        '[24, 15], [21, 13], [18, 11], [15, 9], [27, 16], [12, 7], [21, 12], [30, 17], [9, 5], [24, 13], '
        '[15, 8], [21, 11], [27, 14], [6, 3], [27, 13], [21, 10], [15, 7], [24, 11], [9, 4], [30, 13], '
        '[21, 9], [12, 5], [27, 11], [15, 6], [18, 7], [21, 8], [24, 9], [27, 10], [30, 11], [3, 1]]}\n',
    "chain --e 3 --from 2,4,6 --to 0,1,2 9,9,9": (1, '', 'error: |la| = 27 exceeds the crystal bound 9\n'),
    # equal prefixes: a chain of no steps
    "chain --e 3 --from 2,4,6 --to 2,4,6 2,1": "chain: (none)\nstart: 2,1\n",
    "chain --e 3 --json --from 2,4,6 --to 2,4,6 2,1":
        '{"e": 3, "images": [], "inverse": false, "steps": []}\n',
    # split and paget read their runners through SplitContext and the bead sets
    "split --e 5 --I 1,4 --beads 15 9,7,3,3,2,1": """\
lambda_I = 2
lambda_Ibar = 4,3,1
u = 4
separated = no
""",
    "split --e 5 --I 1,4 --beads 15 --json 9,7,3,3,2,1":
        '{"lambda_I": "2", "lambda_Ibar": "4,3,1", "separated": false, "u": 4}\n',
    # separation read off the places of I: a separated display, and one
    # with every bead on I (u = n, no complement bead)
    "split --e 5 --I 1,4 --beads 15 15,11,9,7^3,6,4^3,2,1": """\
lambda_I = 2,1,1
lambda_Ibar = 7,7,4
u = 10
separated = yes
""",
    "split --e 5 --I 1,4 --beads 15 --json 15,11,9,7^3,6,4^3,2,1":
        '{"lambda_I": "2,1,1", "lambda_Ibar": "7,7,4", "separated": true, "u": 10}\n',
    "split --e 3 --I 0,2 --beads 6 6,4,3,1,1": """\
lambda_I = 2,1,1
lambda_Ibar = -
u = 6
separated = yes
""",
    "split --e 3 --I 0,2 --beads 6 --json 6,4,3,1,1":
        '{"lambda_I": "2,1,1", "lambda_Ibar": "-", "separated": true, "u": 6}\n',
    "paget --e 3 6,4,2,1,1": """\
sigma = 1,0,2
quotient = [0] - [1] - [2] -
mu = 6,4,2,1,1
mu quotient separated = yes
mullineux(conjugate) = 6,4,2,1,1
match = yes
""",
    "paget --e 3 --json 6,4,2,1,1":
        '{"match": true, "mu": "6,4,2,1,1", "mu_separated": true, "mullineux": "6,4,2,1,1", '
        '"quotient": ["-", "-", "-"], "sigma": [1, 0, 2]}\n',
    # abacus show reads the bead set alone: two-digit runner headers, and no beads
    "abacus show --e 12 --beads 14 6,4,2,1,1": """\
 0  1  2  3  4  5  6  7  8  9 10 11
 b  b  b  b  b  b  b  b  b  .  b  b
 .  b  .  .  b  .  .  b  .  .  .  .
""",
    "abacus show --e 12 --beads 14 --json 6,4,2,1,1":
        '{"e": 12, "n": 14, "occupied": [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 19]}\n',
    "abacus show --e 3 --beads 0 -": "0 1 2\n. . .\n",
    "abacus show --e 3 --beads 0 --json -": '{"e": 3, "n": 0, "occupied": []}\n',
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(capsys, command):
    expected = GOLDEN[command]  # stdout of a command that exits 0, else (code, stdout, stderr)
    assert run(capsys, *command.split()) == (expected if isinstance(expected, tuple) else (0, expected, ""))


class TestMull:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "mull", "--e", "3", "6,2,1")
        assert code == 0 and out == "5,2,2\n"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "mull", "--e", "3", "--trace", "6,2,1")
        assert code == 0
        assert out.splitlines() == [
            "mu = 3,2,1,1,1,1",
            "y = 2 -> 4,1,1,1,1,1",
            "y = 4/3 -> 5,1,1,1,1",
            "y = 1 -> 5,2,2",
            "5,2,2",
        ]

    def test_singular_input_fails(self, capsys):
        code, _, err = run(capsys, "mull", "--e", "3", "2,2,2")
        assert code == 1 and "not 3-regular" in err

    def test_bad_partition_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mull", "--e", "3", "2,xyz"])
        assert info.value.code == 2

    def test_oversized_partition_exits_2_with_message(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mull", "--e", "3", f"1^{MAX_PARSE_SIZE + 1}"])
        assert info.value.code == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["mull", "--e", "3", "--bogus", "2,1"])
        assert info.value.code == 2


class TestBoundedErrorLines:
    # a partition in an error line is named with ^ runs and a bounded length
    @pytest.mark.parametrize("argv, err", [
        (["mull", "--e", "3", "1^100000"], "error: 1^100000 is not 3-regular\n"),
        (["paget", "--e", "3", "50000,1^50000"], "error: 50000,1^50000 is not 3-restricted\n"),
    ], ids=["mull", "paget"])
    def test_long_partition_keeps_its_exit_code_with_a_short_line(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", err)

    def test_many_runs_are_cut(self, capsys):
        # 257 runs of three equal parts, 257^3,...,1^3, are 1,540 characters
        la = ",".join(f"{p}^3" for p in range(257, 0, -1))
        code, out, err = run(capsys, "mull", "--e", "3", la)
        assert (code, out) == (1, "") and len(err) < 300
        assert err.startswith("error: 257^3,256^3,") and err.endswith(",... (771 parts, size 99459) is not 3-regular\n")

    def test_rejected_parts_are_named_briefly(self, capsys):
        # the constructor's error names the parts as _brief does: 150,131
        # bytes of stderr when it printed the tuple
        with pytest.raises(SystemExit) as info:
            main(["conj", "1,2^49999"])
        err = capsys.readouterr().err
        assert info.value.code == 2 and len(err) < 300
        assert err.endswith("error: argument partition: parts must be weakly decreasing, got 1,2^49999\n")


class TestSplit:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "split", "--e", "5", "--I", "0,2", "--beads", "10", "5,3^2,2,1")
        assert code == 0
        assert out.splitlines() == [
            "lambda_I = 2",
            "lambda_Ibar = 2,1",
            "u = 3",
            "separated = no",
        ]


class TestBeadLimit:
    # --e 4 with one bead per row over the limit, rounded up to a multiple of 4;
    # --e MAX_BEADS + 1 gives a nonempty partition twice that many beads
    OVER = MAX_BEADS + 4 - MAX_BEADS % 4
    CASES = [
        (["split", "--e", "4", "--I", "0", "--beads", str(OVER), "3,2"], OVER),
        (["split", "--e", str(MAX_BEADS + 1), "--I", "0", "3,2"], 2 * MAX_BEADS + 2),
        (["abacus", "show", "--e", "4", "--beads", str(OVER), "3,2"], OVER),
        (["abacus", "show", "--e", str(MAX_BEADS + 1), "3,2"], 2 * MAX_BEADS + 2),
        (["paget", "--e", str(MAX_BEADS + 1), "3,2"], 2 * MAX_BEADS + 2),
    ]

    @pytest.mark.parametrize("argv, beads", CASES, ids=[" ".join(a[:2]) + f" {b}" for a, b in CASES])
    def test_count_over_the_limit_exits_1(self, capsys, argv, beads):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: bead count {beads} exceeds the limit {MAX_BEADS}\n"

    def test_runner_count_over_the_limit_exits_1(self, capsys):
        code, out, err = run(capsys, "abacus", "show", "--e", str(MAX_BEADS + 1), "--beads", "5", "3,2")
        assert code == 1 and out == ""
        assert err == f"error: runner count {MAX_BEADS + 1} exceeds the limit {MAX_BEADS}\n"

    def test_count_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run(capsys, "split", "--e", "4", "--I", "0", "--beads", str(MAX_BEADS), "3,2")
        assert code == 0 and out.splitlines()[-1] == "separated = yes"

    @pytest.mark.parametrize("argv", [argv for argv, _ in CASES], ids=[str(b) for _, b in CASES])
    def test_nothing_is_allocated_before_the_check(self, argv):
        # the beads past the limit would take megabytes as a set of positions
        args = build_parser().parse_args(argv)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                args.func(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestPaget:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "paget", "--e", "4", "11,10,9,8,7,5^2,4,3,2,1^5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "sigma = 1,3,0,2"
        assert "mu = 19,10,9,8,7,4,3,3,3,2,1" in lines
        assert "match = yes" in lines

    def test_image_is_taken_without_conjugating(self, capsys, monkeypatch):
        # m_e(la') runs from la itself; paget_mu conjugates only quotient components
        calls, real = [], Partition.conjugate
        monkeypatch.setattr(Partition, "conjugate", lambda la: calls.append(la) or real(la))
        code, out, _ = run(capsys, "paget", "--e", "4", "11,10,9,8,7,5^2,4,3,2,1^5")
        assert code == 0 and calls == [Partition([1]), Partition([2]), Partition([1, 1])]
        assert "mullineux(conjugate) = 19,10,9,8,7,4,3,3,3,2,1" in out.splitlines()

    def test_takes_no_bead_count(self, capsys):
        # every result of paget is the same for any bead count
        with pytest.raises(SystemExit) as info:
            main(["paget", "--e", "4", "--beads", "20", "2,1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --beads" in capsys.readouterr().err


class TestVerifyLimits:
    # every suite places at least e beads per partition, and enumerates every
    # partition of size up to --max
    OVER = [("--max", MAX_VERIFY_SIZE + 1, "size bound", MAX_VERIFY_SIZE),
            ("--e", MAX_BEADS + 1, "modulus", MAX_BEADS)]

    @pytest.mark.parametrize("flag, value, what, limit", OVER, ids=[f"{f} {v}" for f, v, *_ in OVER])
    def test_over_the_limit_exits_1(self, capsys, monkeypatch, flag, value, what, limit):
        monkeypatch.setattr(vf, "iter_suites", lambda *args, **kwargs: pytest.fail("suites ran"))
        code, out, err = run(capsys, "verify", "core", flag, str(value))
        assert code == 1 and out == ""
        assert err == f"error: {what} {value} exceeds the limit {limit}\n"

    @pytest.mark.parametrize(
        "flag, value, kwargs",
        [("--max", MAX_VERIFY_SIZE, {"max_size": MAX_VERIFY_SIZE, "e_values": None}),
         ("--e", MAX_BEADS, {"max_size": None, "e_values": (MAX_BEADS,)})],
        ids=["--max", "--e"],
    )
    def test_at_the_limit_reaches_the_suites(self, capsys, monkeypatch, flag, value, kwargs):
        calls = []
        monkeypatch.setattr(vf, "iter_suites", lambda *args, **kw: calls.append((args, kw)) or [])
        assert run(capsys, "verify", "core", flag, str(value)) == (0, "", "")
        assert calls == [((["core"],), kwargs)]


HUGE = str(10**9)
# argv, exit code, most stderr bytes, most KiB that tracemalloc sees at peak:
# the hostile inputs each get a short message and an exit code, with no
# suite run and no allocation that grows with a number on the command line
HOSTILE = {
    "abacus_e_0": (["abacus", "show", "--e", "0", "2,1"], 1, 64, 512),
    "split_e_0": (["split", "--e", "0", "--I", "0", "2,1"], 1, 64, 512),
    "paget_e_0": (["paget", "--e", "0", "2,1"], 1, 64, 512),
    "crystal_e_0": (["crystal", "--e", "0", "--slope", "1-"], 1, 64, 512),
    "crystal_negative_size": (["crystal", "--e", "3", "--arm", "0,1", "--max-size", "-1"], 2, 300, 512),
    "abacus_beads_1e8": (["abacus", "show", "--e", "4", "--beads", "100000000", "3,2"], 1, 64, 512),
    "split_beads_1e8": (["split", "--e", "4", "--I", "0", "--beads", "100000000", "3,2"], 1, 64, 512),
    "reg_y_exponent": (["reg", "--e", "3", "--y", "1e100000000", "1"], 2, 300, 512),
    "crystal_slope_exponent": (["crystal", "--e", "3", "--slope", "1e100000000+"], 2, 300, 512),
    "mull_1e5_nodes": (["mull", "--e", "3", "1^100000"], 1, 64, 8192),
    "conj_unsorted_1e5": (["conj", "1,2^49999"], 2, 300, 4096),
    "crystal_long_arm": (["crystal", "--e", "3", "--arm", ",".join(map(str, range(MAX_GRAPH_SIZE + 1)))],
                         1, 64, 512),
    "abacus_huge_e": (["abacus", "show", "--e", HUGE, "2,1"], 1, 64, 512),
    "split_huge_e": (["split", "--e", HUGE, "--I", "0", "2,1"], 1, 64, 512),
    "paget_huge_e": (["paget", "--e", HUGE, "2,1"], 1, 64, 512),
    "crystal_huge_e": (["crystal", "--e", HUGE, "--slope", "1"], 1, 64, 512),
    "chain_huge_e": (["chain", "--e", HUGE, "--from", "0", "--to", "0"], 1, 64, 512),
    "mull_huge_e": (["mull", "--e", HUGE, "5,3,1"], 0, 0, 512),
    "reg_huge_e": (["reg", "--e", HUGE, "--y", "1", "5,3,1"], 0, 0, 512),
    "reg_huge_y": (["reg", "--e", "3", "--y", "9" * 40 + "/7", "2,1"], 1, 128, 512),
    "reg_tiny_y": (["reg", "--e", "3", "--y", "1/" + "9" * 40, "2,1"], 1, 128, 512),
    "crystal_long_slope": (["crystal", "--e", "3", "--slope", f"{10**39 + 1}/{10**39}"], 0, 0, 512),
    "conj_1e5_nodes": (["conj", "1^100000"], 0, 0, 16384),
    "conj_over_parse_limit": (["conj", "1^100001"], 2, 300, 512),
    "paget_1e5_nodes": (["paget", "--e", "3", "50000,1^50000"], 1, 64, 16384),
    "ladder_class_over_bound": (["ladder-class", "--e", "3", "--y", "1", "--bound", "41", "2,1"], 1, 64, 512),
    "split_residue_not_int": (["split", "--e", "4", "--I", "0,x", "3,1"], 2, 300, 512),
    "split_residue_too_big": (["split", "--e", "4", "--I", "9", "3,1"], 1, 64, 512),
    "split_residue_negative": (["split", "--e", "4", "--I", "-1", "3,1"], 1, 64, 512),
    "split_beads_negative": (["split", "--e", "4", "--I", "0", "--beads", "-1", "3,2"], 1, 64, 512),
    "split_beads_too_few": (["split", "--e", "4", "--I", "0", "--beads", "1", "3,2"], 1, 64, 512),
    "abacus_beads_negative": (["abacus", "show", "--e", "4", "--beads", "-5", "3,2"], 1, 64, 512),
    "verify_max_over_cap": (["verify", "core", "--max", str(MAX_VERIFY_SIZE + 1)], 1, 64, 512),
    "verify_max_negative": (["verify", "all", "--max", "-1"], 2, 300, 512),
    "verify_e_over_cap": (["verify", "core", "--e", str(MAX_BEADS + 1)], 1, 64, 512),
    "verify_split_e_over_range": (["verify", "split", "--e", "8"], 2, 64, 512),
    "verify_paget_e_over_range": (["verify", "paget", "--e", "6"], 2, 64, 512),
    "verify_core_e_negative": (["verify", "core", "--e", "-1", "--max", "3"], 2, 64, 512),
    "verify_ladder_takes_no_e": (["verify", "ladder", "--e", "-1", "--max", "3"], 2, 64, 512),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_input_exits_with_a_short_message(capsys, monkeypatch, case):
    argv, code, err_bytes, peak_kib = HOSTILE[case]
    monkeypatch.setattr(vf, "_run_suite", lambda *args: pytest.fail("a suite ran"))
    tracemalloc.start()
    try:
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert got == code, err
    assert len(err.encode()) <= err_bytes and (code == 0) == (err == ""), err
    assert peak <= peak_kib * 1024


class TestVerify:
    def test_quick_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "lyle", "--e", "3", "--max", "6")
        assert code == 0
        assert all(line.startswith("PASS lyle.") for line in out.splitlines())

    def test_property_that_checked_nothing_is_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", "split", "--e", "2", "--max", "4")
        assert code == 1
        lines = out.splitlines()
        assert "VACUOUS split.splitting_theorem checked=0" in lines
        assert "VACUOUS split.box_step_preserves_cbar_fingerprint checked=0" in lines
        assert not any(line.startswith("PASS") and line.endswith("checked=0") for line in lines)

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "bogus"])
        assert info.value.code == 2

    @pytest.mark.parametrize("suite, bound", [("paget", "-4"), ("split", "-3")])
    def test_negative_max_exits_2(self, capsys, suite, bound):
        with pytest.raises(SystemExit) as info:
            main(["verify", suite, "--max", bound])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--max: size {bound} is negative" in captured.err

    @pytest.mark.parametrize(
        "suite, e",
        [("core", "-1"), ("mullineux", "0"), ("lyle", "0"),
         ("paget", "1"), ("split", "1"), ("all", "1")],
    )
    def test_modulus_below_the_suite_range_exits_2(self, capsys, suite, e):
        code, out, err = run(capsys, "verify", suite, "--e", e, "--max", "3")
        named = "core" if suite == "all" else suite
        assert code == 2 and out == ""
        assert err == f"error: suite {named} runs e >= 2, got e = {e}\n"

    @pytest.mark.parametrize(
        "suite, e, named, bound",
        [("split", "8", "split", 7), ("paget", "6", "paget", 5),
         ("all", "6", "paget", 5), ("all", "8", "split", 7)],
    )
    def test_modulus_above_the_suite_range_exits_2(self, capsys, monkeypatch, suite, e, named, bound):
        # split and paget are exponential in e; the check comes before any suite runs
        for name, (_, *rest) in list(vf._SUITES.items()):
            monkeypatch.setitem(vf._SUITES, name, (lambda *args: pytest.fail("a suite ran"), *rest))
        code, out, err = run(capsys, "verify", suite, "--e", e)
        assert code == 2 and out == ""
        assert err == f"error: suite {named} runs e <= {bound}, got e = {e}\n"

    @pytest.mark.parametrize("suite, e", [("ladder", "-1"), ("crystal", "3")])
    def test_e_for_a_fixed_moduli_suite_exits_2(self, capsys, suite, e):
        code, out, err = run(capsys, "verify", suite, "--e", e, "--max", "3")
        assert code == 2 and out == ""
        assert err == f"error: suite {suite} runs fixed moduli and takes no e values\n"

    def test_suite_lines_print_as_each_suite_ends(self, capsys, monkeypatch):
        # the ladder suite fails outright, after the core suite has finished
        def broken(max_size, e_values):
            raise RuntimeError("ladder suite broke")
            yield

        monkeypatch.setitem(vf._SUITES, "ladder", (broken,) + vf._SUITES["ladder"][1:])
        code, out, err = run(capsys, "verify", "all", "--max", "2")
        assert code == 1 and err == "error: ladder suite broke\n"
        assert [line.split()[1] for line in out.splitlines()] == [
            f"core.{name}" for name in vf._SUITES["core"][3]
        ]

    def test_suite_that_raises_keeps_its_failures(self, capsys, monkeypatch):
        # combine's bead sets one I-bead short: the round trip fails on its
        # first instance, and the Mullineux loop later raises on a bead set
        # that is not a display of an e-restricted partition
        real = sp._combined_beads

        def short(beta, gamma, ctx, u):
            occ = real(beta, gamma, ctx, u)
            if u > len(beta):
                occ.discard(ctx.places[0][u - len(beta) - 1])
            return occ

        monkeypatch.setattr(sp, "_combined_beads", short)
        code, out, err = run(capsys, "verify", "split", "--e", "4", "--max", "5")
        assert code == 1 and err == "error: 1^6 is not 4-regular\n"
        lines = out.splitlines()
        assert lines[0] == "FAIL split.split_combine_round_trip checked=1 counterexample: - I=[0] e=4"
        assert all(line.startswith("FAIL split.") for line in lines), lines

    def test_suite_error_keeps_results_on_the_exception(self, monkeypatch):
        # run_suites still raises; the counts up to the error ride on it
        def broken(max_size, e_values):
            yield "adjointness", True
            yield "adjointness", "here"
            raise RuntimeError("crystal suite broke")

        monkeypatch.setitem(vf._SUITES, "crystal", (broken,) + vf._SUITES["crystal"][1:])
        with pytest.raises(RuntimeError) as info:
            vf.run_suites(["crystal"])
        first = info.value.suite_results[0]
        assert (first.name, first.checked, first.failure) == ("adjointness", 2, "here")
        assert [r.checked for r in info.value.suite_results[1:]] == [0] * 7

    def test_internal_fault_names_its_suite_and_exits_1(self, capsys, monkeypatch):
        # an exception that main does not report, raised inside a suite, is
        # reported as a fault of that suite, with no traceback
        def broken(la, params):
            raise IndexError("tuple index out of range")

        monkeypatch.setattr(ld, "is_restricted", broken)
        code, out, err = run(capsys, "verify", "ladder", "--max", "4")
        assert code == 1 and out == ""
        assert err == "error: internal fault in suite ladder: IndexError: tuple index out of range\n"
        assert "Traceback" not in err

    def test_internal_fault_keeps_the_failures_found_before_it(self, capsys, monkeypatch, lyle_fails_at_2_1):
        real = vf._lyle_report
        calls = []

        def faulty(*args):
            calls.append(args)
            if len(calls) > 20:
                raise KeyError("lyle")
            return real(*args)

        monkeypatch.setattr(vf, "_lyle_report", faulty)
        code, out, err = run(capsys, "verify", "lyle", "--e", "3", "--max", "6")
        assert code == 1
        assert out == "FAIL lyle.dominance_always_holds checked=6 counterexample: 2,1 e=3\n"
        assert err == "error: internal fault in suite lyle: KeyError: 'lyle'\n"

    def test_peel_without_a_good_node_exits_1(self, capsys, replace_walk):
        # a walk that finds no signed node at any residue
        replace_walk(lambda real, parts, prefix, i: {} if i is None else {i: ([], [])})
        code, out, err = run(capsys, "verify", "mullineux", "--e", "3", "--max", "2")
        assert code == 1 and out == ""
        assert err == "error: no good node on 1\n"

    def test_failing_property_exits_1(self, capsys, lyle_fails_at_2_1):
        code, out, _ = run(capsys, "verify", "lyle", "--e", "3", "--max", "4")
        assert code == 1
        assert "FAIL lyle.dominance_always_holds checked=6 counterexample: 2,1 e=3" in out


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        first = run(capsys, "ladder-class", "--e", "3", "--y", "2", "--json", "5,1")
        second = run(capsys, "ladder-class", "--e", "3", "--y", "2", "--json", "5,1")
        assert first == second

    def test_json_round_trips_partition_format(self, capsys):
        _, out, _ = run(capsys, "mull", "--e", "3", "--json", "6,2,1")
        payload = json.loads(out)
        assert parse_partition(payload["result"]).parts == (5, 2, 2)
