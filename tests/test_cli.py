import json

import pytest

from regcrystals import crystals as cr
from regcrystals.cli import main
from regcrystals.partitions import MAX_PARSE_SIZE, parse_partition


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
        ["paget", "--e", "0", "--beads", "4", "2,1"],
        ["paget", "--e", "-3", "--beads", "3", "2,1"],
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


class TestLadderClass:
    def test_class_listing(self, capsys):
        code, out, _ = run(capsys, "ladder-class", "--e", "3", "--y", "2", "5,1")
        assert code == 0
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

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "crystal", "--e", "3")
        assert code == 1 and "exactly one" in err

    @pytest.mark.parametrize("source", [["--arm", "0,1"], ["--slope", "2"]], ids=["arm", "slope"])
    def test_negative_max_size_exits_2(self, capsys, source):
        with pytest.raises(SystemExit) as info:
            main(["crystal", "--e", "3", *source, "--max-size", "-1"])
        assert info.value.code == 2
        assert "--max-size: size -1 is negative" in capsys.readouterr().err


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
        assert err == f"error: {parse_partition(la).parts} is not regular for the chain source\n"


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
        assert json.loads(payload) == json.loads(traced_payload)

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


class TestPaget:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "paget", "--e", "4", "11,10,9,8,7,5^2,4,3,2,1^5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "sigma = 1,3,0,2"
        assert "mu = 19,10,9,8,7,4,3,3,3,2,1" in lines
        assert "match = yes" in lines


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
