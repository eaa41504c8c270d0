"""Bad input to the public entry points: each row calls one of them with an
argument it rejects and pins the exception type and the exact message."""

from fractions import Fraction

import pytest

from regcrystals import abacus as ab
from regcrystals import crystals as cr
from regcrystals import separation as sp
from regcrystals import verify
from regcrystals.cli import main
from regcrystals.mullineux import mullineux_oracle, slopes
from regcrystals.partitions import Partition, enumerate_partitions, residue

P = Partition
PREFIX = cr.ArmPrefix.from_slope(3, 1, 2, "-")  # bound 6

REJECTIONS = {
    "oracle_e_1": (lambda: mullineux_oracle(P([1]), 1), ValueError, "only the empty partition is 1-regular"),
    "oracle_residue_choice": (lambda: mullineux_oracle(P([1]), 3, "mid"), ValueError,
                              "residue_choice must be 'min' or 'max'"),
    "slopes_e_1": (lambda: slopes(P([1]), 1), ValueError, "e must be at least 2"),
    "quotient_short": (lambda: ab.from_core_and_quotient(P(), [P()] * 2, 3), ValueError,
                       "need 3 quotient components, got 2"),
    "grow_negative": (lambda: ab.grow_first_columns(P([1]), -1, 3), ValueError, "m must be non-negative"),
    "empty_prefix": (lambda: cr.ArmPrefix(3, ()), ValueError, "need at least one value"),
    "prefix_variant": (lambda: cr.ArmPrefix.from_slope(3, Fraction(1), 3, "x"), ValueError,
                       "variant must be '+' or '-'"),
    "f_op_at_bound": (lambda: cr.f_op(P([3, 2, 1]), PREFIX, 0), ValueError,
                      "|la| + 1 = 7 exceeds the crystal bound 6"),
    "graph_past_bound": (lambda: cr.build_graph(PREFIX, PREFIX.bound + 1), ValueError,
                         "max_size 7 exceeds the prefix bound 6"),
    "remove_inner_node": (lambda: P([2, 1]).remove_node((1, 1)), ValueError,
                          "(1, 1) is not a removable node of 2,1"),
    "e_content_1": (lambda: P([1]).e_content(1), ValueError, "e must be at least 2"),
    "is_e_regular_0": (lambda: P([1]).is_e_regular(0), ValueError, "e must be positive"),
    "is_e_restricted_0": (lambda: P([1]).is_e_restricted(0), ValueError, "e must be positive"),
    "residue_1": (lambda: residue((1, 1), 1), ValueError, "e must be at least 2"),
    "enumerate_negative": (lambda: list(enumerate_partitions(-1)), ValueError, "n must be non-negative"),
    "split_context_e_1": (lambda: sp.SplitContext(1, frozenset({0}), 4), ValueError, "e must be at least 2"),
    "split_pair_gamma": (lambda: sp.split_pair(P(), P(), P([2]), 2, 2), ValueError,
                         "gamma = 2 is not 2-restricted"),
    "unknown_suite": (lambda: verify.iter_suites(["nope"]), ValueError, "unknown suite(s): ['nope']"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejection(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_oracle_at_e_1_takes_the_empty_partition():
    assert mullineux_oracle(P(), 1) == P()


def test_cli_bound_that_is_not_an_integer_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ladder-class", "--e", "3", "--y", "2", "--bound", "x", "2,1"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --bound: bad size 'x': not an integer\n")
