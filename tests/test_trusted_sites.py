"""Every call site of the trusted constructor Partition._of gives what the
public, checking constructor gives for the same parts: exhaustively for
|la| <= 14 and on seeded partitions with n = 50..400."""

import random

import pytest

from oracles import random_partition
from regcrystals import crystals as cr
from regcrystals.abacus import e_core, from_runners, runner_counts
from regcrystals.ladders import LadderParams, regularise
from regcrystals.mullineux import mullineux_oracle, peel_and_rebuild
from regcrystals.partitions import Partition, beta_numbers, enumerate_partitions, from_beta_numbers

EXHAUSTIVE_BOUND = 14


def public(mu):
    """mu, after checking that Partition(mu.parts) accepts its parts and
    equals it part for part, each part an int, with the same size."""
    checked = Partition(list(mu.parts))
    assert type(mu.parts) is tuple and all(type(p) is int for p in mu.parts), mu.parts
    assert mu.parts == checked.parts and mu.size == checked.size and mu == checked
    return mu


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


def partition_sites(la):
    """The images of la at the partitions-module sites: its conjugate, its
    decoding from bead sets of three lengths, and each node removal."""
    yield la.conjugate()
    for pad in range(3):
        yield from_beta_numbers(beta_numbers(la, len(la) + pad))
    for node in la.removable_nodes():
        yield la.remove_node(node)


def crystal_prefixes(size):
    """Slope-1 '-' and slope-(e-1) '+' prefixes for e = 2..4 whose bound reaches size + 1."""
    for e in (2, 3, 4):
        n = size // e + 1
        yield cr.ArmPrefix.from_slope(e, 1, n, "-")
        yield cr.ArmPrefix.from_slope(e, e - 1, n, "+")


def crystal_sites(la):
    """The images of la under e_op and f_op at every residue, and under a
    peel and rebuild at the same residues (la itself, rebuilt) with either
    residue order, in each prefix of crystal_prefixes for which la is
    regular; and its image under the Mullineux oracle if it is e-regular."""
    for prefix in crystal_prefixes(la.size):
        if not cr.is_A_regular(la, prefix):
            continue
        for i in range(prefix.e):
            yield cr.e_op(la, prefix, i)
            yield cr.f_op(la, prefix, i)
        for order in (range(prefix.e), range(prefix.e - 1, -1, -1)):
            rebuilt = peel_and_rebuild(la, prefix, prefix, order, 1)
            assert rebuilt == la
            yield rebuilt
    for e in (2, 3, 4):
        if la.is_e_regular(e):
            yield mullineux_oracle(la, e)
            yield mullineux_oracle(la, e, "max")


def test_enumerated_partitions_are_public():
    for n in range(EXHAUSTIVE_BOUND + 1):
        for la in enumerate_partitions(n):
            assert public(la).size == n


def test_partition_sites_are_public_exhaustively():
    checked = 0
    for la in all_up_to(EXHAUSTIVE_BOUND):
        for mu in partition_sites(la):
            public(mu)
            checked += 1
    assert checked > 0


def test_crystal_sites_are_public_exhaustively():
    checked = 0
    for la in all_up_to(EXHAUSTIVE_BOUND):
        for mu in crystal_sites(la):
            if mu is not None:
                public(mu)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("prefix", [cr.ArmPrefix.from_slope(3, 1, 5, "-"), cr.ArmPrefix.from_slope(4, 3, 4, "+")],
                         ids=repr)
def test_graph_vertices_are_public(prefix):
    graph = cr.build_graph(prefix, EXHAUSTIVE_BOUND)
    for mu in graph.vertices:
        public(mu)
    for _, _, mu in graph.edges:
        public(mu)


def test_sites_are_public_at_large_n():
    # seeded partitions with n = 50..400; the crystal sites take each one
    # made e-regular, in the e-regular crystal
    rng = random.Random(20261019)
    for k in range(15):
        n, e = 50 + 25 * k, 3 + k % 4
        la = random_partition(rng, n)
        for mu in partition_sites(la):
            public(mu)
        mu = regularise(la, LadderParams(e, 1))
        prefix = cr.ArmPrefix.from_slope(e, 1, n // e + 1, "-")
        for i in range(e):
            for image in (cr.e_op(mu, prefix, i), cr.f_op(mu, prefix, i)):
                if image is not None:
                    public(image)
        public(mullineux_oracle(mu, e))
        public(mullineux_oracle(mu, e, "max"))


def test_e_core_builds_no_checked_partition(monkeypatch):
    # its empty quotient components are built unchecked: each call gives what
    # the public empty partition gives, and no call runs the checking constructor
    cores = [(la, e, e_core(la, e)) for la in all_up_to(EXHAUSTIVE_BOUND) for e in (2, 3, 4)]
    for la, e, core in cores:
        public(core)
        assert core == from_runners([Partition()] * e, runner_counts(beta_numbers(la, len(la) + 2 * e), e))
    checked = []
    real = Partition.__init__
    monkeypatch.setattr(Partition, "__init__", lambda self, *a: checked.append(a) or real(self, *a))
    assert [e_core(la, e) for la, e, _ in cores] == [core for _, _, core in cores]
    assert checked == []


@pytest.mark.parametrize("parts, message", [
    ([1, 2], "parts must be weakly decreasing, got (1, 2)"),
    ((3, 1, 2), "parts must be weakly decreasing, got (3, 1, 2)"),
    ([3, 0], "parts must be positive, got (3, 0)"),
    ([0], "parts must be positive, got (0,)"),
    ([-1], "parts must be positive, got (-1,)"),
])
def test_public_constructor_still_rejects(parts, message):
    with pytest.raises(ValueError) as exc:
        Partition(parts)
    assert str(exc.value) == message
