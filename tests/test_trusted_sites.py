"""Every call site of the trusted constructor Partition._of gives what the
public, checking constructor gives for the same parts: exhaustively for
|la| <= 14 and on seeded partitions with n = 50..400.  The one site of
ArmPrefix._of, the Mullineux oracle's prefix, is checked the same way."""

import importlib
import random
import sys
from fractions import Fraction

import pytest

from oracles import random_partition
from regcrystals import crystals as cr
from regcrystals import separation as sp
from regcrystals import verify
from regcrystals.abacus import _quotient, default_beads, e_core, from_runners, runner_counts
from regcrystals.ladders import LadderParams, regularise
from regcrystals.mullineux import _conjugate_image, mullineux_oracle, peel_and_rebuild
from regcrystals.partitions import Partition, beta_numbers, enumerate_partitions, from_beta_numbers

EXHAUSTIVE_BOUND = 14
mx = importlib.import_module("regcrystals.mullineux")


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


def test_paget_partner_builds_no_checked_partition(monkeypatch):
    # its empty quotient components are built unchecked: on every e-restricted,
    # e-quotient-separated la, the partner is a public partition, equal to
    # la's Mullineux image (Paget's theorem) when it is quotient separated too
    displays = []
    for la in all_up_to(EXHAUSTIVE_BOUND):
        for e in (2, 3, 4):
            if la.is_e_restricted(e) and sp.is_quotient_separated(la, e):
                occ = beta_numbers(la, default_beads(la, e))
                displays.append((la, e, _quotient(occ, e), runner_counts(occ, e)))
    theorem = 0
    partners = [sp._paget_partner(quot, counts) for _, _, quot, counts in displays]
    for (la, e, _, _), mu in zip(displays, partners):
        public(mu)
        if sp.is_quotient_separated(mu, e):
            assert _conjugate_image(la, e) == mu, (la, e)
            theorem += 1
    assert theorem > 100
    checked = []
    real = Partition.__init__
    monkeypatch.setattr(Partition, "__init__", lambda self, *a: checked.append(a) or real(self, *a))
    assert [sp._paget_partner(quot, counts) for _, _, quot, counts in displays] == partners
    assert checked == []


def record_site_constructions(monkeypatch, sites):
    """Patch Partition so that each trusted and each checked construction
    made directly in a function named in sites is recorded there, by name."""
    trusted, checked = {site: [] for site in sites}, {site: [] for site in sites}
    real_of, real_init = Partition._of.__func__, Partition.__init__

    def of(cls, parts):
        mu = real_of(cls, parts)
        trusted.get(sys._getframe(1).f_code.co_name, []).append(mu)
        return mu

    def init(self, *args):
        checked.get(sys._getframe(1).f_code.co_name, []).append(args)
        real_init(self, *args)

    monkeypatch.setattr(Partition, "_of", classmethod(of))
    monkeypatch.setattr(Partition, "__init__", init)
    return trusted, checked


def test_catalogue_suite_sites_build_no_checked_partition(monkeypatch):
    # suite_core's taller partition of grow_columns_two_routes_agree and
    # suite_paget's empty core components are built unchecked: at default
    # bounds every property passes, each site gives public partitions, and
    # neither suite runs the checking constructor itself
    trusted, checked = record_site_constructions(monkeypatch, ("suite_core", "suite_paget"))
    results = verify.run_suites(["core", "paget"])
    assert results and all(r.ok for r in results)
    for mu in trusted["suite_core"] + trusted["suite_paget"]:
        public(mu)
    assert len(trusted["suite_core"]) == 4352 and len(trusted["suite_paget"]) == 104
    assert all(mu == Partition() for mu in trusted["suite_paget"])
    assert checked == {"suite_core": [], "suite_paget": []}


def test_oracle_prefix_is_the_public_one(monkeypatch):
    # the trusted A_t = t - 1 prefix that mullineux_oracle hands the peel, for
    # |la| in ((n - 1)e, ne], is the prefix both checking constructors give,
    # in every field
    built = []
    monkeypatch.setattr(mx, "peel_and_rebuild", lambda la, src, dst, *args, **kw: built.append((src, dst)) or la)
    for e in range(2, 9):
        for n in range(1, 201):
            for size in {n * e - e + 1, n * e}:
                built.clear()
                mullineux_oracle(Partition([size]), e)
                [(trusted, dst)] = built
                assert dst is trusted and type(trusted.slope) is Fraction
                assert type(trusted.values) is tuple and all(type(v) is int for v in trusted.values)
                for checked in (cr.ArmPrefix(e, range(n)), cr.ArmPrefix.from_slope(e, 1, n, "-")):
                    assert (trusted.e, trusted.values, trusted.slope) == (checked.e, checked.values, checked.slope)
                    assert trusted == checked and hash(trusted) == hash(checked), (e, n)


def test_oracle_validates_no_prefix(monkeypatch):
    # the mullineux suite's oracle calls build their prefix unchecked: every
    # property passes and ArmPrefix.__init__ never runs
    validated = []
    real = cr.ArmPrefix.__init__
    monkeypatch.setattr(cr.ArmPrefix, "__init__", lambda self, *a: validated.append(a) or real(self, *a))
    results = verify.run_suites(["mullineux"])
    assert results and all(r.ok for r in results)
    assert validated == []


@pytest.mark.parametrize("parts, message", [
    ([1, 2], "parts must be weakly decreasing, got 1,2"),
    ((3, 1, 2), "parts must be weakly decreasing, got 3,1,2"),
    ([3, 0], "parts must be positive, got 3,0"),
    ([0], "parts must be positive, got 0"),
    ([-1], "parts must be positive, got -1"),
], ids=["rising_list", "rising_tuple", "zero_last", "zero_only", "negative"])
def test_public_constructor_still_rejects(parts, message):
    with pytest.raises(ValueError) as exc:
        Partition(parts)
    assert str(exc.value) == message
