"""The three workloads and the gates that check their outputs.

A workload returns its gate, the seconds of each timed item (a verify suite,
or one large_n input) and, for large_n, the per-call latencies by input.

Every workload returns the instances it checked and the ones that failed,
so no speed-up can come from checking less: a verify property must PASS
with exactly its pinned instance count, and every large_n output is
checked against an independent route.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from sampler import LargeNInputs

CATALOGUE_SUITES = ("core", "ladder", "crystal", "mullineux", "lyle", "paget")

# Instance counts of each property at default bounds, one CLI suite at a time.
PINNED_CATALOGUE = {
    "core.conjugate_involution": 272,
    "core.dominance_reversed_by_conjugation": 12648,
    "core.node_removal_inverts_addition": 618,
    "core.rim_hook_removal_size_drop": 2646,
    "core.regular_iff_conjugate_restricted": 1088,
    "core.abacus_round_trip": 3264,
    "core.conjugate_display_matches_conjugate": 1088,
    "core.equal_content_equal_runner_profile": 9338,
    "core.core_quotient_bead_invariance": 1088,
    "core.core_quotient_size_identity": 1088,
    "core.core_quotient_rebuild": 1088,
    "core.grow_columns_two_routes_agree": 4352,
    "ladder.depth_and_residue_classify_ladders": 103680,
    "ladder.regularise_is_unique_class_maximum": 578,
    "ladder.restrictise_is_unique_class_minimum": 578,
    "ladder.regularise_preserves_fingerprint": 695,
    "ladder.regularise_restrictise_idempotent_inverse": 695,
    "ladder.bad_count_constant_on_classes": 272,
    "ladder.step_ascends_and_preserves_fingerprint": 117,
    "ladder.restricted_iff_conjugate_regular_for_conjugate_slope": 695,
    "crystal.adjointness": 2214,
    "crystal.closure_under_operators": 2214,
    "crystal.empty_is_unique_source": 6,
    "crystal.edge_labels_match_added_residue": 222,
    "crystal.layer_counts_agree_between_prefixes": 6,
    "crystal.regularisation_commutes_with_operators": 1979,
    "crystal.regularisation_bijects_regular_sets": 39,
    "crystal.chain_factorisations_induce_same_map": 446,
    "mullineux.algorithm_equals_crystal_oracle": 2604,
    "mullineux.involution": 2604,
    "mullineux.image_is_e_regular_of_same_size": 2604,
    "mullineux.identity_for_e_2": 253,
    "mullineux.composite_preserves_content_on_restricted": 1531,
    "mullineux.oracle_residue_choice_is_irrelevant": 476,
    "mullineux.image_shares_e_core": 872,
    "lyle.dominance_always_holds": 2032,
    "lyle.equality_iff_all_hooks_steep_or_shallow": 2032,
    "paget.theorem_on_quotient_separated_partitions": 1019,
    "paget.partner_shares_core": 1497,
}

# The slice run by `regcrystals verify split --e 4 --max 12`.
PINNED_SPLIT = {
    "split.split_combine_round_trip": 1632,
    "split.separated_regular_iff_half_restricted": 3094,
    "split.separated_restricted_iff_half_restricted": 3094,
    "split.splitting_theorem": 15526,
    "split.box_step_preserves_cbar_fingerprint": 5110,
}

# Edge counts of build_graph by (e, size); crystals of one e are isomorphic,
# so the count does not depend on the arm prefix.
PINNED_EDGES = {
    (3, 18): 955, (3, 19): 1210, (3, 20): 1550, (3, 22): 2391, (3, 26): 5593,
    (4, 18): 1642, (4, 19): 2134, (4, 20): 2702,
    (5, 18): 2233, (5, 19): 2920, (6, 18): 2702,
}


@dataclass
class Gate:
    """Checks attempted and failed, with the first few failures described."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, checks: int, failures: int, what: str) -> None:
        self.attempted += checks
        self.failed += failures
        if failures and len(self.problems) < 5:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def gate_properties(results, pinned: dict[str, int], gate: Gate) -> None:
    """Each pinned property must PASS with exactly its pinned count.

    All instances of a property that fails, is missing or checked a
    different number count as failed.
    """
    seen = {f"{r.suite}.{r.name}": r for r in results}
    for name, count in pinned.items():
        r = seen.get(name)
        if r is None:
            gate.record(count, count, f"{name}: missing")
        elif not r.ok or r.checked != count:
            gate.record(count, count, f"{name}: {r.line()} (pinned {count})")
        else:
            gate.record(count, 0, name)
    for name in seen.keys() - pinned.keys():
        gate.record(1, 1, f"{name}: not pinned")


def run_suites(rc, calls, pinned: dict[str, int]) -> dict:
    """Run each (suite, kwargs) through verify.run_suites, timing every suite."""
    gate = Gate()
    results, items = [], {}
    for name, kwargs in calls:
        t = time.perf_counter()
        try:
            results += rc.verify.run_suites([name], **kwargs)
        except Exception as exc:  # a crashed suite fails its properties below
            gate.problems.append(f"suite {name} raised {exc!r}")
        items[name] = time.perf_counter() - t
    gate_properties(results, pinned, gate)
    return {"gate": gate, "items": items, "samples": {}}


def catalogue(rc, _inputs) -> dict:
    """The six non-split suites at default bounds, as the CLI runs them."""
    return run_suites(rc, [(s, {}) for s in CATALOGUE_SUITES], PINNED_CATALOGUE)


def split(rc, _inputs) -> dict:
    """`verify split --e 4 --max 12`."""
    return run_suites(rc, [("split", {"max_size": 12, "e_values": (4,)})], PINNED_SPLIT)


def regular_counts(e: int, size: int) -> int:
    """Number of e-regular partitions of size at most size.

    Counted as partitions into parts not divisible by e (Glaisher), which
    shares no code with the package.
    """
    ways = [1] + [0] * size
    for part in range(1, size + 1):
        if part % e:
            for s in range(part, size + 1):
                ways[s] += ways[s - part]
    return sum(ways)


@dataclass(frozen=True)
class LargeNPrepared:
    """Inputs of large_n made valid for the calls they feed."""

    samples: tuple
    chains: tuple
    graphs: tuple


def prepare_large_n(rc, raw: LargeNInputs) -> LargeNPrepared:
    """Make samples e-regular, chain inputs regular for the chain source, and build prefixes."""
    from regcrystals.crystals import ArmPrefix
    from regcrystals.ladders import LadderParams

    samples = tuple(
        (rc.james_regularise(rc.Partition(parts), e), e, LadderParams(e, slope))
        for parts, e, slope in raw.samples
    )
    chains = []
    for parts, e in raw.chains:
        length = -(-sum(parts) // e)
        top = ArmPrefix.from_slope(e, e - 1, length, "+")
        bottom = ArmPrefix.from_slope(e, 1, length, "-")
        la = rc.restrictise(rc.Partition(parts), LadderParams(e, e - 1))
        chains.append((la, top, bottom))
    graphs = tuple(
        (ArmPrefix.from_slope(e, slope, -(-size // e), variant), size)
        for e, slope, variant, size in raw.graphs
    )
    return LargeNPrepared(samples, tuple(chains), graphs)


def large_n(rc, inputs: LargeNPrepared) -> dict:
    """Per-call latency of the end-to-end functions on large, distinct inputs.

    Each input is one timed item; the calls inside it are timed too, by
    input index, so that repetitions can be compared input by input.
    """
    from regcrystals.ladders import fingerprint, is_regular, is_restricted

    gate = Gate()
    items: dict[str, float] = {}
    samples: dict[str, list] = {
        key: [None] * len(group)
        for key, group in (("mullineux", inputs.samples), ("oracle", inputs.samples),
                           ("regularise", inputs.samples), ("chain", inputs.chains),
                           ("build_graph", inputs.graphs))
    }

    def timed(key, k, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        samples[key][k] = (time.perf_counter() - t) * 1e3
        return out

    def item(name, what, checks, body):
        t = time.perf_counter()
        try:
            outcomes = body()
        except Exception as exc:
            outcomes = [(False, f"{what} raised {exc!r}")] * checks
        items[name] = time.perf_counter() - t
        for ok, desc in outcomes:
            gate.check(ok, desc)

    def sample(k, la, e, params, what):
        image = timed("mullineux", k, rc.mullineux, la, e)
        oracle = timed("oracle", k, rc.mullineux_oracle, la, e)
        reg, res = timed("regularise", k, lambda: (rc.regularise(la, params), rc.restrictise(la, params)))
        fp = fingerprint(la, params)
        return [
            (image == oracle, f"mullineux != oracle on {what}"),
            (rc.mullineux(image, e) == la, f"mullineux not an involution on {what}"),
            (is_regular(reg, params) and is_restricted(res, params)
             and fingerprint(reg, params) == fp == fingerprint(res, params),
             f"regularise/restrictise left the ladder class of {what}"),
        ]

    def chain(k, la, top, bottom, what):
        mu = timed("chain", k, lambda: rc.apply_chain(la, rc.iso_chain(top, bottom)))
        return [(rc.apply_chain(mu, rc.iso_chain(bottom, top)) == la, f"{what}: reverse differs")]

    def graph(k, prefix, size, what):
        g = timed("build_graph", k, rc.build_graph, prefix, size)
        targets = {edge[2] for edge in g.edges}
        sources = [v for v in g.vertices if v not in targets]
        return [
            (sources == [rc.Partition()], f"{what}: sources {sources[:3]}"),
            (len(g.vertices) == regular_counts(prefix.e, size), f"{what}: vertex count"),
            (len(g.edges) == PINNED_EDGES[(prefix.e, size)], f"{what}: edge count"),
        ]

    for k, (la, e, params) in enumerate(inputs.samples):
        what = f"{la.parts} e={e} y={params.y}"
        item(f"sample{k}", what, 3, lambda: sample(k, la, e, params, what))
    for k, (la, top, bottom) in enumerate(inputs.chains):
        what = f"chain {la.parts} e={top.e}"
        item(f"chain{k}", what, 1, lambda: chain(k, la, top, bottom, what))
    for k, (prefix, size) in enumerate(inputs.graphs):
        what = f"graph {prefix!r} size {size}"
        item(f"graph{k}", what, 3, lambda: graph(k, prefix, size, what))
    return {"gate": gate, "items": items, "samples": samples}
