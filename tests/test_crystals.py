from fractions import Fraction

import pytest

from regcrystals import crystals as cr
from regcrystals import ladders as ld
from regcrystals import verify
from regcrystals.crystals import ArmPrefix
from regcrystals.partitions import Partition, enumerate_partitions, parse_partition

P = parse_partition


def all_up_to(n):
    for s in range(n + 1):
        yield from enumerate_partitions(s)


class TestArmValues:
    def test_integer_slope(self):
        assert [cr.arm_plus(2, t) for t in range(1, 5)] == [2, 4, 6, 8]
        assert [cr.arm_minus(2, t) for t in range(1, 5)] == [1, 3, 5, 7]
        assert [cr.arm_minus(1, t) for t in range(1, 6)] == [0, 1, 2, 3, 4]

    def test_figure_slopes(self):
        assert [cr.arm_plus(Fraction(7, 4), t) for t in range(1, 5)] == [1, 3, 5, 7]
        assert [cr.arm_minus(Fraction(7, 4), t) for t in range(1, 5)] == [1, 3, 5, 6]
        assert [cr.arm_plus(Fraction(5, 3), t) for t in range(1, 5)] == [1, 3, 5, 6]
        assert [cr.arm_minus(Fraction(5, 3), t) for t in range(1, 5)] == [1, 3, 4, 6]
        assert [cr.arm_plus(Fraction(3, 2), t) for t in range(1, 5)] == [1, 3, 4, 6]
        assert [cr.arm_minus(Fraction(3, 2), t) for t in range(1, 5)] == [1, 2, 4, 5]


class TestArmPrefix:
    def test_axioms_enforced(self):
        with pytest.raises(ValueError):
            ArmPrefix(4, (4,))  # above (e-1)t
        with pytest.raises(ValueError):
            ArmPrefix(4, (2, 6))  # gap of 2
        with pytest.raises(ValueError):
            ArmPrefix(4, (1, 0))  # below t-1

    def test_from_slope_matches_values(self):
        assert ArmPrefix.from_slope(4, 2, 4, "+").values == (2, 4, 6, 8)
        assert ArmPrefix.from_slope(4, Fraction(3, 2), 4, "-").values == (1, 2, 4, 5)

    def test_arm_zero(self):
        assert ArmPrefix(4, (2, 4)).arm(0) == 0

    def test_prefix_exceeded(self):
        with pytest.raises(ValueError):
            ArmPrefix(4, (2, 4)).arm(3)


TABLE_PREFIXES = {
    0: ArmPrefix(4, (0, 1, 2)),
    2: ArmPrefix(4, (2, 5, 7)),
    3: ArmPrefix(4, (3, 6, 9)),
}


class TestNodeOrder:
    def test_table_orders(self):
        la_nodes = [(1, 5), (2, 2), (5, 1)]
        expected = {
            0: [(1, 5), (2, 2), (5, 1)],
            2: [(5, 1), (1, 5), (2, 2)],
            3: [(5, 1), (2, 2), (1, 5)],
        }
        for a1, prefix in TABLE_PREFIXES.items():
            pairs = cr._signed_i_nodes(P("5,2,1,1"), prefix, 0)
            assert [nd for nd, _ in pairs] == expected[a1]
            assert set(nd for nd, _ in pairs) == set(la_nodes)

    def test_equal_nodes(self):
        prefix = ArmPrefix(4, (2,))
        assert cr.node_compare(prefix, (2, 2), (2, 2)) == 0

    def test_antisymmetry(self):
        prefix = ArmPrefix(4, (2, 5))
        for a in ((1, 5), (2, 2), (5, 1), (3, 3)):
            for b in ((1, 5), (2, 2), (5, 1), (3, 3)):
                assert cr.node_compare(prefix, a, b) == -cr.node_compare(prefix, b, a)

    def test_residue_mismatch(self):
        with pytest.raises(ValueError):
            cr.node_compare(ArmPrefix(4, (2,)), (1, 1), (1, 2))


class TestSignatures:
    def test_table_signatures(self):
        la = P("5,2,1,1")
        expected = {0: ("--+", "--+"), 2: ("+--", "-"), 3: ("+--", "-")}
        for a1, prefix in TABLE_PREFIXES.items():
            sig = cr.i_signature(la, prefix, 0)
            assert sig == expected[a1][0]
            assert cr.reduce_signature(sig) == expected[a1][1]

    def test_reduce(self):
        assert cr.reduce_signature("+-") == ""
        assert cr.reduce_signature("++--") == ""
        assert cr.reduce_signature("-+-+") == "-+"
        assert cr.reduce_signature("") == ""

    def test_reduce_rejects_garbage(self):
        with pytest.raises(ValueError):
            cr.reduce_signature("+x")


class TestOperators:
    def test_table_operators(self):
        la = P("5,2,1,1")
        expected = {
            0: (P("5,1,1,1"), P("5,2,1,1,1")),
            2: (P("5,1,1,1"), None),
            3: (P("4,2,1,1"), None),
        }
        for a1, prefix in TABLE_PREFIXES.items():
            assert cr.e_op(la, prefix, 0) == expected[a1][0]
            assert cr.f_op(la, prefix, 0) == expected[a1][1]

    def test_empty_has_no_removals(self):
        prefix = ArmPrefix(3, (0, 1))
        for i in range(3):
            assert cr.e_op(Partition(), prefix, i) is None

    def test_non_regular_rejected(self):
        prefix = ArmPrefix(3, (0, 1))  # slope-1 minus: 3-regular partitions
        with pytest.raises(ValueError):
            cr.e_op(P("2,2,2"), prefix, 0)

    def test_checked_partition_admits_no_other(self):
        # e_op/f_op remember the last partition they verified; any other
        # partition of the prefix is still tested
        prefix = ArmPrefix.from_slope(3, 1, 3, "-")
        regular = P("3,1")
        for la in all_up_to(prefix.bound - 1):
            if cr.is_A_regular(la, prefix):
                continue
            for op in (cr.e_op, cr.f_op):
                cr.e_op(regular, prefix, 0)
                assert prefix._checked is regular
                with pytest.raises(ValueError):
                    op(la, prefix, 0)
                with pytest.raises(ValueError):
                    op(Partition(la.parts), prefix, 1)

    def test_adjointness(self):
        for prefix in (ArmPrefix(3, (0, 1, 2)), ArmPrefix(3, (2, 4, 6)), ArmPrefix(4, (2, 5, 7))):
            bound = prefix.bound
            for la in all_up_to(bound):
                if not cr.is_A_regular(la, prefix):
                    continue
                for i in range(prefix.e):
                    down = cr.e_op(la, prefix, i)
                    if down is not None:
                        assert cr.f_op(down, prefix, i) == la
                    if la.size < bound:
                        up = cr.f_op(la, prefix, i)
                        if up is not None:
                            assert cr.e_op(up, prefix, i) == la


class TestARegular:
    def test_example_prefix_families(self):
        la = P("5,2,1,1")
        assert cr.is_A_regular(la, ArmPrefix(4, (0, 1, 2)))
        assert cr.is_A_regular(la, ArmPrefix(4, (2, 5, 7)))
        assert cr.is_A_regular(la, ArmPrefix(4, (3, 6, 9)))
        assert not cr.is_A_regular(la, ArmPrefix(4, (1, 3, 5)))
        assert not cr.is_A_regular(la, ArmPrefix(4, (2, 4, 6)))

    def test_empty_always_regular(self):
        assert cr.is_A_regular(Partition(), ArmPrefix(5, (0,)))

    def test_slope_one_minus_is_e_regular(self):
        for e in (2, 3, 4):
            prefix = ArmPrefix.from_slope(e, 1, 4, "-")
            for la in all_up_to(min(12, prefix.bound)):
                assert cr.is_A_regular(la, prefix) == la.is_e_regular(e)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            cr.is_A_regular(P("5,4"), ArmPrefix(4, (2,)))


class TestGraphs:
    def test_empty_vertex_out_degree(self):
        graph = cr.build_graph(ArmPrefix(3, (1, 2)))
        outgoing = [e for e in graph.edges if e[0] == Partition()]
        assert len(outgoing) == 1 and outgoing[0][1] == 0

    def test_prefix_determines_graph(self):
        direct = cr.build_graph(ArmPrefix(4, (2, 4, 6, 8)))
        via_slope = cr.build_graph(ArmPrefix.from_slope(4, 2, 4, "+"))
        assert direct.vertices == via_slope.vertices
        assert direct.edges == via_slope.edges

    def test_layer_counts_agree(self):
        for e in (3, 4):
            base = None
            for y, variant in ((1, "-"), (e - 1, "+"), (Fraction(2 * e - 3, 2), "-")):
                graph = cr.build_graph(ArmPrefix.from_slope(e, y, 3, variant))
                layers = {}
                for v in graph.vertices:
                    layers[v.size] = layers.get(v.size, 0) + 1
                if base is None:
                    base = layers
                assert layers == base

    def test_negative_size_bound_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            cr.build_graph(ArmPrefix(3, (0, 1)), -1)

    def test_dot_output_stable(self):
        graph = cr.build_graph(ArmPrefix(2, (1, 2)))
        dot = cr.to_dot(graph)
        assert dot == cr.to_dot(graph)
        assert dot.startswith("digraph crystal {")
        assert '"-" -> "1" [label="0"];' in dot


def filter_route_graph(prefix, bound):
    """Vertices and f-edges found by enumerating every partition up to bound."""
    vertices = [la for la in all_up_to(bound) if cr.is_A_regular(la, prefix)]
    edges = [
        (la, i, cr.f_op(la, prefix, i))
        for la in vertices
        if la.size < bound
        for i in range(prefix.e)
    ]
    return set(vertices), {edge for edge in edges if edge[2] is not None}


@pytest.mark.parametrize(
    "prefix, max_size",
    [(p, None) for p in verify._CRYSTAL_PREFIXES] + [(verify._CRYSTAL_PREFIXES[4], 8)],
)
def test_search_graph_equals_filter_route(prefix, max_size):
    graph = cr.build_graph(prefix, max_size)
    bound = prefix.bound if max_size is None else max_size
    vertices, edges = filter_route_graph(prefix, bound)
    assert graph.bound == bound
    assert set(graph.vertices) == vertices and len(graph.vertices) == len(vertices)
    assert set(graph.edges) == edges and len(graph.edges) == len(edges)
    assert list(graph.vertices) == sorted(vertices, key=lambda p: (p.size, p.parts))


class TestChains:
    def test_figure_chain(self):
        chain = cr.iso_chain(ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5)))
        assert [p.pair() for p in chain.steps] == [(4, 2), (16, 7), (12, 5), (8, 3)]
        assert not chain.inverse

    def test_recomputed_chain(self):
        chain = cr.iso_chain(ArmPrefix(3, (2, 4, 6)), ArmPrefix(3, (0, 1, 2)))
        assert [p.pair() for p in chain.steps] == [(3, 2), (9, 5), (6, 3), (9, 4), (3, 1)]

    def test_identity_chain(self):
        a = ArmPrefix(3, (1, 2))
        chain = cr.iso_chain(a, a)
        assert chain.steps == ()
        assert cr.apply_chain(P("2"), chain) == P("2")

    def test_figure_images(self):
        chain = cr.iso_chain(ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5)))
        la = P("4,3^2,2,1^4")
        first = ld.regularise(la, chain.steps[0])
        assert first == P("5,4,2,1^5")
        assert cr.apply_chain(la, chain) == P("6,4,2,1^4")

    def test_inverse_chain_roundtrip(self):
        a = ArmPrefix(4, (2, 4, 6, 8))
        b = ArmPrefix(4, (1, 2, 4, 5))
        forward = cr.iso_chain(a, b)
        backward = cr.iso_chain(b, a)
        assert backward.inverse
        for la in all_up_to(10):
            if not cr.is_A_regular(la, a):
                continue
            image = cr.apply_chain(la, forward)
            assert cr.apply_chain(image, backward) == la

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_chain_steps_end_at_apply_chain(self, inverse):
        a, b = ArmPrefix(4, (2, 4, 6, 8)), ArmPrefix(4, (1, 2, 4, 5))
        chain = cr.iso_chain(b, a) if inverse else cr.iso_chain(a, b)
        op, order = (ld.restrictise, chain.steps[::-1]) if inverse else (ld.regularise, chain.steps)
        checked = 0
        for la in all_up_to(10):
            if not cr.is_A_regular(la, chain.source):
                continue
            steps = list(cr.chain_steps(la, chain))
            assert len(steps) == len(chain.steps)
            assert tuple(params for params, _ in steps) == order
            image = la
            for params, mu in steps:
                image = op(image, params)
                assert mu == image
            assert steps[-1][1] == cr.apply_chain(la, chain)
            checked += 1
        assert checked > 0

    def test_incompatible_prefixes(self):
        with pytest.raises(ValueError):
            cr.iso_chain(ArmPrefix(3, (1, 2)), ArmPrefix(4, (1, 2)))

    def test_source_regularity_checked(self):
        chain = cr.iso_chain(ArmPrefix(3, (2, 4, 6)), ArmPrefix(3, (0, 1, 2)))
        with pytest.raises(ValueError):
            cr.apply_chain(P("3"), chain)  # has a 3-hook with arm 2
        with pytest.raises(ValueError, match="not regular for the chain source"):
            cr.apply_chain(P("3"), cr.iso_chain(chain.source, chain.source))
