"""Independent oracles used to derive and cross-check expected values.

Everything here computes by a different route from the library code it
checks: the partition counter uses the pentagonal-number recurrence, hook
data is read off bead pairs of the display or scanned node by node through
the conjugate (the node route the (t, arm, r) walk is compared with), a
node is added and a rim hook removed by editing the parts list, column
growth works through the conjugate, dominance is the raw prefix-sum comparison, the crystal
node order compares two nodes through the arm value A_t itself, the
signed nodes of a signature are read off Partition's node lists and reduced
apart from the walk that sorts them, the crystal walk takes one public operator per node where the library moves
whole strings, each operator checking the partition it is given in full,
A-regularity and (E, Y)-regularity and restrictedness read every hook
of length divisible by the modulus off hooks_divisible_by, where the library
tests one cell per arm A_t,
the node count per ladder keys each node by its own ladder_id call and is
also read back off ladders.fingerprint's integer key block by block, the
splitting report rebuilds every half for each u, places it by
renumbering each bead on its own and tests separation by a scan of
every bead, with no table of places, the regularisation
and Mullineux loops find each step's scale by a walk of the E-abacus and
each round's slope from the set of all slopes, each move encodes and
decodes its partition and finds its beads by a sorted scan of the bead
set, the arm-sequence axiom is tested pair by pair, the
crystal graph is searched breadth-first with one such reference walk per
vertex and residue, a chain walks its prefixes one validated ArmPrefix per
Farey slope, applies its regularisation or restrictisation at every step
and checks every image in full, e-quotient separation is a scan of the
bead set for each runner's last bead and first gap, and the Paget
instances are found by decoding every display of the runner product and
filtering it with that scan and the public restrictedness test.  The
e-quotient and a display's bead set from runner components are also built
one runner at a time, as the abacus layer did before it bucketed beads in
one pass.  The seeded partitions of the
large-n tests are drawn here too, by random cuts of n.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import ceil

from regcrystals.abacus import _classes, from_runners
from regcrystals.crystals import ArmPrefix, CrystalGraph, e_op, f_op
from regcrystals.ladders import LadderParams, hooks_divisible_by, ladder_id, regularise, restrictise
from regcrystals.mullineux import mullineux, slopes
from regcrystals.partitions import Hook, Partition, beta_numbers, enumerate_partitions, from_beta_numbers


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def dominates_by_prefix_sums(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Literal prefix-sum comparison on raw part tuples of equal sum."""
    assert sum(a) == sum(b)
    acc_a = acc_b = 0
    for r in range(max(len(a), len(b))):
        acc_a += a[r] if r < len(a) else 0
        acc_b += b[r] if r < len(b) else 0
        if acc_a < acc_b:
            return False
    return True


def hook_data_by_beads(la: Partition) -> list[tuple[int, int, int]]:
    """Sorted (length, arm, leg) triples read off bead pairs.

    A hook corresponds to an occupied position b with an empty position
    g < b; its length is b - g, its arm the number of empty positions
    strictly between g and b, and its leg the number of occupied ones.
    """
    n = len(la.parts)
    occ = {la.part(r) + n - r for r in range(1, n + 1)}
    out = []
    for b in occ:
        for g in range(b):
            if g in occ:
                continue
            between = list(range(g + 1, b))
            arm = sum(1 for p in between if p not in occ)
            leg = sum(1 for p in between if p in occ)
            out.append((b - g, arm, leg))
    return sorted(out)


def hooks_by_node_scan(la: Partition) -> list[Hook]:
    """All hooks, one per node, in row-major order, each node's arm read off
    its row and its leg off the conjugate's column."""
    conj = la.conjugate().parts
    out = []
    for r, row_len in enumerate(la.parts, start=1):
        for c in range(1, row_len + 1):
            arm = row_len - c
            leg = conj[c - 1] - r
            out.append(Hook((r, c), arm + leg + 1, arm, leg, (r, row_len), (conj[c - 1], c)))
    return out


def node_route_hooks(la, m):
    """(t, arm, r) of the hooks of length m*t in row r, read off the
    node-by-node scan."""
    hooks = hooks_by_node_scan(la)
    return sorted((h.length // m, h.arm, h.corner[0]) for h in hooks if h.length % m == 0)


def add_node(la: Partition, node) -> Partition:
    """la with the addable node (row, column) added, by editing its parts."""
    if node not in la.addable_nodes():
        raise ValueError(f"{node} is not an addable node of {la.parts}")
    parts = list(la.parts)
    r = node[0]
    if r == len(parts) + 1:
        parts.append(1)
    else:
        parts[r - 1] += 1
    return Partition(parts)


def remove_rim_hook_by_rows(la: Partition, corner) -> Partition:
    """The partition left when the rim hook of the hook at corner = (r, c)
    is removed, row by row: with leg L, row s takes the old row s + 1 less
    one node for r <= s < r + L, and row r + L keeps c - 1 nodes."""
    r, c = corner
    parts = list(la.parts)
    leg = sum(1 for p in parts[r:] if p >= c)
    rows = [parts[s] - 1 for s in range(r, r + leg)] + [c - 1]
    return Partition([p for p in parts[:r - 1] + rows + parts[r + leg:] if p])


def grow_columns_by_conjugate(la: Partition, m: int, e: int) -> Partition:
    """Column route: add e to each of the first m parts of the conjugate."""
    conj = la.conjugate()
    taller = [conj.part(r) + e for r in range(1, m + 1)] + list(conj.parts[m:])
    return Partition(taller).conjugate()


def node_compare(prefix, a, b) -> int:
    """-1, 0 or 1: the total order on nodes of equal residue.

    With (s - r) + (c - d) = e*t oriented so t >= 0, the node (r, c)
    precedes (s, d) exactly when c - d <= A_t (A_0 read as 0).
    """
    if a == b:
        return 0
    (r, c), (s, d) = a, b
    diff = (s - r) + (c - d)
    if diff % prefix.e:
        raise ValueError(f"nodes {a} and {b} differ in residue mod {prefix.e}")
    if diff < 0:
        return -node_compare(prefix, b, a)
    t = diff // prefix.e
    return -1 if c - d <= (prefix.values[t - 1] if t else 0) else 1


def arm_axioms_hold(e: int, values) -> bool:
    """True if every value lies in [t - 1, (e - 1)t] and every pair has
    A_{t+u} - A_t - A_u in {0, 1}; otherwise ValueError naming the first
    value out of bounds, or else the first failing pair (t, u) with t
    outermost, in the words ArmPrefix uses."""
    vals = tuple(values)
    for t, v in enumerate(vals, start=1):
        if not t - 1 <= v <= (e - 1) * t:
            raise ValueError(f"A_{t} = {v} outside [{t - 1}, {(e - 1) * t}]")
    n = len(vals)
    for t in range(1, n):
        for u in range(1, n - t + 1):
            gap = vals[t + u - 1] - vals[t - 1] - vals[u - 1]
            if gap not in (0, 1):
                raise ValueError(f"A_{t + u} - A_{t} - A_{u} = {gap} violates the arm-sequence axiom")
    return True


def signed_nodes_by_walk(parts, prefix, i=None) -> dict:
    """The unreduced signatures that crystals._signed_nodes reduces in its
    walk: residue -> [(node, sign), ...], the addable ('+') and removable
    ('-') nodes of residue i (every residue when i is None), read off
    Partition's own node lists and sorted descending by the key
    (Y*r + (E - Y)*c, r - c) of the prefix slope y = Y / (E/e)."""
    la, e, y = Partition(parts), prefix.e, prefix.slope
    wr, wc = y.numerator, e * y.denominator - y.numerator
    nodes = [(nd, "+") for nd in la.addable_nodes()] + [(nd, "-") for nd in la.removable_nodes()]
    nodes.sort(key=lambda item: (wr * item[0][0] + wc * item[0][1], item[0][0] - item[0][1]), reverse=True)
    signed = {}
    for (r, c), sign in nodes:
        if i is None or (c - r) % e == i:
            signed.setdefault((c - r) % e, []).append(((r, c), sign))
    return signed


def by_rows(signed) -> list:
    """The (row, sign) pairs of (node, sign) pairs: crystals._signed_nodes
    names a node by its row, which with the sign fixes it."""
    return [(node[0], sign) for node, sign in signed]


def reduce_signature(signed) -> tuple[list, list]:
    """The items of the '-' and of the '+' signs, in order, that survive
    deleting adjacent '+-' pairs to a fixpoint from the (item, sign) pairs."""
    minus, plus = [], []
    for item, sign in signed:
        if sign == "+":
            plus.append(item)
        elif plus:
            plus.pop()
        else:
            minus.append(item)
    return minus, plus


def is_A_regular_by_hooks(la, prefix) -> bool:
    """crystals.is_A_regular by the hook walk: no hook of length e*t, among
    all those hooks_divisible_by lists, has arm A_t."""
    arms = prefix.values
    return all(arm != arms[t - 1] for t, arm, _ in hooks_divisible_by(la, prefix.e))


def is_regular_by_hooks(la, params) -> bool:
    """ladders.is_regular by the hook walk: no hook of length E*t has arm Y*t - 1."""
    return all(arm != params.Y * t - 1 for t, arm, _ in hooks_divisible_by(la, params.E))


def is_restricted_by_hooks(la, params) -> bool:
    """ladders.is_restricted by the hook walk: no hook of length E*t has arm Y*t."""
    return all(arm != params.Y * t for t, arm, _ in hooks_divisible_by(la, params.E))


def build_graph_by_search(prefix, max_size=None) -> CrystalGraph:
    """crystals.build_graph breadth-first from the empty partition: one
    one-residue reference walk (signed_nodes_by_walk) and reduction per
    vertex and residue, one Partition per edge target, and each new vertex
    checked in full by the hook walk; vertices and edges are sorted at the
    end."""
    bound = prefix.bound if max_size is None else max_size
    vertices = [Partition()]
    reached = {vertices[0]}
    edges = []
    for la in vertices:
        if la.size == bound:
            continue
        for i in range(prefix.e):
            plus = reduce_signature(signed_nodes_by_walk(la.parts, prefix, i).get(i, ()))[1]
            if not plus:
                continue
            parts, (r, _) = list(la.parts), plus[0]
            if r <= len(parts):
                parts[r - 1] += 1
            else:
                parts.append(1)
            mu = Partition(parts)
            if mu not in reached:
                assert is_A_regular_by_hooks(mu, prefix), f"operator left the A-regular set: {la} -{i}-> {mu}"
                reached.add(mu)
                vertices.append(mu)
            edges.append((la, i, mu))
    vertices.sort(key=lambda p: (p.size, p.parts))
    edges.sort(key=lambda t: (t[0].size, t[0].parts, t[1]))
    return CrystalGraph(prefix, bound, tuple(vertices), tuple(edges))


def peel_and_rebuild_by_operators(la, src, dst, order, sign):
    """The map of mullineux.peel_and_rebuild by another path, one e_op/f_op
    call and one Partition per node: peel one node at the first residue in
    order with a good node, then rebuild in dst at the residues sign*i mod e,
    last peeled first.  peel_and_rebuild removes whole strings, so its path
    to the empty partition differs; the crystal is connected from there, so
    both paths have the same image."""
    peeled = []
    while la:
        i, la = next((i, mu) for i in order if (mu := e_op(la, src, i)) is not None)
        peeled.append(sign * i % src.e)
    for i in reversed(peeled):
        la = f_op(la, dst, i)
        assert la is not None, f"no cogood {i}-node"
    return la


def descending_prefixes(a, b):
    """The prefixes from a down to b, each the prefix ceil(y*t - 1) of the
    last one's slope y, each built and validated as an ArmPrefix: the Farey
    walk of order n as a walk of prefixes.

    A valid prefix of length n is fixed by its slope (A_t = floor(y*t)), and
    its values rise with the slope, so b is reached when the slopes agree and
    passed when the slope falls below b's.
    """
    prefixes = [a]
    while (y := prefixes[-1].slope) != b.slope:
        nxt = ArmPrefix(a.e, [ceil(y * t - 1) for t in range(1, a.n + 1)])
        if nxt.slope < b.slope:
            raise AssertionError("chain step descended past the target prefix")
        prefixes.append(nxt)
    return tuple(prefixes)


def chain_steps_by_step(la, chain):
    """crystals.chain_steps from the walk of descending_prefixes, with no
    step loop kept across steps: every step regularises (or, on an inverse
    chain, restrictises) la at the slope of its prefix, moved or not, and
    checks the image A-regular for the prefix the step reaches by a walk of
    its own, the hook walk."""
    if not is_A_regular_by_hooks(la, chain.source):
        raise ValueError(f"{la.parts} is not regular for the chain source")
    upper, lower = (chain.target, chain.source) if chain.inverse else (chain.source, chain.target)
    prefixes = descending_prefixes(upper, lower)
    # the step at the slope of each prefix but the last carries it to the next
    steps = [(LadderParams(p.e, p.slope), p, q) for p, q in zip(prefixes, prefixes[1:])]
    op, checks = regularise, [(params, q) for params, _, q in steps]
    if chain.inverse:
        op, checks = restrictise, [(params, p) for params, p, _ in reversed(steps)]
    for params, target in checks:
        la = op(la, params)
        if not is_A_regular_by_hooks(la, target):
            raise ValueError(f"chain left the regular set at {params!r}")
        yield params, la


def fingerprint_by_ladder_id(la, params) -> Counter:
    """Node count of la per ladder, each node keyed by one ladder_id call."""
    return Counter(
        ladder_id((r, c), params)
        for r, row_len in enumerate(la.parts, start=1)
        for c in range(1, row_len + 1)
    )


def random_partition(rng, n):
    """A seeded partition of n: random cuts of n into between 1 and 2*sqrt(n) rows."""
    rows = rng.randint(1, 2 * int(n ** 0.5))
    cuts = sorted(rng.sample(range(1, n), rows - 1))
    return Partition(sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True))


def fingerprint_from_class_key(key, params) -> Counter:
    """The node count per ladder that an integer class key (ladders.fingerprint)
    stands for: key k covers the ladders (k // Y, s) for s = 1..(k % Y or Y)."""
    ym = params.Y
    return Counter((k // ym, s) for k in key for s in range(1, (k % ym or ym) + 1))


def to_global(local, e, residues) -> set[int]:
    """Inverse of abacus.to_local: the k-th position whose residue is in
    the set, for each k, with the residues checked as to_local checks them."""
    return _to_global(local, e, _classes(e, residues))


def _to_global(local, e, res) -> set[int]:
    """to_global for residues already sorted and checked: each position
    renumbered on its own, with no table of places."""
    c = len(res)
    return {(k // c) * e + res[k % c] for k in local}


def separated_by_scan(occ, ctx) -> bool:
    """I-separation of an n-bead set by a scan of every bead: the last
    complement bead, then every I-position below it."""
    e, res = ctx.e, ctx.residues
    last_bar = max((p for p in occ if p % e not in res), default=-1)
    return all(p in occ for p in range(last_bar) if p % e in res)


def combined_beads_by_renumbering(beta, gamma, ctx, u) -> set[int]:
    """The n-bead set with beta on u beads of I and gamma on the n - u
    beads of the complement, each half encoded and renumbered bead by bead
    through _to_global."""
    on_i = _to_global(beta_numbers(beta, u), ctx.e, sorted(ctx.residues))
    bar = [i for i in range(ctx.e) if i not in ctx.residues]
    return on_i | _to_global(beta_numbers(gamma, ctx.n - u), ctx.e, bar)


def split_report_oracle(alpha, beta, gamma, ctx, u) -> tuple:
    """The fields (verdict, la, mu, la_separated, mu_separated,
    mullineux_image) of the splitting-theorem report, built from scratch for
    u: both partitions placed by combined_beads_by_renumbering from halves
    made here, separation by separated_by_scan on those bead sets, and
    m_e(la') when both are separated."""
    c, cb = ctx.c, ctx.c_bar
    rows = range(max(len(alpha), len(gamma)))
    la_ibar = Partition(cb * alpha.part(r + 1) + gamma.part(r + 1) for r in rows)
    mu_i = list(mullineux(beta.conjugate(), c).parts)
    for p in alpha.conjugate().parts:
        mu_i += [p] * c
    la_occ = combined_beads_by_renumbering(beta, la_ibar, ctx, u)
    mu_occ = combined_beads_by_renumbering(
        Partition(sorted(mu_i, reverse=True)), mullineux(gamma.conjugate(), cb), ctx, u
    )
    la, mu = from_beta_numbers(la_occ), from_beta_numbers(mu_occ)
    la_sep, mu_sep = separated_by_scan(la_occ, ctx), separated_by_scan(mu_occ, ctx)
    if not (la_sep and mu_sep):
        return "hypothesis-not-met", la, mu, la_sep, mu_sep, None
    image = mullineux(la.conjugate(), ctx.e)
    return "holds" if image == mu else "falsified", la, mu, la_sep, mu_sep, image


def paget_instances_by_filter(e: int, quotient_bound: int) -> list[Partition]:
    """The partitions the paget suite tests at modulus e, in its order: for
    each d in [-2, 2]^e summing to 0, every display with quotient_bound + 3 +
    d_i beads on runner i whose components have size at most quotient_bound,
    decoded in product order and kept when it is e-restricted and
    e-quotient separated by the bead scan."""
    components = [p for s in range(quotient_bound + 1) for p in enumerate_partitions(s)]
    found = []
    for deltas in product(range(-2, 3), repeat=e):
        if sum(deltas):
            continue
        counts = [quotient_bound + 3 + d for d in deltas]
        for quot in product(components, repeat=e):
            la = from_runners(quot, counts)
            if la.is_e_restricted(e) and quotient_separated_by_beads(la, e):
                found.append(la)
    return found


def quotient_separated_by_beads(la: Partition, e: int) -> bool:
    """e-quotient separation scanned on a display of la with a multiple of e
    beads: for runners k before l in sigma order (bead count, then runner),
    the last bead on k comes before the first gap on l."""
    occ = beta_numbers(la, (len(la) // e + 1) * e)
    counts = [sum(1 for p in occ if p % e == i) for i in range(e)]
    sigma = sorted(range(e), key=lambda i: (counts[i], i))
    last_bead = [max((p for p in occ if p % e == i), default=-1) for i in range(e)]
    first_gap = [next(p for p in count(i, e) if p not in occ) for i in range(e)]
    return all(last_bead[sigma[k]] < first_gap[sigma[l]] for k in range(e) for l in range(k + 1, e))


def largest_singular_t(la, em: int, ym: int) -> int | None:
    """Largest t such that la has a hook of length em*t with arm ym*t - 1."""
    return max((t for t, arm, _ in hooks_divisible_by(la, em) if arm == ym * t - 1), default=None)


def largest_singular_position(la, em: int, ym: int) -> int | None:
    """The largest occupied position b of la's bead set (one bead per row)
    with b - em empty and exactly ym empty positions in [b - em, b]."""
    occ = beta_numbers(la, len(la))

    def empties_in(lo: int, hi: int) -> int:
        return sum(1 for p in range(lo, hi + 1) if p not in occ)

    singular = (b for b in occ if b >= em and b - em not in occ and empties_in(b - em, b) == ym)
    return max(singular, default=None)


def top_hook_by_hooks(occ, e: int, p: int, q: int) -> tuple[int, int, int] | None:
    """ladders._top_hook by its documented rule, over the hooks of the
    decoded partition: of the hooks of length e*t with slope (arm + 1)/t in
    [1, p/q], the largest slope, then the largest t, then the highest bead
    la_r + n - r on the n = len(occ) beads; (arm + 1, t, bead) or None."""
    la, n = from_beta_numbers(occ), len(occ)
    hooks = [(Fraction(arm + 1, t), t, la.part(r) + n - r, arm + 1) for t, arm, r in hooks_divisible_by(la, e)]
    fits = [hook for hook in hooks if 1 <= hook[0] <= Fraction(p, q)]
    if not fits:
        return None
    _, t, bead, a = max(fits)
    return a, t, bead


def abacus_step_by_scan(occ: set[int], em: int, ym: int, b: int) -> int:
    """ladders._abacus_step, in place on occ, with the beads b_i read off a
    sorted scan of every bead of occ above b - em in the class union F, and
    the empty positions t_i collected until there are as many as beads, d
    found afterwards among them."""
    classes = {p % em for p in range(b - em, b + 1) if p not in occ}
    bs = sorted(p for p in occ if p > b - em and p % em in classes)
    assert bs and bs[0] == b
    m = len(bs)
    ts: list[int] = []
    p = b + 1
    while len(ts) < m:
        if p not in occ and p % em not in classes:
            ts.append(p)
        p += 1
    d = next(i for i in range(1, m + 1) if i == m or ts[i - 1] < bs[i])
    for i in range(d):
        assert bs[i] in occ and bs[i] - em not in occ
        occ.remove(bs[i])
        occ.add(bs[i] - em)
        assert ts[i] - em in occ and ts[i] not in occ
        occ.remove(ts[i] - em)
        occ.add(ts[i])
    return d


def abacus_move(la: Partition, em: int, ym: int, r: int) -> Partition:
    """One regularisation move at integer parameters (em, ym) on la, from
    the bead of row r, assuming the singular hooks of la at these parameters
    all have t = 1: la's bead set is encoded, moved by abacus_step_by_scan
    and decoded."""
    occ = beta_numbers(la, len(la))
    abacus_step_by_scan(occ, em, ym, la.parts[r - 1] + len(la) - r)
    kappa = from_beta_numbers(occ)
    assert kappa != la
    return kappa


def regularise_steps_by_scale(la, params):
    """ladders.regularise_steps with each step's scale t found by a walk of
    the E-abacus for the singular hooks, and its bead by a scan for the
    largest singular position, the move taken at (E*t, Y*t)."""
    while (t := largest_singular_t(la, params.E, params.Y)) is not None:
        em, ym = params.E * t, params.Y * t
        b = largest_singular_position(la, em, ym)
        r = sorted(beta_numbers(la, len(la)), reverse=True).index(b) + 1
        la = abacus_move(la, em, ym, r)
        yield la


def restrictise_steps_by_scale(la, params):
    """ladders.restrictise_steps through regularise_steps_by_scale."""
    for kappa in regularise_steps_by_scale(la.conjugate(), params.conjugate_params()):
        yield kappa.conjugate()


def mullineux_steps_by_rounds(la, e):
    """mullineux.mullineux_steps for an e-regular la, e >= 2, round by round:
    each round's slope is the largest of slopes(mu, e) in [1, x], and the
    round regularises at it by regularise_steps_by_scale."""
    mu, x = la.conjugate(), Fraction(e - 1)
    while active := [s for s in slopes(mu, e) if 1 <= s <= x]:
        x = max(active)
        for mu in regularise_steps_by_scale(mu, LadderParams(e, x)):
            pass
        yield x, mu


def quotient_runner_by_runner(occ: set[int], e: int) -> list[Partition]:
    """abacus._quotient with one pass over the bead set per runner."""
    return [from_beta_numbers({p // e for p in occ if p % e == i}) for i in range(e)]


def runner_beads_by_runner_sets(quotient, counts) -> set[int]:
    """abacus._runner_beads from one beta-number set per runner."""
    e = len(quotient)
    return {i + e * k for i, (q, u) in enumerate(zip(quotient, counts)) for k in beta_numbers(q, u)}
