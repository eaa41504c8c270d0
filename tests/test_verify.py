import sys
from collections import Counter
from fractions import Fraction

import pytest

from oracles import fingerprint_by_ladder_id, fingerprint_from_class_key, paget_instances_by_filter
from regcrystals import abacus as ab
from regcrystals import ladders as ld
from regcrystals import partitions
from regcrystals import separation as sp
from regcrystals import verify
from regcrystals.mullineux import lyle_check
from regcrystals.partitions import Partition
from regcrystals.verify import iter_suites, run_suites


# Each suite at a small bound, with the instance count of each property
# there: a change in what the suite checks moves them.
CASES = [
    ("ladder", 7, None, {
        "depth_and_residue_classify_ladders": 103680,
        "regularise_is_unique_class_maximum": 200,
        "restrictise_is_unique_class_minimum": 200,
        "regularise_preserves_fingerprint": 225,
        "regularise_restrictise_idempotent_inverse": 225,
        "bad_count_constant_on_classes": 90,
        "step_ascends_and_preserves_fingerprint": 25,
        "restricted_iff_conjugate_regular_for_conjugate_slope": 225,
    }),
    ("crystal", 10, None, {
        "adjointness": 1362,
        "closure_under_operators": 1362,
        "empty_is_unique_source": 6,
        "edge_labels_match_added_residue": 222,
        "layer_counts_agree_between_prefixes": 6,
        "regularisation_commutes_with_operators": 1086,
        "regularisation_bijects_regular_sets": 33,
        "chain_factorisations_induce_same_map": 270,
    }),
    ("mullineux", 9, None, {
        "algorithm_equals_crystal_oracle": 344,
        "involution": 344,
        "image_is_e_regular_of_same_size": 344,
        "identity_for_e_2": 253,
        "composite_preserves_content_on_restricted": 344,
        "oracle_residue_choice_is_irrelevant": 344,
        "image_shares_e_core": 344,
    }),
    ("core", 6, None, {
        "conjugate_involution": 30,
        "dominance_reversed_by_conjugation": 210,
        "node_removal_inverts_addition": 45,
        "rim_hook_removal_size_drop": 135,
        "regular_iff_conjugate_restricted": 120,
        "abacus_round_trip": 360,
        "conjugate_display_matches_conjugate": 120,
        "equal_content_equal_runner_profile": 160,
        "core_quotient_bead_invariance": 120,
        "core_quotient_size_identity": 120,
        "core_quotient_rebuild": 120,
        "grow_columns_two_routes_agree": 480,
    }),
    ("lyle", 6, None, {
        "dominance_always_holds": 120,
        "equality_iff_all_hooks_steep_or_shallow": 120,
    }),
    ("paget", 4, None, {
        "theorem_on_quotient_separated_partitions": 511,
        "partner_shares_core": 585,
    }),
    ("split", 5, (4,), {
        "split_combine_round_trip": 114,
        "separated_regular_iff_half_restricted": 401,
        "separated_restricted_iff_half_restricted": 401,
        "splitting_theorem": 552,
        "box_step_preserves_cbar_fingerprint": 110,
    }),
]


@pytest.mark.parametrize(
    "suite, max_size, e_values, counts", CASES, ids=[f"{case[0]}-{case[1]}" for case in CASES]
)
def test_suite_passes_at_a_small_bound(suite, max_size, e_values, counts):
    results = run_suites([suite], max_size=max_size, e_values=e_values)
    assert results
    for result in results:
        assert result.ok and result.checked > 0, result.line()
    assert {r.name: r.checked for r in results} == counts


# Instance counts of the split suite at --max 5: a change in what the suite
# checks moves them.  The first three properties run e = 4 and 5 whatever
# the e values are.
SPLIT_COUNTS = {
    (4,): {
        "split_combine_round_trip": 114,
        "separated_regular_iff_half_restricted": 401,
        "separated_restricted_iff_half_restricted": 401,
        "splitting_theorem": 552,
        "box_step_preserves_cbar_fingerprint": 110,
    },
    (3, 5): {
        "split_combine_round_trip": 114,
        "separated_regular_iff_half_restricted": 401,
        "separated_restricted_iff_half_restricted": 401,
        "splitting_theorem": 1844,
        "box_step_preserves_cbar_fingerprint": 372,
    },
}


# Of those, the splitting-theorem instances whose pair is not I-separated:
# they count as checked and test nothing.
SPLIT_SKIPPED = {(4,): 272, (3, 5): 916}


@pytest.mark.parametrize("e_values", list(SPLIT_COUNTS), ids=str)
def test_split_counts_at_max_5(e_values):
    results = run_suites(["split"], max_size=5, e_values=e_values)
    assert all(r.ok for r in results), [r.line() for r in results]
    assert {r.name: r.checked for r in results} == SPLIT_COUNTS[e_values]
    assert {r.name: r.skipped for r in results if r.skipped} == {
        "splitting_theorem": SPLIT_SKIPPED[e_values]
    }
    theorem = next(r for r in results if r.name == "splitting_theorem")
    assert theorem.line() == (
        f"PASS split.splitting_theorem checked={theorem.checked} skipped={SPLIT_SKIPPED[e_values]}"
    )


def test_split_counts_at_e_5_max_8():
    # the first bound past --max 5 at e = 5: pieces of size <= 2
    results = run_suites(["split"], max_size=8, e_values=(5,))
    assert [r.line() for r in results] == [
        "PASS split.split_combine_round_trip checked=402",
        "PASS split.separated_regular_iff_half_restricted checked=1074",
        "PASS split.separated_restricted_iff_half_restricted checked=1074",
        "PASS split.splitting_theorem checked=12670 skipped=6952",
        "PASS split.box_step_preserves_cbar_fingerprint checked=3918",
    ]


def test_box_step_decides_by_class_key_as_fingerprint_does(monkeypatch):
    # the box step compares the fingerprints of the bead sets of (xi, nu),
    # in that order, read off their rows by the kernel ladders._rows_key,
    # and never calls fingerprint on a partition; each verdict is the
    # oracle's node count per ladder's, and each key is its partition's
    # fingerprint and expands to that count
    keyed = []
    real_rows_key, real_fp = ld._rows_key, ld.fingerprint

    def recording(rows, params):
        rows = list(rows)
        key = real_rows_key(rows, params)
        keyed.append((Partition([r for r in rows if r]), params, key))
        return key

    def refused(la, params):
        raise AssertionError("fingerprint called")

    monkeypatch.setattr(ld, "_rows_key", recording)
    monkeypatch.setattr(ld, "fingerprint", refused)
    verdicts = [ok for name, ok, _ in verify.suite_split(8, (4,)) if name == "box_step_preserves_cbar_fingerprint"]
    monkeypatch.undo()
    assert len(keyed) == 2 * len(verdicts) == 2 * 947
    for (xi, params, _), (nu, _, _), ok in zip(keyed[::2], keyed[1::2], verdicts):
        assert ok is (fingerprint_by_ladder_id(xi, params) == fingerprint_by_ladder_id(nu, params)), (xi, nu, params)
    for la, params, key in keyed:
        assert key == real_fp(la, params), (la, params)
        assert fingerprint_from_class_key(key, params) == fingerprint_by_ladder_id(la, params), (la, params)


def test_box_step_failure_prints_nu(monkeypatch):
    # a box step whose tau gains a node in its first row changes xi's size,
    # so the first box step fails; nu is decoded for the message alone, in
    # the parent's text
    real = sp._box_halves

    def grown(nu_i, nu_ibar, c, cb):
        xi_i, tau = real(nu_i, nu_ibar, c, cb)
        return xi_i, Partition([tau.part(1) + 1, *tau.parts[1:]])

    monkeypatch.setattr(sp, "_box_halves", grown)
    lines = [r.line() for r in run_suites(["split"], max_size=8, e_values=(4,))]
    assert lines[-1] == (
        "FAIL split.box_step_preserves_cbar_fingerprint checked=1 counterexample: nu=3,2 I=[0] e=4 u=4"
    )
    assert all(line.startswith("PASS") for line in lines[:-1]), lines


def test_split_slice_decodes_only_in_the_round_trip(monkeypatch):
    # at --e 4 --max 12 the bead sets decoded are split's two halves and
    # combine's partition for each of split_combine_round_trip's 1,632
    # instances, and the conjugate Mullineux images of split_pair's halves;
    # the box step and the iff properties decode nothing (21,304 calls in
    # all before they read bead sets)
    callers = Counter()
    real = partitions.from_beta_numbers

    def counting(occ):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(occ)

    for name, module in list(sys.modules.items()):
        if name.startswith("regcrystals") and getattr(module, "from_beta_numbers", None) is real:
            monkeypatch.setattr(module, "from_beta_numbers", counting)
    results = run_suites(["split"], max_size=12, e_values=(4,))
    assert all(r.ok for r in results), [r.line() for r in results]
    assert callers == {"split": 2 * 1632, "combine": 1632, "_conjugate_image": 168}
    assert callers.total() == 5064


def test_split_builds_each_pair_once_per_c(monkeypatch):
    # at --e 4 --max 12 the pieces have size <= 3: 42 + 175 + 42 triples
    # (alpha, beta, gamma) for c = 1, 2, 3, each built once for all the
    # residue sets of its size, and 222 of them with a box step
    calls = {"split_pair": 0, "box_row": 0, "_box_halves": 0}
    building, outside = [], []  # the split_pair calls running; box_row calls outside any
    for name in calls:
        real = getattr(sp, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            if name == "box_row" and not building:
                outside.append(args)
            if name != "split_pair":
                return real(*args)
            building.append(args)
            try:
                return real(*args)
            finally:
                building.pop()

        monkeypatch.setattr(sp, name, counting)
    results = run_suites(["split"], max_size=12, e_values=(4,))
    assert all(r.ok for r in results), [r.line() for r in results]
    assert calls == {"split_pair": 259, "box_row": 259, "_box_halves": 222}
    assert outside == []
    counts = {r.name: (r.checked, r.skipped) for r in results}
    assert counts["splitting_theorem"] == (15526, 9352)
    assert counts["box_step_preserves_cbar_fingerprint"] == (5110, 0)


def test_mullineux_run_reads_no_image_of_an_earlier_run(monkeypatch):
    # a fault put in after one run shows in the next: no image is kept
    assert all(r.ok for r in run_suites(["mullineux"], max_size=6, e_values=(3,)))
    real = verify._mullineux
    monkeypatch.setattr(
        verify, "_mullineux", lambda la, e: Partition() if la.parts == (3, 1) else real(la, e)
    )
    lines = [r.line() for r in run_suites(["mullineux"], max_size=6, e_values=(3,))]
    assert "FAIL mullineux.algorithm_equals_crystal_oracle checked=8 counterexample: 3,1 e=3" in lines


def test_lyle_run_reads_no_image_of_an_earlier_run(monkeypatch):
    # a fault put in after one run shows in the next: no regularisation is kept
    assert all(r.ok for r in run_suites(["lyle"], max_size=6, e_values=(3,)))
    real = verify.james_regularise
    monkeypatch.setattr(
        verify, "james_regularise", lambda la, e: Partition([2, 2]) if la.parts == (2, 1, 1) else real(la, e)
    )
    # 2,1,1 is first regularised as the conjugate of 3,1
    assert [r.line() for r in run_suites(["lyle"], max_size=6, e_values=(3,))] == [
        "FAIL lyle.dominance_always_holds checked=9 counterexample: 3,1 e=3",
        "FAIL lyle.equality_iff_all_hooks_steep_or_shallow checked=9 counterexample: 3,1 e=3",
    ]


def test_ladder_run_reads_no_image_of_an_earlier_run(monkeypatch):
    # a fault put in after one run shows in the next: no restrictisation is kept
    assert all(r.ok for r in run_suites(["ladder"], max_size=5))
    real = ld.restrictise
    monkeypatch.setattr(ld, "restrictise", lambda la, params: la if la.parts == (3,) else real(la, params))
    failed = [r.line() for r in run_suites(["ladder"], max_size=5) if not r.ok]
    assert failed == [
        "FAIL ladder.restrictise_is_unique_class_minimum checked=5 counterexample: class of 3 at LadderParams(e=3, y=2)",
        "FAIL ladder.regularise_restrictise_idempotent_inverse checked=6 counterexample: 2,1 at LadderParams(e=3, y=2)",
    ]


def counting(monkeypatch, owner, name, calls, bucket=None):
    """Wrap owner.<name> to count its calls in calls, under bucket(*args)
    or the name.  The maps that suites read through per-run tables are
    computed once per distinct input of the run (per e or parameter set),
    whatever the number of instances that read them."""
    real = getattr(owner, name)

    def count(*args):
        key = bucket(*args) if bucket else name
        calls[key] = calls.get(key, 0) + 1
        return real(*args)

    monkeypatch.setattr(owner, name, count)


def test_lyle_computes_each_image_once_per_e(monkeypatch):
    # 2,032 instances (508 partitions for each of 4 e): each regularisation
    # of la and of la' once, and each Mullineux image of la^reg once
    calls = {}
    for name in ("james_regularise", "_mullineux", "_lyle_report"):
        counting(monkeypatch, verify, name, calls)
    assert all(r.ok for r in run_suites(["lyle"]))
    assert calls == {"james_regularise": 2032, "_mullineux": 1094, "_lyle_report": 2032}


def test_lyle_reports_equal_lyle_check(monkeypatch):
    # every (la, e) at default bounds: the suite's report from its tables is
    # the one lyle_check computes for la alone
    reports = []
    real = verify._lyle_report
    monkeypatch.setattr(verify, "_lyle_report", lambda *args: reports.append(real(*args)) or reports[-1])
    assert all(r.ok for r in run_suites(["lyle"]))
    assert len(reports) == 2032
    for report in reports:
        assert report == lyle_check(report.partition, report.e), report


def test_ladder_computes_each_image_once_per_parameter_set(monkeypatch):
    # 695 partitions over the five parameter sets, each regularised and
    # restrictised once, however many class members read its images
    calls = {}
    for name in ("regularise", "restrictise"):
        counting(monkeypatch, ld, name, calls)
    assert all(r.ok for r in run_suites(["ladder"]))
    assert calls == {"regularise": 695, "restrictise": 695}


def test_crystal_commutation_regularises_each_partition_once_per_slope(monkeypatch):
    # the layers' images and the f_i images share one table per (e, y): 703
    # regularisations where the instances read 1,586; the chain block's
    # padding check regularises each of its 446 images once
    sloped = {ld.LadderParams(4, 2), ld.LadderParams(3, Fraction(3, 2)), ld.LadderParams(4, Fraction(5, 3))}
    calls = {}
    counting(monkeypatch, ld, "regularise", calls, lambda la, params: "commutation" if params in sloped else "chain")
    assert all(r.ok for r in run_suites(["crystal"]))
    assert calls == {"commutation": 703, "chain": 446}


def test_split_run_reads_no_pair_of_an_earlier_run(monkeypatch):
    # a fault put in after one run shows in the next: no pair is kept
    assert all(r.ok for r in run_suites(["split"], max_size=8, e_values=(4,)))
    real = sp.box_col
    # a first argument of size 1, as alpha' is for alpha = 1, gains a second row
    monkeypatch.setattr(
        sp, "box_col", lambda alpha, beta, c: real(Partition([1, 1]) if alpha.size == 1 else alpha, beta, c)
    )
    theorem = next(
        r for r in run_suites(["split"], max_size=8, e_values=(4,)) if r.name == "splitting_theorem"
    )
    assert theorem.failure == "alpha=1 beta=- gamma=- I=[0] e=4 n=12 u=5", theorem.line()


@pytest.mark.parametrize("e, quotient_bound", [(2, 2), (3, 2), (4, 2), (5, 1)])
def test_paget_tests_the_filtered_runner_product_in_order(monkeypatch, e, quotient_bound):
    # the suite decodes each tested display once and builds its partner from
    # the quotient it generated, never through paget_mu's checks
    seen, checked = [], []
    real = ab.decode

    def recording(beads):
        seen.append(real(beads))
        return seen[-1]

    monkeypatch.setattr(ab, "decode", recording)
    monkeypatch.setattr(sp, "paget_mu", lambda *args: checked.append(args))
    # --max 4b gives the quotient bound b for b = 1, 2
    results = run_suites(["paget"], max_size=4 * quotient_bound, e_values=(e,))
    assert all(r.ok for r in results), [r.line() for r in results]
    assert seen == paget_instances_by_filter(e, quotient_bound)
    assert checked == []


def test_paget_at_the_largest_e():
    results = run_suites(["paget"], e_values=(verify.MAX_PAGET_E,))
    assert verify.MAX_PAGET_E == 5
    assert [r.line() for r in results] == [
        "PASS paget.theorem_on_quotient_separated_partitions checked=5389",
        "PASS paget.partner_shares_core checked=8930",
    ]


# The paget suite at default bounds (e = 3 and 4, quotient bound 2).  Of
# the 22,976 displays of its runner products, 3,640 are quotient separated
# and 1,497 of those are also e-restricted: the suite decodes only these.
# from_runners builds the 104 cores and runs twice per tested display (in
# the partner's _fit_runners and e_core); the bound leaves room for one more call per tested
# display, while decoding the whole product and filtering it made 26,074.
PAGET_DEFAULT_COUNTS = {
    "theorem_on_quotient_separated_partitions": 1019,
    "partner_shares_core": 1497,
}


def test_paget_at_default_bounds_decodes_only_what_it_tests(monkeypatch):
    calls = {"from_runners": 0, "decode": 0}
    for name in calls:
        real = getattr(ab, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(ab, name, counting)
    results = run_suites(["paget"])
    assert all(r.ok for r in results), [r.line() for r in results]
    assert {r.name: r.checked for r in results} == PAGET_DEFAULT_COUNTS
    assert calls["decode"] == 1497
    assert calls["from_runners"] <= 1497 + 104 + 2 * 1497


def test_skipped_instances_are_counted_and_never_pass_alone(monkeypatch):
    def suite(max_size, e_values):
        yield from (("met", None, str), ("met", True, str), ("met", None, str))
        yield from (("unmet", None, str), ("unmet", None, str))
        yield from (("failed", None, str), ("failed", False, lambda: "here"), ("failed", None, str))
        yield "plain", True, str

    properties = ("met", "unmet", "failed", "plain", "none")
    monkeypatch.setitem(verify._SUITES, "core", (suite, 1, (2,), properties))
    assert [(r.line(), r.ok) for r in run_suites(["core"])] == [
        ("PASS core.met checked=3 skipped=2", True),
        ("VACUOUS core.unmet checked=2 skipped=2", False),
        # instances after the first failure are not counted
        ("FAIL core.failed checked=2 skipped=1 counterexample: here", False),
        ("PASS core.plain checked=1", True),
        ("VACUOUS core.none checked=0", False),
    ]


def test_first_failure_is_reported_and_counted(lyle_fails_at_2_1):
    dominance, equality = run_suites(["lyle"], max_size=4, e_values=(3,))
    # 2,1 is the sixth partition of size <= 4 in enumeration order
    assert dominance.line() == (
        "FAIL lyle.dominance_always_holds checked=6 counterexample: 2,1 e=3"
    )
    assert equality.line() == "PASS lyle.equality_iff_all_hooks_steep_or_shallow checked=12"


def test_first_failure_on_a_shared_loop(oracle_fails_at_3_1):
    # the oracle is computed once per e-regular partition and read by two
    # properties; 3,1 is the eighth 3-regular partition in enumeration order
    lines = [r.line() for r in run_suites(["mullineux"], max_size=6, e_values=(3,))]
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert failed == [
        "FAIL mullineux.algorithm_equals_crystal_oracle checked=8 counterexample: 3,1 e=3",
        "FAIL mullineux.oracle_residue_choice_is_irrelevant checked=8 counterexample: 3,1 e=3",
    ]
    assert len(lines) == len(verify._SUITES["mullineux"][3])


def test_each_suite_is_yielded_before_the_next_one_runs(monkeypatch):
    started = []
    for name in ("core", "ladder"):
        suite, *rest = verify._SUITES[name]

        def recording(max_size, e_values, name=name, suite=suite):
            started.append(name)
            yield from suite(max_size, e_values)

        monkeypatch.setitem(verify._SUITES, name, (recording, *rest))
    per_suite = iter_suites(["core", "ladder"], max_size=3)
    assert started == []
    core = next(per_suite)
    assert started == ["core"] and {r.suite for r in core} == {"core"}
    assert {r.suite for r in next(per_suite)} == {"ladder"} and started == ["core", "ladder"]


@pytest.mark.parametrize("names, e", [(["split"], 1), (["all"], 0), (["paget", "core"], -2)])
def test_moduli_are_checked_before_any_suite_runs(monkeypatch, names, e):
    started = []
    for name, (suite, *rest) in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, name, (lambda *args: started.append(1), *rest))
    with pytest.raises(ValueError, match=r"suite \w+ runs e >= 2, got e = "):
        iter_suites(names, max_size=3, e_values=(e,))
    assert started == []


@pytest.mark.parametrize("name, limit", [("split", verify.MAX_SPLIT_E), ("paget", verify.MAX_PAGET_E)])
def test_exponential_suites_take_e_up_to_their_bound(name, limit):
    # iter_suites checks the moduli at once and runs a suite only when iterated
    iter_suites([name], e_values=(limit,))
    with pytest.raises(ValueError, match=f"^suite {name} runs e <= {limit}, got e = {limit + 1}$"):
        iter_suites([name], e_values=(limit + 1,))
    # the other suites that take e have no such bound
    iter_suites(["core", "mullineux", "lyle"], e_values=(100,))


@pytest.mark.parametrize("name", ["ladder", "crystal"])
def test_suites_with_fixed_moduli_reject_e_values_when_named(name):
    for e in (3, -1):
        with pytest.raises(ValueError, match=f"^suite {name} runs fixed moduli and takes no e values$"):
            iter_suites([name], max_size=2, e_values=(e,))
    # under "all" the suite still runs, at its own moduli
    named = [r for r in run_suites(["all"], max_size=2, e_values=(3,)) if r.suite == name]
    assert named == run_suites([name], max_size=2)
