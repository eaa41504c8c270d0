import pytest

from oracles import fingerprint_from_class_key, paget_instances_by_filter
from regcrystals import abacus as ab
from regcrystals import ladders as ld
from regcrystals import separation as sp
from regcrystals import verify
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


def test_box_step_decides_by_class_key_as_fingerprint_does(monkeypatch):
    # the box step compares class_keys of (xi, nu), in that order, and never
    # builds a fingerprint; each verdict is the fingerprint route's, and each
    # key expands to its partition's fingerprint
    keyed = []
    real_key, real_fp = ld.class_key, ld.fingerprint

    def recording(la, params):
        keyed.append((la, params))
        return real_key(la, params)

    def refused(la, params):
        raise AssertionError("fingerprint called")

    monkeypatch.setattr(ld, "class_key", recording)
    monkeypatch.setattr(ld, "fingerprint", refused)
    verdicts = [ok for name, ok, _ in verify.suite_split(8, (4,)) if name == "box_step_preserves_cbar_fingerprint"]
    monkeypatch.undo()
    assert len(keyed) == 2 * len(verdicts) == 2 * 947
    for (xi, params), (nu, _), ok in zip(keyed[::2], keyed[1::2], verdicts):
        assert ok is (real_fp(xi, params) == real_fp(nu, params)), (xi, nu, params)
        for la in (xi, nu):
            assert fingerprint_from_class_key(real_key(la, params), params) == real_fp(la, params), (la, params)


@pytest.mark.parametrize("e, quotient_bound", [(2, 2), (3, 2), (4, 2), (5, 1)])
def test_paget_tests_the_filtered_runner_product_in_order(monkeypatch, e, quotient_bound):
    seen = []
    real = sp.paget_mu

    def recording(la, e):
        seen.append((la, e))
        return real(la, e)

    monkeypatch.setattr(sp, "paget_mu", recording)
    # --max 4b gives the quotient bound b for b = 1, 2
    results = run_suites(["paget"], max_size=4 * quotient_bound, e_values=(e,))
    assert all(r.ok for r in results), [r.line() for r in results]
    assert seen == [(la, e) for la in paget_instances_by_filter(e, quotient_bound)]


# The paget suite at default bounds (e = 3 and 4, quotient bound 2).  Of
# the 22,976 displays of its runner products, 3,640 are quotient separated
# and 1,497 of those are also e-restricted: the suite decodes only these.
# from_runners builds the 104 cores and runs twice per tested display (in
# paget_mu and e_core); the bound leaves room for one more call per tested
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
