import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (RANDINT_SAMPLERS, check_semimetric_axioms, induced_family, recovery_parts,
                       separates)
from ulat.carriers import (CarrierMismatch, FiniteLattice, chain_lattice, diamond_lattice,
                           divisor_lattice, pentagon_lattice, powerset_lattice, sublattices)
from ulat.exact import EXT_INF, ext
from ulat.catalog import finite_entries, standard_carriers
from ulat.semimetrics import (
    KernelRelation,
    LatticeSemimetric,
    SemimetricFamily,
    derived_semimetric,
    discrete_semimetric,
    interval_agreement,
    kernel_partition,
    load_distance_table,
    norm_semimetric,
    order_interval,
    ph_criterion,
    pullback_semimetric,
    QuotientLattice,
    quotient,
    symmetric_difference_semimetric,
    table_semimetric,
    ustar_family,
    validate_semimetric,
    zero_semimetric,
)
from ulat.spaces import C00Space, C00Vec, EvLinSeq, FinCofAlgebra, FinCofSet, QLine, QVec
from ulat.truncation import TruncationPair, canonical_pairs, truncate_f


def s(*atoms):
    return frozenset(atoms)


class TestValidation:
    def test_finite_validation_is_exhaustive(self):
        L = powerset_lattice(2)
        v = validate_semimetric(discrete_semimetric(L))
        assert v.status == "exact"
        assert "4^3" in v.detail

    def test_symbolic_validation_is_refused(self):
        for d in (norm_semimetric(QLine(), "abs"), norm_semimetric(C00Space()),
                  symmetric_difference_semimetric(FinCofAlgebra())):
            with pytest.raises(ValueError, match="needs a finite carrier"):
                validate_semimetric(d)

    def test_triangle_violation_is_caught_with_witness(self):
        L = chain_lattice(3)
        bad = table_semimetric("bad", L, {(0, 2): F(5), (0, 1): F(1), (1, 2): F(1)})
        v = validate_semimetric(bad)
        assert v.status == "falsified"
        assert v.witness == ("triangle", 0, 1, 2)

    def test_contraction_violation_is_caught(self):
        L = chain_lattice(3)
        # meet with 1 moves the pair (0, 2) to (0, 1), whose distance is
        # larger here: lattice operations must never spread points apart
        bad = table_semimetric("spread", L,
                               {(0, 1): F(3), (1, 2): F(3), (0, 2): F(1)})
        v = validate_semimetric(bad)
        assert v.status == "falsified"
        assert v.witness[0] in ("join-contraction", "meet-contraction")


    def test_each_axiom_names_its_witness(self):
        L = chain_lattice(3)
        cases = [
            (lambda x, y: 1, ("zero-diagonal", 0)),
            (lambda x, y: 0 if x == y else (1 if x < y else 2), ("symmetry", 0, 1)),
            # join-contractive, but meet with 1 moves (0, 2) onto the far pair (0, 1)
            (lambda x, y: 0 if x == y else (2 if {x, y} == {0, 1} else 1),
             ("meet-contraction", 0, 2, 1)),
        ]
        for func, witness in cases:
            v = validate_semimetric(LatticeSemimetric("hand", L, func))
            assert v.status == "falsified"
            assert v.witness == witness

    def test_sequence_space_families_validate_on_samples(self):
        C, A = C00Space(), FinCofAlgebra()
        for d, name in ((norm_semimetric(C), "c00"),
                        (symmetric_difference_semimetric(A), "fincof")):
            draw, rng = RANDINT_SAMPLERS[name][1], random.Random(3)
            triples = [(draw(rng), draw(rng), draw(rng)) for _ in range(60)]
            assert check_semimetric_axioms(d, triples).holds
        symdiff = symmetric_difference_semimetric(A)
        assert symdiff(FinCofSet.finite([1, 2]), FinCofSet.finite([2, 5])) == 2
        assert symdiff(FinCofSet.finite([1]), FinCofSet.cofinite_complement([1])) == EXT_INF
        l1 = norm_semimetric(C)
        assert l1(C00Vec.indicator([1]), C00Vec.indicator([3])) == 2


class TestDerived:
    def test_frozen_powerset_value(self):
        L = powerset_lattice(2)
        d = discrete_semimetric(L)
        p = TruncationPair.of(L, s(1), s(1, 2))
        dp = derived_semimetric(d, p)
        assert dp(s(), s(2)) == 1
        assert dp(s(), s(1)) == 0
        assert dp.clamp == p and dp.base is d

    def test_derived_never_exceeds_base(self):
        V = QVec(2)
        d = norm_semimetric(V)
        p = TruncationPair.of(V, (F(-1), F(-1)), (F(1), F(1)))
        dp = derived_semimetric(d, p)
        rng = random.Random(7)
        for _ in range(200):
            x, y = V.sample(rng), V.sample(rng)
            assert dp(x, y) <= d(x, y)

    @pytest.mark.parametrize("entry", finite_entries(standard_carriers()),
                             ids=lambda e: e.name)
    def test_clamp_members_match_clamping_first(self, entry):
        L = entry.carrier
        elems = L.elements()
        for D in entry.families.values():
            for d in D.members:
                for p in canonical_pairs(L):
                    dp = derived_semimetric(d, p)
                    for x in elems:
                        for y in elems:
                            assert dp(x, y) == d(truncate_f(L, p, x), truncate_f(L, p, y))

    @pytest.mark.parametrize("d", [norm_semimetric(QLine(), "abs"), norm_semimetric(QVec(3))],
                             ids=["qline", "qvec3"])
    def test_clamp_members_match_clamping_first_on_samples(self, d):
        V = d.carrier
        rng = random.Random(11)
        for _ in range(40):
            a, b = V.sample(rng), V.sample(rng)
            p = TruncationPair.of(V, V.meet(a, b), V.join(a, b))
            dp = derived_semimetric(d, p)
            for _ in range(5):
                x, y = V.sample(rng), V.sample(rng)
                assert dp(x, y) == d(truncate_f(V, p, x), truncate_f(V, p, y))

    def test_a_clamp_member_checks_only_its_two_points(self):
        L = powerset_lattice(2)
        dp = derived_semimetric(discrete_semimetric(L), TruncationPair.of(L, s(), s(1)))
        calls = []
        check = L.check_element
        L.check_element = lambda x: calls.append(x) or check(x)
        assert dp(s(1, 2), s(2)) == 1
        assert calls == [s(1, 2), s(2)]

    def test_rejects_non_canonical_pairs(self):
        L = powerset_lattice(2)
        with pytest.raises(ValueError):
            derived_semimetric(discrete_semimetric(L),
                               TruncationPair.of(L, s(1), s(2)))

    def test_ustar_family_enumerates_derived_members(self):
        L = chain_lattice(3)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        J = [TruncationPair.of(L, 0, 1), TruncationPair.of(L, 0, 2)]
        star = ustar_family(D, J)
        assert star.name == "discrete*"
        assert len(star.members) == 2


CATALOG_MEMBERS = [(entry.name, d) for entry in standard_carriers().values()
                   for D in entry.families.values() for d in D.members]


@pytest.mark.parametrize("entry, d", CATALOG_MEMBERS,
                         ids=[f"{name}/{d.name}" for name, d in CATALOG_MEMBERS])
def test_every_catalog_member_refuses_foreign_points(entry, d):
    for x, y in (("nope", "nope"), ("x", [1]), ({}, {})):
        with pytest.raises(CarrierMismatch):
            d(x, y)


@pytest.mark.parametrize("entry, family, x, y", [
    ("fincof", "symdiff", 1, 2),
    ("chain4", "collapse", 9, 9),
    ("chain4", "collapse", 1, 9),
])
def test_members_without_a_check_of_their_own_refuse_foreign_points(entry, family, x, y):
    d = standard_carriers()[entry].family(family).members[0]
    with pytest.raises(CarrierMismatch):
        d(x, y)


def _count_checks(monkeypatch, L) -> list:
    calls = []
    check = L.check_element
    monkeypatch.setattr(L, "check_element", lambda x: calls.append(x) or check(x))
    return calls


def test_validating_a_finite_table_makes_no_check(monkeypatch):
    L = chain_lattice(4)
    d = table_semimetric("gap", L, {(i, j): F(j - i) for i in range(4) for j in range(i + 1, 4)})
    calls = _count_checks(monkeypatch, L)
    assert validate_semimetric(d).status == "exact"
    assert calls == []


def test_kernel_quotient_and_agreement_check_only_their_entry_points(monkeypatch):
    L = chain_lattice(4)
    fold = {0: 0, 1: 1, 2: 1, 3: 2}
    D = SemimetricFamily.of("collapse", pullback_semimetric(
        "collapse", L, lambda x: fold[x], discrete_semimetric(chain_lattice(3))))
    calls = _count_checks(monkeypatch, L)
    q = quotient(L, kernel_partition(L, D), D)
    assert calls == []
    induced = induced_family(q, D).members[0]
    assert induced(1, 3) == 1
    with pytest.raises(CarrierMismatch):
        induced(2, 3)  # 2 is no representative of the quotient
    assert interval_agreement(D, D, TruncationPair(0, 3, True)).status == "exact"
    assert calls == [0, 3]


def test_a_pullback_checks_its_images_once_where_it_is_built(monkeypatch):
    L, target = chain_lattice(4), chain_lattice(3)
    fold = {0: 0, 1: 1, 2: 1, 3: 2}
    calls = _count_checks(monkeypatch, target)
    d = pullback_semimetric("collapse", L, lambda x: fold[x], discrete_semimetric(target))
    assert calls == [0, 1, 1, 2]
    assert validate_semimetric(d).status == "exact" and d(1, 2) == 0 and d(0, 3) == 1
    assert calls == [0, 1, 1, 2]
    with pytest.raises(CarrierMismatch):  # 3 is no element of the target
        pullback_semimetric("identity", L, lambda x: x, discrete_semimetric(target))
    with pytest.raises(ValueError, match="finite carrier"):
        pullback_semimetric("line", QLine(), lambda x: x, discrete_semimetric(target))


class TestKernelAndQuotient:
    def test_collapse_kernel_blocks_are_frozen(self):
        L = chain_lattice(4)
        target = chain_lattice(3)
        fold = {0: 0, 1: 1, 2: 1, 3: 2}
        D = SemimetricFamily.of("collapse", pullback_semimetric(
            "collapse", L, lambda x: fold[x], discrete_semimetric(target)))
        ker = kernel_partition(L, D)
        assert ker.blocks == ((0,), (1, 2), (3,))
        assert ker.blocks[ker.class_index(2)] == (1, 2)

    def test_collapse_quotient_is_hausdorff_three_chain(self):
        L = chain_lattice(4)
        target = chain_lattice(3)
        fold = {0: 0, 1: 1, 2: 1, 3: 2}
        D = SemimetricFamily.of("collapse", pullback_semimetric(
            "collapse", L, lambda x: fold[x], discrete_semimetric(target)))
        ker = kernel_partition(L, D)
        q = quotient(L, ker, D)
        assert q.carrier.elements() == [0, 1, 3]
        assert q.hausdorff
        # 2 projects to its class's representative 1, an element of the quotient
        assert ker.blocks[ker.class_index(2)][0] == 1
        res = kernel_partition(q.carrier, induced_family(q, D))
        assert all(len(block) == 1 for block in res.blocks)

    def test_non_congruent_kernel_is_rejected_with_witness(self):
        M3 = diamond_lattice()
        # glue bottom to one atom only: joining with another atom separates
        elems = M3.elements()
        glued = {elems.index("0"), elems.index("a")}
        table = {}
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                table[(i, j)] = F(0) if {i, j} == glued else F(1)
        D = SemimetricFamily.of("glue", table_semimetric("glue", M3, table))
        with pytest.raises(ValueError) as info:
            kernel_partition(M3, D)
        assert "congruence" in str(info.value)

    def test_discrete_kernel_quotient_is_identity(self):
        L = powerset_lattice(2)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        ker = kernel_partition(L, D)
        assert all(len(block) == 1 for block in ker.blocks)
        q = quotient(L, ker, D)
        assert len(q.carrier.elements()) == 4


class TestIntervalAgreement:
    def test_exact_self_agreement(self):
        L = chain_lattice(2)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        p = TruncationPair.of(L, 0, 1)
        v = interval_agreement(D, D, p)
        assert v.status == "exact"
        assert "mutual domination" in v.detail

    def test_zero_family_cannot_dominate_discrete(self):
        L = chain_lattice(2)
        disc = SemimetricFamily.of("discrete", discrete_semimetric(L))
        zero = SemimetricFamily.of("zero", zero_semimetric(L))
        p = TruncationPair.of(L, 0, 1)
        v = interval_agreement(disc, zero, p)
        assert v.status == "falsified"
        name, gap, x, y = v.witness
        assert name == "discrete" and gap == 1 and {x, y} == {0, 1}

    def test_order_interval_enumerates_the_window(self):
        L = powerset_lattice(2)
        p = TruncationPair.of(L, s(1), s(1, 2))
        assert sorted(order_interval(L, p), key=sorted) == [s(1), s(1, 2)]

    def test_requires_finite_carrier(self):
        Q = QLine()
        D = SemimetricFamily.of("abs", norm_semimetric(Q, "abs"))
        with pytest.raises(ValueError):
            interval_agreement(D, D, TruncationPair.of(Q, F(-1), F(1)))


class TestRecoveryCriterion:
    def test_three_chain_needs_both_ends(self):
        L = chain_lattice(3)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        assert ph_criterion(L, [0, 2], D)
        assert ph_criterion(L, [0, 1, 2], D)
        assert not ph_criterion(L, [0], D)
        assert not ph_criterion(L, [0, 1], D)

    def test_the_subset_is_checked_once(self, monkeypatch):
        L = chain_lattice(3)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        calls = _count_checks(monkeypatch, L)
        assert ph_criterion(L, [0, 2], D)
        # S once where it enters, and nothing else: both kernels are zero rows
        assert calls == [0, 2]

    def test_detail_reports_the_failing_element(self):
        L = chain_lattice(3)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        assert not ph_criterion(L, [0, 1], D)
        # 2 is the meet of s \/ 2 but not the join of s /\ 2 over s in {0, 1}
        assert recovery_parts(L, [0, 1], D) == (True, False, True, 2)
        pairs = [TruncationPair(0, 0, True), TruncationPair(0, 1, True), TruncationPair(1, 1, True)]
        assert not separates(ustar_family(D, pairs), L.elements())

    def test_non_hausdorff_family_fails_criterion(self):
        L = chain_lattice(3)
        D = SemimetricFamily.of("zero", zero_semimetric(L))
        assert not ph_criterion(L, [0, 2], D)
        assert recovery_parts(L, [0, 2], D) == (False, True, True, None)

    def test_a_family_on_another_carrier_is_refused(self):
        D = SemimetricFamily.of("discrete", discrete_semimetric(chain_lattice(4)))
        with pytest.raises(CarrierMismatch):
            ph_criterion(chain_lattice(3), [0, 2], D)

    def test_rejects_non_sublattices(self):
        L = powerset_lattice(2)
        D = SemimetricFamily.of("discrete", discrete_semimetric(L))
        with pytest.raises(ValueError):
            ph_criterion(L, [s(1), s(2)], D)  # missing meet and join
        with pytest.raises(ValueError):
            ph_criterion(L, [], D)

    def test_agreement_holds_on_nondistributive_carriers(self):
        # the clamp kernel is not a congruence there, but discreteness is
        # still the right notion and must agree with the criterion
        N5 = diamond_lattice()
        D = SemimetricFamily.of("discrete", discrete_semimetric(N5))
        assert ph_criterion(N5, N5.elements(), D)
        assert not ph_criterion(N5, ["0", "a"], D)

    def test_criterion_is_separation_and_recovery_on_the_small_catalog(self):
        for entry in finite_entries(standard_carriers()):
            L = entry.carrier
            if len(L.elements()) > 8:
                continue
            for D in entry.families.values():
                for S in sublattices(L):
                    separates, from_below, from_above, _ = recovery_parts(L, S, D)
                    assert ph_criterion(L, S, D) == (separates and from_below and from_above), \
                        (entry.name, D.name, S)


class TestDistanceTables:
    def test_load_and_evaluate(self):
        L = chain_lattice(3)
        doc = {
            "carrier": "chain3",
            "distances": [[0, 1, "1/2"], [1, 2, "1/2"], [0, 2, "1"]],
        }
        d = load_distance_table(doc, carriers={"chain3": L})
        assert d(0, 2) == 1
        assert d(1, 0) == F(1, 2)
        assert d(2, 2) == 0
        assert validate_semimetric(d).status == "exact"

    def test_inf_entries(self):
        L = chain_lattice(2)
        doc = {"carrier": "c", "distances": [[0, 1, "inf"]]}
        d = load_distance_table(doc, carriers={"c": L})
        assert d(0, 1) == EXT_INF

    def test_bad_documents_are_rejected(self):
        L = chain_lattice(2)
        with pytest.raises(ValueError):
            load_distance_table({"distances": []}, carriers={"c": L})
        with pytest.raises(ValueError):
            load_distance_table({"carrier": "missing", "distances": []},
                                carriers={"c": L})

    @pytest.mark.parametrize("doc, error", [
        ([["c"], [[0, 1, "1"]]], "distance table must be a JSON object"),
        ({"carrier": "line", "distances": []}, "only supported over finite carriers"),
        ({"carrier": "c", "distances": {"0": "1"}},
         "distances must be a list of [i, j, value] rows"),
        ({"carrier": "c", "distances": [[0, 1]]}, "bad distance row [0, 1]"),
        ({"carrier": "c", "distances": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"], [1, 1, "1/2"]]},
         "nonzero diagonal entry at index 1"),
        ({"carrier": "c", "distances": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"], [2, 1, "2"]]},
         "asymmetric entries for pair (1, 2): ExtValue('1') vs ExtValue('2')"),
        ({"carrier": "c", "distances": [[0, 1, "1"], [1, 1, 0]]},
         "distance table is incomplete: missing pairs [(0, 2), (1, 2)]"),
    ], ids=["not-an-object", "symbolic-carrier", "rows-not-a-list", "short-row",
            "nonzero-diagonal", "asymmetric", "incomplete"])
    def test_malformed_tables_are_refused(self, doc, error):
        with pytest.raises(ValueError) as info:
            load_distance_table(doc, carriers={"c": chain_lattice(3), "line": QLine()})
        assert error in str(info.value)

    @pytest.mark.parametrize("value, message", [
        (0.1, "is not an exact rational"),
        (True, "is not an exact rational"),
        ("1/0", "divides by zero"),
        ("one", "is not an exact rational"),
        ("-1/2", "is negative"),
    ])
    def test_inexact_or_bad_values_are_refused_naming_the_row(self, value, message):
        L = chain_lattice(3)
        doc = {"carrier": "c", "distances": [[0, 1, "1"], [1, 2, value], [0, 2, "2"]]}
        with pytest.raises(ValueError) as info:
            load_distance_table(doc, carriers={"c": L})
        assert str(info.value) == f"distance row {[1, 2, value]!r} {message}"

    def test_a_distance_with_an_exponent_is_refused_at_once(self):
        doc = {"carrier": "c", "distances": [[0, 1, "1e10000000"]]}
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            load_distance_table(doc, carriers={"c": chain_lattice(2)})
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == "distance row [0, 1, '1e10000000'] is not an exact rational"

    def test_boolean_indices_are_refused(self):
        L = chain_lattice(2)
        with pytest.raises(ValueError) as info:
            load_distance_table({"carrier": "c", "distances": [[False, True, "1"]]},
                                carriers={"c": L})
        assert "out-of-range indices" in str(info.value)


def test_compiled_table_equals_the_dict_lookup_on_every_pair():
    L = divisor_lattice(60)
    n = len(L.elements())
    rng = random.Random(7)
    table = {(i, j): rng.choice((F(rng.randint(0, 4), rng.randint(1, 3)), EXT_INF))
             for i in range(n) for j in range(i + 1, n)}
    d = table_semimetric("random", L, table)
    seen = {}
    for i, x in enumerate(L.elements()):
        for j, y in enumerate(L.elements()):
            want = ext(0) if i == j else ext(table[(min(i, j), max(i, j))])
            got = d(x, y)
            assert got == want
            assert seen.setdefault(got, got) is got  # equal distances share one object
    with pytest.raises(CarrierMismatch):
        d(7, 1)
    with pytest.raises(CarrierMismatch):
        d(1, [1])


def test_table_semimetric_refuses_a_table_with_a_missing_pair():
    with pytest.raises(ValueError) as info:
        table_semimetric("holey", chain_lattice(3), {(0, 1): F(1), (1, 2): F(1)})
    assert "misses the pair (0, 2)" in str(info.value)


# ---------------------------------------------------------------------------
# Differential check: kernel domination against the eps-delta value scan


def _scan_dominates(Du, Dv, square):
    """The eps-delta scan: for each member of Dv and each positive value eps
    it attains, delta must undercut max_Du on every pair where d_v >= eps."""
    profiles = [(x, y, max(d(x, y) for d in Du.members)) for x, y in square]
    for dv in Dv.members:
        values = sorted({dv(x, y) for x, y in square if dv(x, y) > 0})
        for eps in values:
            floor = min((m for x, y, m in profiles if dv(x, y) >= eps), default=None)
            if floor is None:
                continue
            if floor == 0:
                x, y = next((x, y) for x, y, m in profiles if dv(x, y) >= eps and m == 0)
                return (dv.name, eps, x, y)
    return None


def _scan_agreement(Du, Dv, p):
    interval = order_interval(Du.carrier, p)
    square = [(x, y) for x in interval for y in interval]
    witness = _scan_dominates(Du, Dv, square) or _scan_dominates(Dv, Du, square)
    return ("exact", None) if witness is None else ("falsified", witness)


SMALL_CARRIERS = (chain_lattice(2), chain_lattice(3), chain_lattice(4), powerset_lattice(2))


@st.composite
def two_families(draw):
    """Two families of 1-3 arbitrary symmetric tables (not necessarily
    semimetrics) with values in {0, 1/2, 1, inf} on one small carrier."""
    L = draw(st.sampled_from(SMALL_CARRIERS))
    n = len(L.elements())
    values = st.sampled_from((F(0), F(1, 2), F(1), EXT_INF))

    def family(tag):
        members = [table_semimetric(f"{tag}{m}", L, {(i, j): draw(values)
                                                      for i in range(n) for j in range(i + 1, n)})
                   for m in range(draw(st.integers(1, 3)))]
        return SemimetricFamily.of(tag, *members)

    return family("u"), family("v")


@given(two_families())
def test_kernel_agreement_matches_the_value_scan(families):
    Du, Dv = families
    for p in canonical_pairs(Du.carrier):
        v = interval_agreement(Du, Dv, p)
        assert (v.status, v.witness) == _scan_agreement(Du, Dv, p)


# ---------------------------------------------------------------------------
# Differential check: the kernel questions on zero rows against the
# pair-by-pair oracles


def _ordinal_sum(blocks) -> FiniteLattice:
    """Blocks stacked bottom to top, each block's bottom glued to the top of
    the block below: elements (k, e) for e in block k."""
    elems = [(k, e) for k, B in enumerate(blocks) for e in B.elements()
             if k == 0 or e != B.bottom]
    return FiniteLattice.from_leq("sum", elems,
                                  lambda x, y: x[0] < y[0] or x[0] == y[0]
                                  and blocks[x[0]].leq(x[1], y[1]))


@st.composite
def kernel_carriers(draw) -> FiniteLattice:
    """A chain of 1-6 elements, a powerset of 1-3 atoms, n5, m3, or an
    ordinal sum of two of chain2, square, n5 and m3, its elements listed in
    any order."""
    kind = draw(st.sampled_from(("chain", "powerset", "named", "sum")))
    if kind == "chain":
        L = chain_lattice(draw(st.integers(1, 6)))
    elif kind == "powerset":
        L = powerset_lattice(draw(st.integers(1, 3)))
    elif kind == "named":
        L = draw(st.sampled_from((pentagon_lattice(), diamond_lattice())))
    else:
        blocks = (chain_lattice(2), powerset_lattice(2), pentagon_lattice(), diamond_lattice())
        L = _ordinal_sum(draw(st.lists(st.sampled_from(blocks), min_size=2, max_size=2)))
    return FiniteLattice.from_leq(L.name, draw(st.permutations(L.elements())), L._leq)


@st.composite
def kernel_inputs(draw):
    """A carrier and a family of 1-2 members, each a symmetric distance
    table with values in {0, 1/2, 1, inf} loaded from its document, or a
    non-symmetric 0/1 function (not a semimetric: the tables need no
    triangle inequality, so their kernels need not be congruences)."""
    L = draw(kernel_carriers())
    n = len(L.elements())
    index = L._index

    def member(m):
        if draw(st.booleans()):
            rows = [[i, j, draw(st.sampled_from(("0", "1/2", "1", "inf")))]
                    for i in range(n) for j in range(i + 1, n)]
            return load_distance_table({"carrier": "c", "distances": rows}, {"c": L}, f"t{m}")
        skew = [0 if i == j else draw(st.integers(0, 1)) for i in range(n) for j in range(n)]
        return LatticeSemimetric(f"skew{m}", L, lambda x, y: skew[index[x] * n + index[y]])

    return L, SemimetricFamily.of("D", *(member(m) for m in range(draw(st.integers(1, 2)))))


def _outcome(f, *args):
    """f's value, or the type and text of the ValueError or RuntimeError it
    raised."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(kernel_inputs(), st.data())
def test_kernel_questions_match_the_pair_by_pair_oracles(inputs, data):
    L, D = inputs
    kernel = _outcome(kernel_partition, L, D)
    want = _outcome(reference.kernel_partition, L, D)
    assert kernel == want
    if isinstance(kernel, KernelRelation):
        q = _outcome(quotient, L, kernel, D)
        if isinstance(q, QuotientLattice):
            assert q.hausdorff == reference.quotient_hausdorff(kernel, D)
    S = data.draw(st.sampled_from(list(sublattices(L))))
    assert _outcome(ph_criterion, L, S, D) == _outcome(reference.ph_criterion, L, S, D)


# ---------------------------------------------------------------------------
# The catalog's norm families against plain Fraction formulas


def _ref_line(x, y):
    return abs(x - y)


def _ref_vec(x, y):
    return sum((abs(a - b) for a, b in zip(x, y)), F(0))


def _ref_c00(x, y):
    xs, ys = dict(x.entries), dict(y.entries)
    return sum((abs(xs.get(i, F(0)) - ys.get(i, F(0))) for i in set(xs) | set(ys)), F(0))


def _ref_evlin(x, y):
    # both sequences follow their eventual laws from n on, so the laws agree
    # exactly when the values at n and n + 1 do
    n = max(x.pieces[-1][0], y.pieces[-1][0])
    if (x.value(n), x.value(n + 1)) != (y.value(n), y.value(n + 1)):
        return EXT_INF
    return sum((abs(x.value(i) - y.value(i)) for i in range(1, n)), F(0))


# the sequence spaces draw no elements themselves
SEQUENCE_SAMPLERS = {"c00": RANDINT_SAMPLERS["c00"][1], "evlinseq": RANDINT_SAMPLERS["evlin"][1]}

NORM_FAMILIES = [("qline", "abs", _ref_line), ("qvec2", "l1", _ref_vec),
                 ("qvec3", "l1", _ref_vec), ("qvec5", "l1", _ref_vec),
                 ("c00", "l1", _ref_c00), ("evlinseq", "l1", _ref_evlin)]


def _norm_member(entry: str, family: str):
    D = standard_carriers()[entry].family(family)
    assert D.name == family and [d.name for d in D.members] == [family]
    return D.members[0]


class TestNormFamilies:
    @pytest.mark.parametrize("entry, family, ref", NORM_FAMILIES,
                             ids=[entry for entry, _, _ in NORM_FAMILIES])
    def test_catalog_norm_families_match_reference_formulas(self, entry, family, ref):
        d = _norm_member(entry, family)
        G = d.carrier
        rng = random.Random(17)
        draw = SEQUENCE_SAMPLERS[entry] if entry in SEQUENCE_SAMPLERS else G.sample
        pairs = [(draw(rng), draw(rng)) for _ in range(60)]
        if entry == "evlinseq":
            # pairs sharing their eventual part have a finite distance
            pairs += [(x, G.add(x, EvLinSeq.make([rng.randint(-3, 3) for _ in range(4)]
                                                 + [F(1, 3)], 0, 0))) for x, _ in pairs[:30]]
        finite = 0
        for x, y in pairs:
            assert d(x, y) == ref(x, y)
            assert d(x, y) == d(y, x)
            finite += d(x, y) != EXT_INF
        assert finite >= 30
        if entry == "evlinseq":
            assert finite < len(pairs)

    def test_derived_member_names(self):
        d = _norm_member("qline", "abs")
        assert derived_semimetric(d, TruncationPair.of(d.carrier, F(-1), F(1))).name == "abs[-1,1]"

    def test_c00_distance_refuses_tuples(self):
        d = _norm_member("c00", "l1")
        with pytest.raises(CarrierMismatch):
            d((F(1),), (F(2),))

    def test_evlinseq_distance_refuses_integers(self):
        d = _norm_member("evlinseq", "l1")
        with pytest.raises(CarrierMismatch):
            d(1, 2)

    def test_line_distance_refuses_booleans(self):
        d = _norm_member("qline", "abs")
        with pytest.raises(CarrierMismatch):
            d(True, False)

    def test_vectors_of_the_wrong_dimension_are_refused(self):
        d = _norm_member("qvec3", "l1")
        with pytest.raises(CarrierMismatch):
            d((F(1), F(2)), (F(-1), F(-1)))
        with pytest.raises(CarrierMismatch):
            d((F(1), F(2), F(7)), (F(-1), F(-1)))

    def test_line_points_given_as_strings_are_refused(self):
        d = _norm_member("qline", "abs")
        with pytest.raises(TypeError):
            d("1/2", "1/3")
