import math
import random

import pytest
from hypothesis import given, settings

from conftest import ABCD, masses
from evintel.ds import (
    PRUNE_EPS,
    FocalSet,
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    combine_all,
    combine_dempster,
    discount,
    enumerate_conflict,
    make_mass,
    query_bel_pls,
    vacuous,
)
from evintel.ds import _dempster_conflict, _dempster_step  # noqa: PLC2701 - kernel vs reference
from evintel.oracle import (
    kernel_agrees,
    random_mass,
    random_simple_support,
    random_spread_mass,
    reference_combine,
)

AB = Frame(("A", "B"))
ABC = Frame(("A", "B", "C"))


def m_of(frame, *entries):
    return make_mass(frame, list(entries))


class TestFrame:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Frame(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Frame(("A", "A"))

    def test_subset_encoding_is_order_independent(self):
        assert FocalSet.of(AB, ("A", "B")) == FocalSet.of(AB, ("B", "A"))
        assert FocalSet.of(AB, ("A",)).members == ("A",)

    def test_unknown_element(self):
        with pytest.raises(ValidationError, match="unknown frame element"):
            AB.bits_of(("Z",))


class TestMakeMass:
    def test_well_formed(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        assert m.mass(("A",)) == 0.6
        assert m.theta_mass == 0.4

    def test_sum_violation(self):
        with pytest.raises(ValidationError, match="sum to 0.99"):
            m_of(AB, (("A",), 0.99))

    def test_near_sums_are_rescaled(self):
        third = 0.3333333333
        m = m_of(ABC, (("A",), third), (("B",), third), (("C",), third))
        assert abs(math.fsum(m.masses.values()) - 1.0) <= 2e-16
        assert m.mass(("A",)) == third / math.fsum([third] * 3)

    def test_decimal_sums_are_kept(self):
        # 0.01 + 0.29 + 0.7 is one ulp short of 1 in floats: rounding, not a miss
        m = m_of(ABC, (("A",), 0.01), (("B",), 0.29), (("C",), 0.7))
        assert math.fsum(m.masses.values()) != 1.0
        assert (m.mass(("A",)), m.mass(("B",)), m.mass(("C",))) == (0.01, 0.29, 0.7)

    def test_empty_focal(self):
        with pytest.raises(ValidationError, match="empty focal"):
            m_of(AB, ((), 0.2), (("A", "B"), 0.8))

    def test_zero_entries_dropped_and_duplicates_merged(self):
        m = m_of(AB, (("A",), 0.3), (("A",), 0.3), (("B",), 0.0), (("A", "B"), 0.4))
        assert m.mass(("A",)) == 0.6
        assert m.mass(("B",)) == 0.0
        assert len(m.masses) == 2

    def test_negative_mass(self):
        with pytest.raises(ValidationError, match="negative"):
            m_of(AB, (("A",), -0.1), (("A", "B"), 1.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass(self, bad):
        # NaN fails every comparison, so the sum check alone lets it through
        with pytest.raises(ValidationError, match="not a finite number"):
            m_of(AB, (("A",), bad), (("A", "B"), 1.0))


class TestCombine:
    def test_worked_example(self):
        m1 = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        m2 = m_of(AB, (("B",), 0.5), (("A", "B"), 0.5))
        m, conflict = combine_dempster(m1, m2)
        assert conflict == pytest.approx(0.3, abs=1e-12)
        assert m.mass(("A",)) == pytest.approx(3 / 7, abs=1e-12)
        assert m.mass(("B",)) == pytest.approx(2 / 7, abs=1e-12)
        assert m.theta_mass == pytest.approx(2 / 7, abs=1e-12)

    def test_vacuous_is_identity(self):
        m1 = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        m, conflict = combine_dempster(m1, vacuous(AB))
        assert conflict == 0.0
        assert m == m1

    def test_high_conflict_example(self):
        m1 = m_of(ABC, (("A",), 0.99), (("B",), 0.01))
        m2 = m_of(ABC, (("C",), 0.99), (("B",), 0.01))
        m, conflict = combine_dempster(m1, m2)
        assert conflict == pytest.approx(0.9999, abs=1e-12)
        assert m.mass(("B",)) == pytest.approx(1.0, abs=1e-12)
        assert len(m.masses) == 1

    def test_total_contradiction(self):
        m1 = m_of(AB, (("A",), 1.0))
        m2 = m_of(AB, (("B",), 1.0))
        with pytest.raises(TotalConflictError) as exc:
            combine_dempster(m1, m2)
        assert exc.value.conflict == pytest.approx(1.0)

    def test_frame_mismatch(self):
        with pytest.raises(ValidationError, match="different frames"):
            combine_dempster(vacuous(AB), vacuous(ABC))


class TestDempsterKernel:
    """combine_dempster, _dempster_step and _dempster_conflict against
    oracle.reference_combine, bit for bit (see oracle.kernel_agrees)."""

    def test_random_folds(self):
        # a running combination against the next mass, as a fold does it
        rng = random.Random(29)
        raised = 0
        for _ in range(1500):
            frame = Frame(tuple("ABCDE"[: rng.randint(1, 5)]))
            acc = random_spread_mass(frame, rng)
            for _ in range(rng.randint(1, 6)):
                m = random_spread_mass(frame, rng) if rng.random() < 0.5 else random_mass(frame, rng)
                assert kernel_agrees(acc, m)
                try:
                    acc, _ = reference_combine(acc, m)
                except TotalConflictError:
                    raised += 1
                    break
        assert raised > 0

    def test_no_conflict_terms(self):
        m1 = m_of(ABC, (("A",), 0.6), (("A", "B"), 0.4))
        m2 = m_of(ABC, (("A", "C"), 0.3), (("A", "B", "C"), 0.7))
        assert kernel_agrees(m1, m2)
        assert reference_combine(m1, m2)[1] == 0.0

    def test_dust_is_pruned(self):
        # A & AB = A carries 1e-14, below PRUNE_EPS after scaling; the rest is divided
        m1 = m_of(ABC, (("A",), 1e-7), (("B", "C"), 1 - 1e-7))
        m2 = m_of(ABC, (("A", "B"), 1e-7), (("B", "C"), 1 - 1e-7))
        assert kernel_agrees(m1, m2)
        combined, _ = combine_dempster(m1, m2)
        assert ABC.bits_of("A") not in combined.masses
        assert len(combined.masses) == 2

    @pytest.mark.parametrize("excess", [9e-10, -9e-10])
    def test_inputs_off_one_by_mass_tol(self, excess):
        # built directly: make_mass would rescale them to sum to 1
        bits = ABC.bits_of
        m1 = MassFunction(ABC, {bits(("A",)): 0.3, bits(("B",)): 0.2, ABC.full_bits: 0.5 + excess})
        m2 = MassFunction(ABC, {bits(("B", "C")): 0.45, ABC.full_bits: 0.55 - excess})
        assert kernel_agrees(m1, m2)
        assert kernel_agrees(m2, m1)

    def test_conflict_just_under_the_limit(self):
        x = 1e-12
        m1 = m_of(AB, (("A",), 1 - x), (("A", "B"), x))
        m2 = m_of(AB, (("B",), 1 - x), (("A", "B"), x))
        assert kernel_agrees(m1, m2)
        conflict = _dempster_conflict(m1.masses, tuple(m2.masses.items()))
        assert 1 - 3e-12 < conflict < 1 - PRUNE_EPS
        # one step closer to total conflict raises on every route
        y = 4e-13
        m3 = m_of(AB, (("A",), 1 - y), (("A", "B"), y))
        m4 = m_of(AB, (("B",), 1 - y), (("A", "B"), y))
        assert kernel_agrees(m3, m4)
        with pytest.raises(TotalConflictError):
            _dempster_conflict(m3.masses, tuple(m4.masses.items()))

    def test_every_survivor_below_prune_eps_raises(self):
        # masses summing to 1 - 5e-10, built directly (make_mass would rescale
        # them): the conflict stops short of the limit, but the one surviving
        # product, 1e-25, scales to about 2e-16
        m1 = MassFunction(AB, {AB.bits_of(("A",)): 1 - 5e-10, AB.full_bits: 1e-25})
        m2 = m_of(AB, (("B",), 1.0))
        items = tuple(m2.masses.items())
        with pytest.raises(TotalConflictError) as exc:
            reference_combine(m1, m2)
        assert exc.value.conflict < 1 - PRUNE_EPS
        with pytest.raises(TotalConflictError):
            _dempster_step(m1.masses, items)
        with pytest.raises(TotalConflictError):
            _dempster_conflict(m1.masses, items)
        assert kernel_agrees(m1, m2)

    def test_small_products_that_sum_past_prune_eps_survive(self):
        # each product on B scales below PRUNE_EPS, their sum does not: the
        # conflict-only step falls back to the full one, which does not raise;
        # the masses sum to 1 - 5e-10, so they are built directly
        m1 = MassFunction(ABC, {ABC.bits_of(("A",)): 1 - 5e-10, ABC.bits_of(("A", "B")): 8e-22})
        m2 = m_of(ABC, (("B",), 0.5), (("B", "C"), 0.5))
        combined, conflict = reference_combine(m1, m2)
        assert list(combined.masses) == [ABC.bits_of("B")]
        assert _dempster_conflict(m1.masses, tuple(m2.masses.items())) == conflict
        assert kernel_agrees(m1, m2)


class TestCombineAll:
    def test_single(self):
        m1 = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        m, c = combine_all([m1])
        assert (m, c) == (m1, 0.0)

    def test_three_copies(self):
        m1 = m_of(AB, (("A",), 0.5), (("A", "B"), 0.5))
        m, c = combine_all([m1, m1, m1])
        assert c == 0.0
        assert m.mass(("A",)) == pytest.approx(0.875, abs=1e-12)
        assert m.theta_mass == pytest.approx(0.125, abs=1e-12)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        ms = [random_mass(ABCD, rng) for _ in range(4)]
        base_m, base_c = combine_all(ms)
        for seed in range(5):
            perm = ms[:]
            random.Random(seed).shuffle(perm)
            m, c = combine_all(perm)
            assert c == pytest.approx(base_c, abs=1e-9)
            assert set(m.masses) == set(base_m.masses)
            for bits, v in base_m.masses.items():
                assert m.masses[bits] == pytest.approx(v, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            combine_all([])

    def test_accumulated_equals_simultaneous(self):
        rng = random.Random(11)
        for _ in range(50):
            ms = [random_simple_support(ABCD, rng) for _ in range(rng.randint(2, 6))]
            _, acc = combine_all(ms)
            assert acc == pytest.approx(enumerate_conflict(ms), abs=1e-9)


class TestQueries:
    def test_vacuous_interval(self):
        assert query_bel_pls(vacuous(AB), ("A",)) == (0.0, 1.0)

    def test_worked_example(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        assert query_bel_pls(m, ("B",)) == (0.0, pytest.approx(0.4))

    def test_totality(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        assert query_bel_pls(m, ("A", "B")) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_focal_set_frame_mismatch(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        with pytest.raises(ValidationError, match="different frame"):
            query_bel_pls(m, FocalSet.of(ABC, ("A",)))


class TestDiscount:
    def test_identity(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        assert discount(m, 1.0) == m

    def test_full_discount_is_vacuous(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        assert discount(m, 0.0).is_vacuous

    def test_worked_example(self):
        m = m_of(AB, (("A",), 0.6), (("A", "B"), 0.4))
        d = discount(m, 0.5)
        assert d.mass(("A",)) == pytest.approx(0.3)
        assert d.theta_mass == pytest.approx(0.7)

    def test_rate_out_of_range(self):
        with pytest.raises(ValidationError):
            discount(vacuous(AB), 1.5)


@given(masses(), masses())
@settings(max_examples=100, deadline=None)
def test_commutativity(m1, m2):
    a, ca = combine_dempster(m1, m2)
    b, cb = combine_dempster(m2, m1)
    assert ca == pytest.approx(cb, abs=1e-9)
    assert set(a.masses) == set(b.masses)
    for bits, v in a.masses.items():
        assert b.masses[bits] == pytest.approx(v, abs=1e-9)


@given(masses(), masses(), masses())
@settings(max_examples=60, deadline=None)
def test_associativity(m1, m2, m3):
    left, _ = combine_dempster(combine_dempster(m1, m2)[0], m3)
    right, _ = combine_dempster(m1, combine_dempster(m2, m3)[0])
    assert set(left.masses) == set(right.masses)
    for bits, v in left.masses.items():
        assert right.masses[bits] == pytest.approx(v, abs=1e-9)


@given(masses())
@settings(max_examples=100, deadline=None)
def test_bel_plus_pls_of_complement(m):
    for bits in range(ABCD.full_bits + 1):
        subset = ABCD.members_of(bits)
        complement = tuple(e for e in ABCD.elements if e not in subset)
        bel, _ = query_bel_pls(m, subset)
        _, pls_c = query_bel_pls(m, complement)
        assert bel + pls_c == pytest.approx(1.0, abs=1e-9)


@given(masses(), masses())
@settings(max_examples=100, deadline=None)
def test_combination_preserves_mass_invariants(m1, m2):
    m, conflict = combine_dempster(m1, m2)
    assert 0.0 <= conflict < 1.0
    assert math.fsum(m.masses.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v > 0 for v in m.masses.values())
    assert 0 not in m.masses
