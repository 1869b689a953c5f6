import math
import random

import pytest
from hypothesis import given, settings

from conftest import ABCD, masses
from evintel.ds import (
    FocalSet,
    Frame,
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
from evintel.oracle import random_mass, random_simple_support

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
