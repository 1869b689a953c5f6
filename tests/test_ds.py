import math

import pytest

from conftest import corpus_of
from evintel.cluster import BlockState, cluster_conflict
from evintel.ds import (
    PRUNE_EPS,
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    combine_dempster,
    left_sum,
    make_mass,
    vacuous,
)
from evintel.ds import _dempster_conflict, _dempster_step  # noqa: PLC2701 - kernel vs reference
from evintel.oracle import (
    check_dempster_step,
    kernel_agrees,
    reference_combine,
)

AB = Frame(("A", "B"))
ABC = Frame(("A", "B", "C"))


def m_of(frame, *entries):
    return make_mass(frame, list(entries))


def test_left_sum_rounds_each_step():
    # what sum() gives up to Python 3.11; from 3.12 on it compensates and returns 2.0
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum([0.1] * 10) == 0.9999999999999999


class TestFrame:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Frame(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Frame(("A", "A"))

    def test_subset_encoding_is_order_independent(self):
        assert AB.bits_of(("A", "B")) == AB.bits_of(("B", "A"))
        assert AB.members_of(AB.bits_of(("B", "A"))) == ("A", "B")
        assert AB.members_of(AB.bits_of(("A",))) == ("A",)

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
        result = check_dempster_step(29, 1500)
        assert result.ok, result

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

    def test_a_block_whose_every_survivor_is_below_prune_eps_is_saturated(self):
        # the masses above as a two-report corpus: the descent's one-step
        # score of joining them must be the canonical conflict, 1.0; without
        # the conflict-only step's fallback it reads 0.9999999995
        m1 = MassFunction(AB, {AB.bits_of(("A",)): 1 - 5e-10, AB.full_bits: 1e-25})
        corpus = corpus_of(AB, ("e1", m1), ("e2", m_of(AB, (("B",), 1.0))))
        assert BlockState(corpus, [0]).moved(1) == cluster_conflict(corpus, ["e1", "e2"]) == 1.0

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
