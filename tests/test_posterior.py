import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evintel.cluster import DomainPrior, EvidenceCorpus, Report
from evintel.ds import Frame, ValidationError, make_mass, vacuous
from evintel.oracle import counting_bpa_enumeration, counting_to_mass, prior_to_mass
from evintel.posterior import counting_bpa, posterior_distribution, subset_support

AB = Frame(("A", "B"))


def corpus_with_theta(*theta_masses):
    reports = []
    for i, t in enumerate(theta_masses):
        entries = [(("A",), 1.0 - t)] if t < 1.0 else []
        if t > 0:
            entries.append((("A", "B"), t))
        reports.append(Report(f"e{i}", make_mass(AB, entries)))
    return EvidenceCorpus(AB, tuple(reports))


class TestSubsetSupport:
    def test_worked_example(self):
        corpus = corpus_with_theta(0.4, 0.5)
        assert subset_support(corpus, ["e0", "e1"]) == pytest.approx(0.8, abs=1e-12)

    def test_all_vacuous(self):
        corpus = corpus_with_theta(1.0, 1.0)
        assert subset_support(corpus, ["e0", "e1"]) == 0.0

    def test_categorical_member_gives_full_support(self):
        corpus = corpus_with_theta(0.0, 0.5)
        assert subset_support(corpus, ["e0", "e1"]) == 1.0

    def test_empty_block(self):
        with pytest.raises(ValidationError):
            subset_support(corpus_with_theta(0.5), [])


class TestCountingBpa:
    def test_worked_example(self):
        cb = counting_bpa([0.8, 0.5])
        assert cb[0] == pytest.approx(0.1, abs=1e-12)
        assert cb[1] == pytest.approx(0.5, abs=1e-12)
        assert cb[2] == pytest.approx(0.4, abs=1e-12)

    def test_certain_single(self):
        assert counting_bpa([1.0]) == (0.0, 1.0)

    def test_all_zero(self):
        assert counting_bpa([0.0, 0.0, 0.0]) == (1.0, 0.0, 0.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            counting_bpa([1.2])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_enumeration(self, supports):
        fast = counting_bpa(supports)
        slow = counting_bpa_enumeration(supports)
        assert len(fast) == len(slow) == len(supports) + 1
        for a, b in zip(fast, slow):
            assert a == pytest.approx(b, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_masses_sum_to_one(self, supports):
        assert math.fsum(counting_bpa(supports)) == pytest.approx(1.0, abs=1e-9)


class TestPosterior:
    def test_worked_example(self):
        post = posterior_distribution(counting_bpa([0.8, 0.5]), DomainPrior.uniform(3))
        assert post[1] == pytest.approx(0.6 / 2.6, abs=1e-9)
        assert post[2] == pytest.approx(1.0 / 2.6, abs=1e-9)
        assert post[3] == pytest.approx(1.0 / 2.6, abs=1e-9)

    def test_vacuous_returns_prior(self):
        prior = DomainPrior({1: 0.2, 2: 0.5, 3: 0.3})
        post = posterior_distribution((1.0,), prior)
        assert post == prior.probabilities

    def test_gapped_prior_keeps_the_floats_of_its_counts(self):
        cb = counting_bpa([0.8, 0.5])
        gapped = posterior_distribution(cb, DomainPrior({1: 0.25, 4: 0.75}))
        filled = posterior_distribution(cb, DomainPrior({1: 0.25, 2: 0.0, 3: 0.0, 4: 0.75}))
        assert gapped == {1: filled[1], 4: filled[4]}

    def test_certain_prior(self):
        post = posterior_distribution(counting_bpa([0.8, 0.5]), DomainPrior({1: 0.0, 2: 1.0}))
        assert post[2] == pytest.approx(1.0)

    def test_block_count_beyond_prior(self):
        with pytest.raises(ValidationError, match="at most"):
            posterior_distribution(counting_bpa([0.5, 0.5, 0.5]), DomainPrior.uniform(2))

    def test_incompatible_prior(self):
        prior = DomainPrior({1: 1.0, 2: 0.0})
        with pytest.raises(ValidationError, match="incompatible"):
            posterior_distribution(counting_bpa([1.0, 1.0]), prior)

    def test_raising_support_never_lowers_mean(self):
        rng = random.Random(9)
        prior = DomainPrior.uniform(6)
        for _ in range(100):
            supports = [rng.random() for _ in range(rng.randint(1, 5))]
            post = posterior_distribution(counting_bpa(supports), prior)
            base = math.fsum(r * p for r, p in post.items())
            i = rng.randrange(len(supports))
            bumped = list(supports)
            bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
            post = posterior_distribution(counting_bpa(bumped), prior)
            raised = math.fsum(r * p for r, p in post.items())
            assert raised >= base - 1e-12


class TestCountingToMass:
    def test_at_least_one_merges_with_vacuous(self):
        cb = counting_bpa([0.8, 0.5])
        m = counting_to_mass(cb, 3)
        # "at least 1" is the whole count frame, so it folds into the vacuous focal
        assert m.theta_mass == pytest.approx(0.6, abs=1e-12)
        assert m.mass(("2", "3")) == pytest.approx(0.4, abs=1e-12)

    def test_prior_to_mass_is_bayesian(self):
        prior = DomainPrior({1: 0.25, 2: 0.75})
        m = prior_to_mass(prior)
        assert m.mass(("1",)) == 0.25
        assert m.mass(("2",)) == 0.75

    def test_vacuous_counting_bpa(self):
        m = counting_to_mass((1.0,), 4)
        assert m == vacuous(Frame(("1", "2", "3", "4")))
