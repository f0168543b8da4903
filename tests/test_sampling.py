import math
import random
from collections import Counter

import pytest

from hypermod import CardinalityDistribution, PreferentialSelector, make_rng
from hypermod.genh import HParams, generate_h
from hypermod.sampling import Categorical, uniform_index

from helpers import marginals


class TestCardinalityDistribution:
    def test_means_are_closed_form(self):
        assert CardinalityDistribution.constant(4).mean() == 4.0
        assert CardinalityDistribution.uniform_int(1, 5).mean() == 3.0
        cat = CardinalityDistribution.categorical([2, 3], [0.25, 0.75])
        assert cat.mean() == pytest.approx(2.75)
        assert CardinalityDistribution.shifted_poisson(2.0, 1).mean() == 3.0

    def test_samples_stay_in_support(self):
        rng = make_rng(1)
        dists = [
            CardinalityDistribution.constant(3),
            CardinalityDistribution.uniform_int(2, 6),
            CardinalityDistribution.categorical([1, 4, 9], [0.2, 0.3, 0.5]),
            CardinalityDistribution.shifted_poisson(1.5, 2),
        ]
        for dist in dists:
            top = dist.max_value()
            for _ in range(500):
                z = dist.sample(rng)
                assert z >= 1
                if top is not None:
                    assert z <= top

    def test_max_value_is_the_top_of_the_support(self):
        assert CardinalityDistribution.constant(3).max_value() == 3
        assert CardinalityDistribution.uniform_int(2, 6).max_value() == 6
        assert CardinalityDistribution.categorical([9, 1, 4], [0.5, 0.2, 0.3]).max_value() == 9
        # lam == 0 puts all the mass on the shift
        assert CardinalityDistribution.shifted_poisson(0.0, 3).max_value() == 3
        assert CardinalityDistribution.shifted_poisson(1.5, 2).max_value() is None

    def test_each_kind_keeps_its_closed_forms_support_and_repr(self):
        C = CardinalityDistribution
        cases = [
            (C.constant(3), 3.0, 3, [(3, 1.0)], "constant(value=3)"),
            (C.uniform_int(2, 5), 3.5, 5, [(2, 0.25), (3, 0.25), (4, 0.25), (5, 0.25)],
             "uniform_int(lo=2, hi=5)"),
            # listed out of order: the mean sums in the given order, the support is sorted
            (C.categorical([5, 2], [0.3, 0.7]), 2.9, 5, [(2, 0.7), (5, 0.3)],
             "categorical(values=[5, 2], probs=[0.3, 0.7])"),
            (C.categorical([1, 4, 9], [0.0, 0.5, 0.5]), 6.5, 9, [(1, 0.0), (4, 0.5), (9, 0.5)],
             "categorical(values=[1, 4, 9], probs=[0.0, 0.5, 0.5])"),
            (C.shifted_poisson(0.0, 3), 3.0, 3, [(3, 1.0)], "shifted_poisson(lam=0.0, shift=3)"),
        ]
        for law, mean, top, pmf, text in cases:
            assert law.mean() == mean
            assert law.max_value() == top
            assert law.pmf_items() == pmf
            assert repr(law) == "CardinalityDistribution." + text
        poisson = C.shifted_poisson(1.5, 2)
        assert poisson.mean() == 3.5 and poisson.max_value() is None
        pmf = poisson.pmf_items()
        assert len(pmf) == 17 and [v for v, _ in pmf] == list(range(2, 19))
        assert pmf[:2] == [(2, 0.22313016014842982), (3, 0.33469524022264474)]
        assert pmf[-1] == (18, 7.0048498129357185e-12)
        assert repr(poisson) == "CardinalityDistribution.shifted_poisson(lam=1.5, shift=2)"
        with pytest.raises(ValueError, match="lam <= 708.396"):
            C.shifted_poisson(math.nan, 1)  # nan would fail every closed form

    def test_every_kind_draws_through_the_one_sample_method(self):
        for law in (CardinalityDistribution.constant(2), CardinalityDistribution.uniform_int(1, 3),
                    CardinalityDistribution.categorical([2, 3], [0.5, 0.5]),
                    CardinalityDistribution.shifted_poisson(1.0, 1)):
            assert law.sample.__func__ is CardinalityDistribution.sample

    def test_capped_wide_law_is_checked_without_its_support(self, monkeypatch):
        walk, read = CardinalityDistribution._support, []

        def counted(law):
            for item in walk(law):
                read.append(item)
                assert len(read) <= 100, "the check reads the support past the cap"
                yield item

        monkeypatch.setattr(CardinalityDistribution, "_support", counted)
        wide = CardinalityDistribution.uniform_int(1, 10**9)
        assert wide.mean() == 500000000.5 and wide.max_value() == 10**9
        assert wide.mass_below(5) == pytest.approx(4e-9, rel=1e-12)
        # the cap is 4 at t = 100: the mass 3e-9 below it is far too little
        with pytest.raises(ValueError, match="cap_sizes"):
            HParams(0.0, 1.0, [], wide, [], steps=100, cap_sizes=True).validate()
        assert len(read) == 5 + 4

    def test_sample_frequencies_match_categorical(self):
        rng = make_rng(7)
        cat = CardinalityDistribution.categorical([2, 5], [0.3, 0.7])
        counts = Counter(cat.sample(rng) for _ in range(20000))
        assert counts[2] / 20000 == pytest.approx(0.3, abs=0.015)

    def test_poisson_mean_close(self):
        rng = make_rng(9)
        d = CardinalityDistribution.shifted_poisson(2.5, 1)
        draws = [d.sample(rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(3.5, abs=0.05)

    def test_pmf_items_sum_to_one(self):
        for dist in (
            CardinalityDistribution.uniform_int(1, 4),
            CardinalityDistribution.categorical([2, 3], [0.5, 0.5]),
            CardinalityDistribution.shifted_poisson(2.0, 1),
        ):
            assert sum(p for _, p in dist.pmf_items()) == pytest.approx(1.0, abs=1e-9)

    def test_forced_draws_leave_the_stream_untouched(self):
        rng = make_rng(11)
        state = rng.getstate()
        assert Categorical([(0, 2)], [1.0]).sample(rng) == (0, 2)
        assert uniform_index(1, rng) == 0
        for dist in (CardinalityDistribution.uniform_int(4, 4),
                     CardinalityDistribution.categorical([4], [1.0]),
                     CardinalityDistribution.shifted_poisson(0.0, 4)):
            assert dist.sample(rng) == 4
        assert rng.getstate() == state

    def test_categorical_picks_the_first_running_sum_above_the_uniform(self):
        law = Categorical("abc", [0.25, 0.5, 0.25])
        for seed in range(200):
            u = make_rng(seed).random()
            assert law.sample(make_rng(seed)) == "abc"[(u >= 0.25) + (u >= 0.75)]

    def test_categorical_pins_its_last_running_sum_to_one(self):
        class Top:
            def random(self):
                return 1.0 - 2.0 ** -53  # the largest uniform

        sevenths = [1 / 7] * 7
        assert sum(sevenths) < Top().random()
        assert Categorical(range(7), sevenths).sample(Top()) == 6

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CardinalityDistribution.constant(0)
        with pytest.raises(ValueError):
            CardinalityDistribution.uniform_int(3, 2)
        with pytest.raises(ValueError):
            CardinalityDistribution.categorical([2, 3], [0.5, 0.6])
        with pytest.raises(ValueError):
            CardinalityDistribution.shifted_poisson(1.0, 0)

    def test_poisson_lam_where_exp_minus_lam_stays_normal(self):
        """exp(-lam) starts both the pmf walk and Knuth's sampler: at lam = 700
        it is a normal float and the walk reaches its mass; past about 708.4
        it is subnormal or 0, and the law is rejected."""
        pmf = CardinalityDistribution.shifted_poisson(700.0, 1).pmf_items()
        assert sum(p for _, p in pmf) >= 1.0 - 1e-12
        for lam in (720.0, 746.0, 800.0):
            with pytest.raises(ValueError, match="lam <= 708.396"):
                CardinalityDistribution.shifted_poisson(lam, 1)


def _selector_with_degrees(degrees, gamma):
    sel = PreferentialSelector(gamma)
    for v, d in enumerate(degrees):
        sel.add_member(v)
        for _ in range(d):
            sel.record_degree_increment([v])
    return sel


class TestPreferentialSelector:
    def test_equal_degrees_are_uniform(self):
        for gamma in (0.0, 1.0, 7.5):
            sel = _selector_with_degrees([1, 1, 1, 1], gamma)
            assert all(p == pytest.approx(0.25) for p in marginals(sel).values())

    def test_marginals_match_formula_without_smoothing(self):
        sel = _selector_with_degrees([3, 1], 0.0)
        assert marginals(sel) == {0: pytest.approx(0.75), 1: pytest.approx(0.25)}

    def test_smoothed_frequencies_within_three_sigma(self):
        sel = _selector_with_degrees([3, 1], 2.0)
        assert marginals(sel)[0] == pytest.approx(5 / 8)
        rng = make_rng(123)
        n = 10 ** 6
        hits = sel.select_vertices(n, rng).count(0)
        sigma = math.sqrt((5 / 8) * (3 / 8) / n)
        assert abs(hits / n - 5 / 8) < 3 * sigma

    def test_increment_grows_occurrences_and_weight(self):
        sel = _selector_with_degrees([2, 2], 1.0)
        before = len(sel.occurrences)
        sel.record_degree_increment([0])
        assert len(sel.occurrences) == before + 1
        sel.record_degree_increment([1, 1])
        assert Counter(sel.occurrences)[1] == 4

    def test_marginals_after_many_increments_match_formula(self):
        rng = random.Random(5)
        gamma = 0.7
        sel = PreferentialSelector(gamma)
        degrees = {}
        for v in range(20):
            sel.add_member(v)
            degrees[v] = 0
        sel.record_degree_increment([0])
        degrees[0] = 1
        for _ in range(100):
            size = rng.randint(1, 4)
            chunk = [rng.randrange(20) for _ in range(size)]
            sel.record_degree_increment(chunk)
            for v in chunk:
                degrees[v] += 1
        total = sum(degrees.values()) + gamma * 20
        expected = {v: (d + gamma) / total for v, d in degrees.items()}
        assert marginals(sel) == expected

    def test_mixture_identity_for_random_configurations(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 12)
            degrees = [rng.randint(0, 9) for _ in range(n)]
            if sum(degrees) == 0:
                degrees[0] = 1
            gamma = rng.choice([0.0, 0.3, 1.0, 5.0])
            d_total = sum(degrees)
            w = d_total + gamma * n
            for v, deg in enumerate(degrees):
                mixture = (d_total / w) * (deg / d_total) + (gamma * n / w) * (1 / n)
                assert mixture == pytest.approx((deg + gamma) / w, abs=1e-12)

    def test_huge_smoothing_approaches_uniform(self):
        degrees = [9, 3, 0, 1]
        sel = _selector_with_degrees(degrees, 1e6 * sum(degrees))
        for p in marginals(sel).values():
            assert abs(p - 1 / len(degrees)) < 1e-6

    def test_selection_does_not_mutate_state(self):
        sel = _selector_with_degrees([2, 1], 0.5)
        rng = make_rng(3)
        before = (list(sel.occurrences), list(sel.members))
        sel.select_vertices(100, rng)
        assert (list(sel.occurrences), list(sel.members)) == before

    def test_empty_population_errors(self):
        sel = PreferentialSelector(1.0)
        with pytest.raises(ValueError):
            sel.select_vertices(1, make_rng(0))

    def test_gamma_zero_needs_positive_degree(self):
        sel = PreferentialSelector(0.0)
        sel.add_member(0)
        with pytest.raises(ValueError):
            sel.select_vertices(1, make_rng(0))


def test_same_seed_reproduces_generated_hypergraph():
    params = HParams(
        p_vertex=0.2,
        p_vertex_edge=0.3,
        p_edge=[0.2, 0.2],
        attach_size=CardinalityDistribution.uniform_int(1, 4),
        edge_sizes=[
            CardinalityDistribution.constant(3),
            CardinalityDistribution.shifted_poisson(1.0, 2),
        ],
        edges_per_event=2,
        gamma=0.5,
        steps=3000,
    )
    a, _ = generate_h(params, seed=99)
    b, _ = generate_h(params, seed=99)
    c, _ = generate_h(params, seed=100)
    assert a.edges == b.edges and a.num_vertices == b.num_vertices
    assert a.edges != c.edges
