import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import zeta

from hypermod import (
    BoundInputs,
    CardinalityDistribution,
    CardinalityProfile,
    DegreeHistogram,
    GParams,
    HParams,
    InterCommunityProfile,
    bound_inputs_from_profile,
    community_marginals,
    degree_fraction_oracle,
    empirical_bound_inputs,
    fit_tail_exponent,
    generate_g,
    modularity_lower_bound_ab,
    modularity_lower_bound_general,
    predict_beta_g,
    predict_beta_h,
)
from hypermod.analysis import _brentq, _hurwitz_zeta, _mean_log_zeta

CONST = CardinalityDistribution.constant


class TestPredictBetaH:
    def test_preferential_attachment_graph_is_cubic(self):
        for m in (1, 2, 3, 5):
            params = HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=m, gamma=0.0)
            assert predict_beta_h(params).beta == pytest.approx(3.0, abs=1e-12)

    def test_grow_or_densify_graph(self):
        for p in (0.1, 0.5, 0.9):
            params = HParams(0.0, p, [1 - p], CONST(2), [CONST(2)], gamma=0.0)
            assert predict_beta_h(params).beta == pytest.approx(2 + p / (2 - p), abs=1e-12)

    def test_single_distribution_hypergraph_family(self):
        for p, size in ((0.3, 3), (0.5, 4), (0.7, 2)):
            params = HParams(0.0, p, [1 - p], CONST(size), [CONST(size)], gamma=0.0)
            degree_rate = size  # p*size + (1-p)*size
            expected = 1 + degree_rate / (degree_rate - p)
            assert predict_beta_h(params).beta == pytest.approx(expected, abs=1e-12)

    def test_rates_reported(self):
        params = HParams(0.3, 0.3, [0.4], CONST(3), [CONST(3)], gamma=1.0)
        pred = predict_beta_h(params)
        assert pred.vertex_rate == pytest.approx(0.6)
        assert pred.degree_rate == pytest.approx(2.1)
        assert pred.tail_ratio == pytest.approx(1.5)
        assert pred.beta == pytest.approx(2.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            predict_beta_h(HParams(0.5, 0.5, [], CONST(1), [], gamma=0.0))


class TestDegreeFractionOracle:
    def params(self):
        return HParams(0.3, 0.3, [0.4], CONST(3), [CONST(3)], edges_per_event=1, gamma=1.0)

    def test_hand_computed_prefix(self):
        table = degree_fraction_oracle(self.params(), 5)
        assert table.limits[0] == pytest.approx(0.18)
        assert table.limits[1] == pytest.approx(0.18)
        assert table.limits[2] == pytest.approx(0.08)
        assert table.per_vertex[0] == pytest.approx(0.3)

    def test_partial_sums_monotone_to_one(self):
        table = degree_fraction_oracle(self.params(), 20000)
        partial = np.cumsum(table.per_vertex)
        assert np.all(np.diff(partial) >= 0)
        assert partial[-1] <= 1.0 + 1e-9
        assert partial[-1] == pytest.approx(1.0, abs=1e-3)

    def test_tail_matches_amplitude(self):
        params = HParams(0.5, 0.5, [], CONST(2), [], edges_per_event=1, gamma=1.0)
        pred = predict_beta_h(params)
        table = degree_fraction_oracle(params, 100_000)
        k = 100_000
        assert table.limits[k] * k ** pred.beta / pred.amplitude == pytest.approx(1.0, abs=2e-3)

    def test_nonzero_bump_at_attachment_degree(self):
        params = HParams(0.2, 0.5, [0.3], CONST(2), [CONST(3)], edges_per_event=4, gamma=0.5)
        table = degree_fraction_oracle(params, 10)
        # the jump from new attached vertices appears exactly at degree m
        ratios = [table.limits[k + 1] / table.limits[k] for k in range(1, 8)]
        assert ratios[3 - 1] > ratios[1 - 1]  # k=m=4 bump visible against k=2

    def test_pure_vertex_process_is_degenerate(self):
        with pytest.raises(ValueError):
            degree_fraction_oracle(HParams(1.0, 0.0, [], CONST(1), []), 10)

    def test_k_max_below_attachment_degree_rejected(self):
        params = HParams(0.0, 1.0, [], CONST(2), [], edges_per_event=5)
        with pytest.raises(ValueError):
            degree_fraction_oracle(params, 3)

    def test_empirical_match_small(self):
        from statistics import fmean, stdev
        from hypermod import generate_h

        params = self.params()
        params = params._replace(steps=20_000)
        samples = [[] for _ in range(11)]
        for rep in range(10):
            h, _ = generate_h(params, seed=7000 + rep)
            hist = h.degree_histogram()
            for k in range(11):
                samples[k].append(hist.counts.get(k, 0) / hist.total_vertices)
        table = degree_fraction_oracle(params, 10)
        for k in range(11):
            se = stdev(samples[k]) / math.sqrt(10)
            assert abs(fmean(samples[k]) - table.per_vertex[k]) < 4 * se + 1e-4


class TestPredictBetaG:
    def test_symmetric_parameters_equalize(self):
        profile = InterCommunityProfile({(0,): 0.4, (1,): 0.4, (0, 1): 0.2}, 2)
        params = GParams(0.4, [0.5, 0.5], profile, [CONST(3), CONST(3)], gamma=2.0)
        beta, per_community = predict_beta_g(params)
        assert per_community[0] == pytest.approx(per_community[1], abs=1e-12)
        assert beta == pytest.approx(per_community[0])

    def test_zero_gamma_gives_two(self):
        profile = InterCommunityProfile({(0,): 0.7, (1,): 0.3}, 2)
        params = GParams(0.3, [0.6, 0.4], profile, [CONST(2), CONST(5)], gamma=0.0)
        beta, per_community = predict_beta_g(params)
        assert beta == pytest.approx(2.0, abs=1e-12)
        assert all(b == pytest.approx(2.0, abs=1e-12) for b in per_community)

    def test_hand_value(self):
        # touch probabilities s = (0.7, 0.5)
        profile = InterCommunityProfile({(0,): 0.5, (1,): 0.3, (0, 1): 0.2}, 2)
        params = GParams(0.5, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0)
        beta, per_community = predict_beta_g(params)
        # m_j/s_j minimal for the community with larger touch probability
        s = community_marginals(profile)
        expected = 2 + (0.5 / (0.5 * 2.0)) * min(0.5 / s[0], 0.5 / s[1])
        assert beta == pytest.approx(expected, abs=1e-12)
        assert beta == pytest.approx(2 + 0.5 * (0.5 / 0.7), abs=1e-12)

    def test_untouched_community_flagged(self):
        profile = InterCommunityProfile({(0,): 1.0}, 2)
        params = GParams(0.5, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0)
        with pytest.raises(ValueError):
            predict_beta_g(params)

    def test_p_one_rejected(self):
        profile = InterCommunityProfile({(0,): 1.0}, 1)
        params = GParams(1.0, [1.0], profile, [CONST(2)], gamma=1.0)
        with pytest.raises(ValueError):
            predict_beta_g(params)


class TestFitTailExponent:
    def test_consistency_on_exact_zeta_sample(self):
        rng = np.random.default_rng(0)
        sample = rng.zipf(2.5, 100_000)
        hist = DegreeHistogram(dict(Counter(sample.tolist())), len(sample))
        fit = fit_tail_exponent(hist, k_min=1)
        assert 2.45 <= fit.beta_hat <= 2.55
        assert fit.n_tail == 100_000

    def test_all_equal_degrees_error(self):
        hist = DegreeHistogram({5: 1000}, 1000)
        with pytest.raises(ValueError):
            fit_tail_exponent(hist, k_min=5)
        with pytest.raises(ValueError):
            fit_tail_exponent(hist)

    def test_insufficient_tail_mass_error(self):
        hist = DegreeHistogram({1: 20, 2: 10}, 30)
        with pytest.raises(ValueError):
            fit_tail_exponent(hist, k_min=1)

    def test_scale_free_in_counts(self):
        rng = np.random.default_rng(1)
        sample = rng.zipf(2.2, 5000)
        counts = dict(Counter(sample.tolist()))
        doubled = {k: 2 * c for k, c in counts.items()}
        a = fit_tail_exponent(DegreeHistogram(counts, 5000))
        b = fit_tail_exponent(DegreeHistogram(doubled, 10000))
        assert a.beta_hat == pytest.approx(b.beta_hat, abs=1e-9)
        assert a.k_min == b.k_min

    def test_ks_selection_ignores_distorted_head(self):
        rng = np.random.default_rng(2)
        tail = rng.zipf(2.8, 40_000) + 4  # clean power law only beyond degree 5
        head = rng.integers(1, 5, 60_000)
        hist = DegreeHistogram(dict(Counter(np.concatenate([tail, head]).tolist())), 100_000)
        fit = fit_tail_exponent(hist)
        assert fit.k_min >= 4
        assert fit.beta_hat > 2.0

    def test_degree_zero_never_fits(self):
        hist = DegreeHistogram({0: 10_000, 1: 60, 2: 25, 3: 15}, 10_100)
        fit = fit_tail_exponent(hist, k_min=1)
        assert fit.n_tail == 100

    def test_no_likelihood_value_is_computed_twice(self, monkeypatch):
        """The root solve reuses the bracket ends' values from the bracket search."""
        from hypermod import analysis

        calls = []
        mean_log_zeta = analysis._mean_log_zeta

        def counted(beta, k_min):
            calls.append((beta, k_min))
            return mean_log_zeta(beta, k_min)

        monkeypatch.setattr(analysis, "_mean_log_zeta", counted)
        sample = np.random.default_rng(3).zipf(2.5, 20_000)
        fit_tail_exponent(DegreeHistogram(dict(Counter(sample.tolist())), len(sample)))
        assert calls
        assert len(set(calls)) == len(calls)

    def test_cutoff_below_one_rejected(self):
        hist = DegreeHistogram({1: 600, 2: 250, 3: 150}, 1000)
        for k_min in (0, -4):
            with pytest.raises(ValueError, match="k_min"):
                fit_tail_exponent(hist, k_min=k_min)

    def test_non_integral_cutoff_rejected(self):
        """A cutoff of 5.5 would count the tail from degree 6 but normalize
        the law from 5."""
        counts = {k: 10_000 // k ** 2 for k in range(1, 60)}
        hist = DegreeHistogram(counts, sum(counts.values()))
        with pytest.raises(ValueError, match=r"^k_min must be an integer, got 5\.5$"):
            fit_tail_exponent(hist, k_min=5.5)
        assert fit_tail_exponent(hist, k_min=5.0) == fit_tail_exponent(hist, k_min=5)

    def test_underflowing_tail_is_one_value_error_without_warnings(self, recwarn):
        """49 vertices of degree 1000 and one of 1001: the bracket search
        reaches beta = 128, where zeta(beta, 1000) underflows to 0 and the
        model mean is 0/0."""
        hist = DegreeHistogram({1000: 49, 1001: 1}, 50)
        with pytest.raises(ValueError, match=r"^the function value at x=128\.0 is NaN; "
                                             r"the solver cannot continue$"):
            fit_tail_exponent(hist, k_min=1000)
        with pytest.raises(ValueError, match="^no cutoff leaves 50 tail samples$"):
            fit_tail_exponent(hist)
        assert not recwarn.list

    def test_underflowed_zeta_divides_as_float64(self, recwarn):
        assert math.isnan(_mean_log_zeta(128.0, 1000))  # 0 / 0
        # zeta(1075, 2) is 2**-1075, which rounds to 0, but zeta(1075 - 1e-7, 2)
        # keeps the smallest subnormal, so the slope over the zero is +inf
        assert _mean_log_zeta(1075.0, 2) == math.inf
        assert not recwarn.list

def _mle_problem(rng):
    """A likelihood equation as ``_mle_beta`` sets it up, bracket included,
    or None when ``_mle_beta`` would not reach the root solve."""
    k_min = rng.randint(1, 40)
    mean_ln = _mean_log_zeta(rng.uniform(1.05, 6.0), k_min) * rng.uniform(0.9, 1.1)
    if mean_ln <= math.log(k_min) + 1e-12:
        return None

    def f(b):
        return _mean_log_zeta(b, k_min) - mean_ln

    lo, hi = 1.0 + 1e-5, 4.0
    if f(lo) <= 0:
        return None
    while f(hi) > 0:
        hi *= 2.0
    return f, lo, hi


class TestBrentq:
    """The in-package root solver against ``scipy.optimize.brentq``."""

    def test_bit_identical_on_likelihood_equations(self):
        rng = random.Random(17)
        solved = 0
        while solved < 1000:
            problem = _mle_problem(rng)
            if problem is None:
                continue
            f, lo, hi = problem
            assert _brentq(f, lo, hi, xtol=1e-10) == brentq(f, lo, hi, xtol=1e-10)
            solved += 1

    def test_bit_identical_on_generic_brackets(self):
        rng = random.Random(23)
        solved = 0
        while solved < 1000:
            c = [rng.uniform(-3.0, 3.0) for _ in range(4)]
            w = rng.uniform(0.5, 20.0)

            def f(x):
                return c[0] + c[1] * x + c[2] * x * x + c[3] * x ** 3 + math.sin(w * x)

            lo, hi = rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)
            if (f(lo) < 0) == (f(hi) < 0):
                continue
            xtol = 10.0 ** rng.uniform(-14.0, -2.0)
            ours = _brentq(f, lo, hi, xtol=xtol)
            assert ours == brentq(f, lo, hi, xtol=xtol)
            assert math.copysign(1.0, ours) == math.copysign(1.0, brentq(f, lo, hi, xtol=xtol))
            solved += 1

    def test_root_at_an_endpoint_is_returned_as_given(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0
        assert math.copysign(1.0, _brentq(lambda x: x, -0.0, 2.0, xtol=1e-12)) == -1.0

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)

    def test_nan_rejected_at_an_end_and_mid_solve(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0, xtol=1e-12)
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if 0.2 < x < 0.4 else x - 0.3

        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0, xtol=1e-12)
        assert len(calls) > 2

    def test_nonconvergence_is_a_value_error(self):
        def step(x):  # a sign change without a root: the bracket only halves
            return -1.0 if x < 1 / 3 else 1.0

        with pytest.raises(RuntimeError):
            brentq(step, -1e300, 1e300, xtol=1e-300)
        with pytest.raises(ValueError, match="converge"):
            _brentq(step, -1e300, 1e300, xtol=1e-300)


class TestHurwitzZeta:
    """The in-package Hurwitz zeta against ``scipy.special.zeta``."""

    @staticmethod
    def assert_same(x, q):
        ours, theirs = _hurwitz_zeta(x, q), float(zeta(x, q))
        if math.isnan(theirs):
            assert math.isnan(ours), (x, q)
        else:
            assert ours == theirs and math.copysign(1.0, ours) == math.copysign(1.0, theirs), (x, q)

    def test_bit_identical_on_tail_fit_inputs(self):
        rng = random.Random(31)
        qs = ([float(q) for q in range(1, 3001)] + [rng.uniform(1.0, 1e6) for _ in range(2000)]
              + [1e8, 2e8, 1e9])
        for q in qs:
            near_one = 1.0 + 10.0 ** rng.uniform(-6.0, 0.7)  # x - 1 from 1e-6 to 5
            for x in (near_one, near_one - 1e-7, near_one + 1e-7, 10.0 ** rng.uniform(0.0, 6.0)):
                self.assert_same(x, q)

    def test_underflow_to_zero(self):
        for x, q in ((128.0, 1000.0), (1075.0, 2.0), (1e4, 2.0), (1e6, 1.5), (1e13, 1e7)):
            assert _hurwitz_zeta(x, q) == 0.0
            self.assert_same(x, q)
        assert _hurwitz_zeta(1075.0 - 1e-7, 2.0) == 5e-324  # 2**-1074, the last subnormal
        self.assert_same(1075.0 - 1e-7, 2.0)

    def test_poles_and_domain(self):
        for q in (1.0, 3.5, 1e9):
            assert _hurwitz_zeta(1.0, q) == math.inf
            self.assert_same(1.0, q)
        for x in (0.999, 0.0, -2.0):
            assert math.isnan(_hurwitz_zeta(x, 2.0))
            self.assert_same(x, 2.0)
        for q in (0.0, -1.0, -7.0):
            assert _hurwitz_zeta(2.5, q) == math.inf
            self.assert_same(2.5, q)

    def test_bit_identical_below_q_one(self):
        """Outside the tail fit's q >= 1, where no power overflows; a negative
        non-integer q needs an integer x."""
        for x, q in ((3.0, 0.01), (50.0, 0.5), (3.0, -2.5), (4.0, -7.25), (2.5, -2.5)):
            self.assert_same(x, q)

def two_uniform_profile():
    return CardinalityProfile({2: 1.0}, 2.0)


class TestBounds:
    def test_general_two_uniform_matches_remark_form(self):
        rng = random.Random(9)
        for _ in range(30):
            r = rng.randint(1, 6)
            p = [rng.uniform(0, 1.0 / r) for _ in range(r)]
            s = [min(1.0, pi + rng.uniform(0, 0.3)) for pi in p]
            inputs = BoundInputs(p, s, two_uniform_profile(), 2)
            general = modularity_lower_bound_general(inputs)
            remark = sum(p) - 0.25 * sum((si + pi) ** 2 for pi, si in zip(p, s))
            assert general == pytest.approx(remark, abs=1e-12)

    def test_two_uniform_symmetric_tight_value(self):
        inputs = BoundInputs([0.5, 0.5], [0.5, 0.5], two_uniform_profile(), 2)
        assert modularity_lower_bound_general(inputs) == pytest.approx(0.5, abs=1e-12)

    def test_ab_two_uniform_remark(self):
        # closed 2-uniform form: 1 - r beta^2 - alpha (1 + alpha + 2 beta)
        val = modularity_lower_bound_ab(0.2, 0.4, two_uniform_profile(), 2, 2)
        assert val == pytest.approx(0.28, abs=1e-12)
        assert val == pytest.approx(1 - 2 * 0.4 ** 2 - 0.2 * (1 + 0.2 + 2 * 0.4), abs=1e-12)

    def test_ab_tight_case(self):
        for r in (2, 5, 10, 47):
            val = modularity_lower_bound_ab(0.0, 1.0 / r, two_uniform_profile(), 2, r)
            assert val == pytest.approx(1 - 1 / r, abs=1e-12)

    def test_relaxed_bound_never_exceeds_general(self):
        rng = random.Random(10)
        for _ in range(40):
            r = rng.randint(2, 5)
            subsets = [(i,) for i in range(r)]
            subsets += [(i, j) for i in range(r) for j in range(i + 1, r)]
            weights = [rng.random() + 0.01 for _ in subsets]
            total = sum(weights)
            profile = InterCommunityProfile(
                {s: w / total for s, w in zip(subsets, weights)}, r
            )
            d = rng.choice([2, 3, 5])
            sizes = {}
            remaining = 1.0
            for ell in range(1, d):
                share = rng.uniform(0, remaining)
                if share > 0:
                    sizes[ell] = share
                remaining -= share
            sizes[d] = remaining
            delta = sum(ell * a for ell, a in sizes.items())
            card = CardinalityProfile(sizes, delta)
            # the random cardinality mixes come from no model, so the inputs
            # are built here rather than by bound_inputs_from_profile
            p_within = [profile.probability((i,)) for i in range(r)]
            inputs = BoundInputs(p_within, community_marginals(profile), card, d)
            general = modularity_lower_bound_general(inputs)
            relaxed = modularity_lower_bound_ab(
                inputs.alpha_noise, inputs.beta_max, card, inputs.max_cardinality, r
            )
            assert relaxed <= general + 1e-12

    def test_bound_inputs_from_profile(self):
        profile = InterCommunityProfile({(0,): 0.4, (1,): 0.35, (2,): 0.25}, 3)
        params = GParams(0.3, [0.4, 0.35, 0.25], profile, [CONST(2)] * 3)
        inputs = bound_inputs_from_profile(params)
        assert inputs.alpha_noise == pytest.approx(0.0, abs=1e-12)
        assert inputs.p_within == pytest.approx([0.4, 0.35, 0.25])
        assert inputs.s_touch == pytest.approx([0.4, 0.35, 0.25])
        assert inputs.profile == two_uniform_profile()
        assert inputs.max_cardinality == 2
        assert inputs.num_communities == 3

    def test_bound_inputs_size_cap_is_the_largest_drawable_size(self):
        profile = InterCommunityProfile({(0,): 0.5, (1,): 0.3, (0, 1): 0.2}, 2)
        uniform = CardinalityDistribution.uniform_int(1, 5)
        inputs = bound_inputs_from_profile(GParams(0.3, [0.5, 0.5], profile, [uniform, CONST(3)]))
        # a pair of communities, each drawing at most 5 vertices
        assert inputs.max_cardinality == 10
        # a chunk has mean 3 under either law; singletons w.p. 0.8, pairs w.p. 0.2
        assert inputs.profile.delta == pytest.approx(0.8 * 3 + 0.2 * 6, abs=1e-12)
        poisson = CardinalityDistribution.shifted_poisson(1.0, 2)
        params = GParams(0.3, [0.5, 0.5], profile, [poisson, CONST(3)])
        assert bound_inputs_from_profile(params).max_cardinality is None

    def test_diagonal_profile_inputs(self):
        from hypermod.experiments import diagonal_profile

        alpha = 0.3
        profile = diagonal_profile(47, alpha)
        params = GParams(0.3, [1 / 47] * 47, profile, [CONST(2)] * 47)
        inputs = bound_inputs_from_profile(params)
        assert inputs.p_within == pytest.approx([(1 - alpha) / 47] * 47)
        assert inputs.alpha_noise == pytest.approx(alpha, abs=1e-12)

    def test_empirical_inputs_match_profile(self):
        profile = InterCommunityProfile({(0,): 0.5, (1,): 0.2, (0, 1): 0.3}, 2)
        params = GParams(0.3, [0.5, 0.5], profile, [CONST(2), CONST(2)], gamma=1.0,
                         steps=100_000)
        g, planted, stats = generate_g(params, seed=12)
        inputs = empirical_bound_inputs(g, planted)
        n = g.num_edges
        for i in range(2):
            p_i = profile.probability((i,))
            sigma = math.sqrt(p_i * (1 - p_i) / n)
            # seed edges shift the within fraction by 1/n each
            assert abs(inputs.p_within[i] - p_i) < 3 * sigma + 2.0 / n


def test_reduction_and_theorem_formula_agree_randomized():
    rng = random.Random(14)
    for _ in range(30):
        r = rng.randint(1, 5)
        mem = [rng.random() + 0.05 for _ in range(r)]
        mem = [m / sum(mem) for m in mem]
        subsets = [(i,) for i in range(r)]
        if r > 1:
            subsets += [(i, j) for i in range(r) for j in range(i + 1, r)]
        weights = [rng.random() + 0.02 for _ in subsets]
        total = sum(weights)
        profile = InterCommunityProfile({s: w / total for s, w in zip(subsets, weights)}, r)
        params = GParams(
            rng.uniform(0.05, 0.95), mem, profile,
            [CONST(rng.randint(1, 6)) for _ in range(r)],
            gamma=rng.uniform(0, 4),
        )
        beta, per_community = predict_beta_g(params)
        s = community_marginals(profile)
        mu_bar = sum(d.mean() for d in params.edge_sizes) / r
        scale = params.gamma * params.p_vertex / ((1 - params.p_vertex) * mu_bar)
        expected = 2 + scale * min(m / sj for m, sj in zip(params.membership, s))
        assert beta == pytest.approx(expected, abs=1e-12)


def test_limit_fractions_eventually_decrease():
    params = HParams(0.2, 0.5, [0.3], CONST(2), [CONST(3)], edges_per_event=4, gamma=0.5)
    table = degree_fraction_oracle(params, 200)
    m = params.edges_per_event
    tail = table.limits[m:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
