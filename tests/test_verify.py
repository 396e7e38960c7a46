"""Enumeration oracles, Monte Carlo harness, and seeding discipline."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapcert import hamiltonian as ham
from gapcert import model
from gapcert import verify as vf
from gapcert.config import random_gibbs_instance
from gapcert.hamiltonian import Gibbs, constant_algorithm, mean_embedding_algorithm
from gapcert.model import (
    BLOCK_ROWS,
    BudgetExceeded,
    CosineLoss,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
)
from gapcert.verify import (
    MethodStats,
    MomentCheckReport,
    check_bernstein_unit_mgf,
    check_gaussian_identity,
    check_logZ_bounded_differences,
    check_martingale_mgf,
    check_phi_lemma,
    check_proposition_main,
    check_self_bounding,
    exact_mixed_mgf,
    kl_bernoulli_vec,
    phi,
    substream,
    tightness_report,
    violation_rate_gaussian,
    violation_rate_gibbs,
)


def small_instance():
    space, loss = random_gibbs_instance(seed=3, num_points=3, num_hypotheses=4)
    return space, loss, PriorWeights.uniform(4)


class TestSubstream:
    def test_repeatable(self):
        a = substream(5, 3).random(4)
        b = substream(5, 3).random(4)
        assert np.array_equal(a, b)

    def test_indices_independent(self):
        a = substream(5, 3).random(4)
        b = substream(5, 4).random(4)
        assert not np.array_equal(a, b)

    def test_seeds_below_2_63_keep_their_streams(self):
        """The uint64 key gives the streams the (seed, index) tuple key gave
        wherever that tuple was exact."""
        for seed in (0, 9055, 2**63 - 1):
            old = np.random.Generator(np.random.Philox(key=(seed, 7)))
            assert np.array_equal(substream(seed, 7).random(8), old.random(8))

    @pytest.mark.parametrize("seed,other", [(2**63 + 1, 2**63), (2**64 - 1, 0),
                                            (2**64 - 2, 0)])
    def test_wide_seeds_distinct(self, seed, other):
        """Seeds of 2^63 and above once went through float64 and aliased."""
        assert not np.array_equal(substream(seed, 0).random(4),
                                  substream(other, 0).random(4))

    def test_seed_past_64_bits_raises(self):
        with pytest.raises(OverflowError):
            substream(2**64, 0)


class TestMixedMgf:
    def test_vanishes_at_lambda_zero(self):
        space, loss, prior = small_instance()
        v = exact_mixed_mgf(Gibbs(beta=2.0), space, loss, prior, n=3, lam=1e-12)
        assert abs(v) < 1e-10

    def test_convex_in_lambda(self):
        space, loss, prior = small_instance()
        spec = Gibbs(beta=2.0)
        lams = [0.5, 1.0, 1.5]
        vals = [exact_mixed_mgf(spec, space, loss, prior, n=3, lam=l) for l in lams]
        assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-12

    def test_main_proposition_on_small_instance(self):
        space, loss, prior = small_instance()
        r = check_proposition_main(Gibbs(beta=3.0), space, loss, prior, n=3,
                                   F=lambda h, s: 0.2 * h)
        assert r.regime == "exact_enumeration"
        assert r.passed
        assert len(r.details["psi_per_hypothesis"]) == loss.num_hypotheses

    def test_main_proposition_calls_F_once_per_hypothesis_per_block(self):
        """F gets blocks of sample rows, not one sample at a time: one call
        per hypothesis per block of at most BLOCK_ROWS C-contiguous rows."""
        space, loss = random_gibbs_instance(seed=3, num_points=3, num_hypotheses=2)
        n = 8
        S = space.size**n  # 6,561 rows, all in the support
        assert S > BLOCK_ROWS
        calls = []

        def F(h, rows):
            calls.append((h, rows))
            return np.full(len(rows), 0.1 * h)

        check_proposition_main(Gibbs(beta=2.0), space, loss, PriorWeights.uniform(2), n, F)
        assert len(calls) == loss.num_hypotheses * math.ceil(S / BLOCK_ROWS)
        for h, rows in calls:
            assert rows.ndim == 2 and rows.shape[1] == n and len(rows) <= BLOCK_ROWS
            assert rows.dtype.kind == "i" and rows.flags.c_contiguous
        for h in range(loss.num_hypotheses):
            assert sum(len(rows) for g, rows in calls if g == h) == S

    def test_bernstein_unit_mgf(self):
        space, loss, prior = small_instance()
        reports = check_bernstein_unit_mgf(space, loss, n=3, c=0.05, delta=0.1)
        assert len(reports) == loss.num_hypotheses
        assert all(r.passed for r in reports)
        assert all(r.rhs == 0.0 for r in reports)


class TestVerdicts:
    def test_mixed_mgf_over_budget_is_a_budget_refusal(self):
        space, loss, prior = small_instance()
        with pytest.raises(BudgetExceeded):
            exact_mixed_mgf(Gibbs(beta=1.0), space, loss, prior, n=5, lam=1.0, budget=100)

    # small_instance at n = 5 has |X|^n x m = 3^5 x 4 = 972 states, and every
    # Gibbs exact check counts all of them against the budget
    GIBBS_EXACT_CHECKS = {
        "exact_mixed_mgf": lambda space, loss, prior, budget: exact_mixed_mgf(
            Gibbs(beta=2.0), space, loss, prior, 5, lam=1.0, budget=budget),
        "check_proposition_main": lambda space, loss, prior, budget: check_proposition_main(
            Gibbs(beta=2.0), space, loss, prior, 5, F=lambda h, s: 0.2 * h, budget=budget),
        "check_bernstein_unit_mgf": lambda space, loss, prior, budget: check_bernstein_unit_mgf(
            space, loss, 5, c=0.05, delta=0.1, budget=budget),
        "bounded_difference_coefficient": lambda space, loss, prior, budget:
            ham.bounded_difference_coefficient(Gibbs(beta=2.0), space, loss, 5, budget=budget),
        "check_logZ_bounded_differences": lambda space, loss, prior, budget:
            check_logZ_bounded_differences(Gibbs(beta=2.0), space, loss, prior, 5,
                                           budget=budget),
    }

    @pytest.mark.parametrize("check", sorted(GIBBS_EXACT_CHECKS))
    def test_gibbs_check_refused_one_state_below_budget(self, check):
        with pytest.raises(BudgetExceeded, match="3\\^5 x 4 = 972 states exceeds budget 971"):
            self.GIBBS_EXACT_CHECKS[check](*small_instance(), budget=971)

    @pytest.mark.parametrize("check", sorted(GIBBS_EXACT_CHECKS))
    def test_gibbs_check_runs_at_budget(self, check):
        self.GIBBS_EXACT_CHECKS[check](*small_instance(), budget=972)

    def test_quadrature_rule(self):
        """A quadrature report passes within QUADRATURE_RTOL relative error."""
        def report(lhs):
            return MomentCheckReport("quad", lhs=lhs, rhs=2.0, regime="quadrature")

        tol = 2.0 * vf.QUADRATURE_RTOL
        assert report(2.0).passed
        assert report(2.0 + tol / 2).passed and report(2.0 - tol / 2).passed
        assert not report(2.0 + 2 * tol).passed and not report(2.0 - 2 * tol).passed
        assert not report(math.inf).passed
        assert not report(math.nan).passed
        # |1 - inf| <= 1e-12 inf, but an infinite rhs is no moment to meet
        assert not MomentCheckReport("quad", 1.0, math.inf, regime="quadrature").passed
        assert not MomentCheckReport("quad", math.inf, math.inf, regime="quadrature").passed


class TestMartingaleAndLogZ:
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_cases_pass_exactly(self, case):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.35, 0.65]))
        reports = check_martingale_mgf(space, n=3, case=case, num_trials=5, seed=7)
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    def test_unknown_case_rejected(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            check_martingale_mgf(space, n=2, case="iv", num_trials=1)

    def test_log_partition_differences(self):
        space, loss, prior = small_instance()
        reports = check_logZ_bounded_differences(Gibbs(beta=4.0), space, loss, prior, n=3)
        names = {r.name for r in reports}
        assert names == {"logZ_bounded_differences", "canonical_bounded_differences"}
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("beta,n,probs", [(2.0, 2, None), (4.0, 5, None),
                                              (3.0, 4, [0.5, 0.0, 0.5])])
    def test_log_partition_coefficient_equals_hamiltonian_coefficient(self, beta, n, probs):
        """The check takes c from the H it holds; c is, bit for bit, the
        value of bounded_difference_coefficient."""
        space, loss, prior = small_instance()
        if probs is not None:
            space = FiniteDataSpace(points=space.points, probs=np.array(probs))
        reports = check_logZ_bounded_differences(Gibbs(beta), space, loss, prior, n=n)
        c, _ = ham.bounded_difference_coefficient(Gibbs(beta), space, loss, n)
        assert [r.rhs for r in reports] == [c, 2.0 * c]


class TestGaussianIdentity:
    @staticmethod
    def off_axis(d):
        u = np.arange(1.0, d + 1.0)
        return u / np.linalg.norm(u)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 2.0])
    def test_grid_within_tolerance(self, d, lam, ratio):
        sigma = 0.5
        w = np.linspace(-0.3, 0.4, d)
        r = check_gaussian_identity(w, w + ratio * sigma * self.off_axis(d), sigma, lam)
        assert r.regime == "quadrature" and r.passed
        assert r.rhs == pytest.approx(math.exp((lam**2 - lam) * ratio**2 / 2), rel=1e-13)
        assert r.details["dist_over_sigma"] == pytest.approx(ratio, rel=1e-15, abs=1e-15)
        assert r.details["relative_error"] <= vf.QUADRATURE_RTOL

    def test_degenerate_shift_is_exactly_one(self):
        for d in (1, 2, 5):
            w = np.linspace(0.3, -0.1, d)
            r = check_gaussian_identity(w=w, v=w, sigma=0.7, lam=1.3)
            assert r.rhs == 1.0
            assert abs(r.lhs - 1.0) <= vf.QUADRATURE_RTOL and r.passed, r

    def test_matches_closed_form_at_lambda_one(self):
        """At lam = 1 the integrand is a likelihood ratio, of mean 1."""
        r = check_gaussian_identity(w=[0.0], v=[0.5], sigma=0.5, lam=1.0)
        assert r.rhs == 1.0
        assert r.passed

    @pytest.mark.parametrize("d", [2, 5])
    def test_off_axis_shift(self, d):
        """The tensor rule at d = 2 and the rule along v - w at d = 5 agree
        with the closed form wherever v - w points, and the distance is
        |v - w|, not its first coordinate."""
        for direction in (self.off_axis(d), -self.off_axis(d)[::-1], np.eye(d)[-1]):
            r = check_gaussian_identity(np.zeros(d), 1.5 * direction, sigma=1.0, lam=2.0)
            assert r.details["dist_over_sigma"] == pytest.approx(1.5, rel=1e-15)
            assert r.passed, r

    def test_range_of_the_rule(self):
        """60 nodes meet the identity up to lam |v - w| / sigma = 8.5; past
        that the report fails rather than passes or raises."""
        assert check_gaussian_identity([0.0], [8.5 / 3.0], sigma=1.0, lam=3.0).passed
        assert not check_gaussian_identity([0.0], [10.0 / 3.0], sigma=1.0, lam=3.0).passed

    @pytest.mark.parametrize("w, v, lam", [([0.0], [20.0], 3.0),
                                           ([0.0, 0.0, 0.0], [10.0, 1.0, 2.0], 30.0)])
    def test_past_the_float_range_fails(self, w, v, lam):
        """A closed form past the float range (exp(1200) at |v - w| = 20,
        lam = 3), and an integrand past it too, give a failing report with
        an infinite rhs, not an OverflowError or a RuntimeWarning."""
        report = check_gaussian_identity(w, v, sigma=1.0, lam=lam)
        assert report.rhs == math.inf and not report.passed

    DOMAIN_REFUSALS = [
        ([0.0], [1.0], 0.0, 1.0, "sigma"),
        ([0.0], [1.0], -1.0, 1.0, "sigma"),
        ([0.0], [1.0], math.nan, 1.0, "sigma"),
        ([0.0], [1.0], math.inf, 1.0, "sigma"),
        ([0.0], [1e200], 1.0, 3.0, "v - w"),
        ([1e308], [-1e308], 1.0, 1.5, "v - w"),
        ([0.0], [1.0], 1.0, 0.5, "lam"),
        ([0.0], [1.0], 1.0, math.nan, "lam"),
        ([0.0], [1.0], 1.0, math.inf, "lam"),
        ([0.0, 0.0], [1.0], 1.0, 1.5, "v"),  # not broadcast to (1, 1)
        ([0.0], [1.0, 1.0], 1.0, 1.5, "v"),
        ([0.0], [math.inf], 1.0, 1.5, "v"),
        ([[0.0, 0.0]], [[1.0, 0.0]], 1.0, 1.5, "w"),
        (0.0, 1.0, 1.0, 1.5, "w"),
        ([], [], 1.0, 1.5, "w"),
        ([math.nan], [1.0], 1.0, 1.5, "w"),
    ]

    def test_domain(self):
        for w, v, sigma, lam, name in self.DOMAIN_REFUSALS:
            with pytest.raises(ValueError, match=f"^{name} must"):
                check_gaussian_identity(w, v, sigma=sigma, lam=lam)

    def test_extreme_sigma(self):
        """The integrand is taken in units of sigma, so sigma^2 is never formed:
        a huge sigma passes (exactly 1 at lam = 1), a tiny one is refused once
        |v - w|^2 / sigma^2 overflows, and below that fails as any
        lam |v - w| / sigma far past 8.5 does."""
        for w, v, sigma in (([0.0], [1.0], 1e200), ([0.0], [1.0], 1.4e154),
                            ([0.0], [1.0], 1e154)):
            report = check_gaussian_identity(w, v, sigma=sigma, lam=1.0)
            assert report.rhs == 1.0 and report.passed, report
        for w, v, sigma in (([0.0], [1.0], 1e-200), ([0.0], [1e150], 1.5e-154)):
            with pytest.raises(ValueError, match="^v - w must"):
                check_gaussian_identity(w, v, sigma=sigma, lam=1.0)
        report = check_gaussian_identity([0.0], [1.0], sigma=1.4e-154, lam=1.0)
        assert report.rhs == 1.0 and not report.passed


class TestSelfBoundingAndPhi:
    def test_mean_embedding_passes(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.4, 0.6]))
        algo = mean_embedding_algorithm(np.array([[0.0, 0.0], [1.0, 0.25]]), n=4)
        reports = check_self_bounding(space, n=4, algorithm=algo)
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    def test_zero_probability_point(self):
        """Substituting a zero-probability point reaches a sample outside the
        enumerated support; its f is evaluated, not looked up."""
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.4, 0.0, 0.6]))
        algo = mean_embedding_algorithm(
            np.array([[0.0, 0.0], [1.0, 0.25], [0.5, 0.5]]), n=3)
        reports = check_self_bounding(space, n=3, algorithm=algo)
        assert reports and all(r.passed for r in reports)

    def test_algorithm_evaluated_once_per_row(self):
        """The guard and the sensitivity c_A share one call of A, on all the
        rows of X^n at once."""
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.2, 0.3, 0.5]))
        algo = mean_embedding_algorithm(np.array([[0.0, 0.0], [1.0, 0.25], [0.5, 0.5]]), n=4)
        calls = []
        counting = ham.StableAlgorithm(map=lambda s: calls.append(1) or algo.map(s),
                                       dim_d=algo.dim_d, declared_c_A=algo.declared_c_A,
                                       variance_fn=algo.variance_fn)
        assert check_self_bounding(space, n=4, algorithm=counting) == \
            check_self_bounding(space, n=4, algorithm=algo)
        assert len(calls) == 1

    @pytest.mark.parametrize("probs", [[0.2, 0.3, 0.5], [0.4, 0.0, 0.6]])
    def test_samples_enumerated_once(self, monkeypatch, probs):
        """X^n is enumerated once, by model.enumerate_indices, whose grid
        both the algorithm and the support's weights are read from."""
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array(probs))
        algo = mean_embedding_algorithm(np.array([[0.0, 0.0], [1.0, 0.25], [0.5, 0.5]]), n=3)
        calls, rows = [], model.product_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return rows(*args, **kwargs)

        monkeypatch.setattr(model, "product_rows", counting)
        monkeypatch.setattr(vf, "product_rows", counting)
        assert check_self_bounding(space, n=3, algorithm=algo)
        assert len(calls) == 1

    def test_constant_algorithm_degenerate(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5]))
        reports = check_self_bounding(space, n=3, algorithm=constant_algorithm([1.0, 2.0]))
        assert [r.name for r in reports] == ["self_bounding_degenerate"]
        assert reports[0].passed

    def test_phi_values(self):
        assert phi(1.0) == pytest.approx(math.e - 2.0)
        assert phi(0.0) == 0.5
        assert phi(1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_phi_lemma(self):
        out = check_phi_lemma()
        assert out["monotone_ok"] and out["dominated_ok"]
        assert out["num_points"] == 10_000


class TestKlVec:
    """kl_bernoulli_vec on its domain, s in [0, 1] and t in (0, 1), down to
    the bounds GaussianRun.expected_kl clips L to."""

    EDGES = np.array([np.finfo(float).tiny, 1e-300, 1e-16, 0.5, 1 - 1e-16,
                      np.nextafter(1.0, 0.0)])

    def test_matches_scalar(self):
        from gapcert.bounds import kl_bernoulli
        s = np.array([0.0, 0.2, 0.5, 1.0])
        t = np.array([0.1, 0.2, 0.9, 0.4])
        got = kl_bernoulli_vec(s, t)
        want = np.array([kl_bernoulli(a, b) for a, b in zip(s, t)])
        assert np.allclose(got, want)
        assert got[1] == want[1] == 0.0

    @staticmethod
    def general(s, t):
        """The formula of every input, the reference of kl_bernoulli_vec."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        interior = (t > 0) & (t < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)
                                           / np.where(interior, t, 1.0)), 0.0)
            b = np.where(s < 1, (1 - s) * np.log(np.where(s < 1, 1 - s, 1.0)
                                                 / np.where(interior, 1 - t, 1.0)), 0.0)
        return np.where(interior, np.maximum(a + b, 0.0), np.where(s == t, 0.0, np.inf))

    def test_interior_bit_for_bit(self):
        """Interior s and t, broadcast and 0-d, the clip bounds of t among them."""
        rng = np.random.Generator(np.random.Philox(key=40))
        s, t = rng.random((2, 3, 4000))
        edges = self.EDGES
        for a, b in [(s, t), (s, s), (edges[:, None], edges[None, :]), (s[:, :1], t[0]),
                     (t[0, 0], s[0, 0])]:
            got, want = kl_bernoulli_vec(a, b), self.general(a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_edges_bit_for_bit(self):
        """s in {0, 1} beside interior s, against every t of EDGES and
        interior t, broadcast and 0-d."""
        s = np.array([0.0, 1.0, 0.3, 0.7, 1e-300])[:, None]
        t = np.concatenate([self.EDGES, [0.3, 0.7]])[None, :]
        for a, b in [(s, t), (s[0, 0], t), (s[1, 0], t[0, 0]), (s[:, 0], t[0, 2])]:
            got, want = kl_bernoulli_vec(a, b), self.general(a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.isfinite(kl_bernoulli_vec(s, t)).all()


class TestViolationRates:
    def test_gibbs_rerun_bit_identical(self):
        space, loss, prior = small_instance()
        kw = dict(space=space, loss=loss, prior=prior, beta=5.0, n=20, delta=0.05,
                  methods=("bounded_differences", "bernstein"), trials=50,
                  master_seed=77)
        a = violation_rate_gibbs(**kw)
        b = violation_rate_gibbs(**kw)
        assert a.mean_gap == b.mean_gap
        for m in kw["methods"]:
            assert a.per_method[m].violations == b.per_method[m].violations
            assert a.per_method[m].mean_bound == b.per_method[m].mean_bound

    def test_gibbs_rates_within_delta(self):
        space, loss, prior = small_instance()
        r = violation_rate_gibbs(space, loss, prior, beta=5.0, n=50, delta=0.05,
                                 methods=("bounded_differences",), trials=400,
                                 master_seed=11)
        stats = r.per_method["bounded_differences"]
        assert stats.violations <= 0.05 * stats.trials
        assert stats.mean_slack == pytest.approx(stats.mean_bound - r.mean_gap)

    def test_gibbs_unknown_method(self):
        space, loss, prior = small_instance()
        with pytest.raises(KeyError):
            violation_rate_gibbs(space, loss, prior, beta=1.0, n=5, delta=0.1,
                                 methods=("gaussian_gap",), trials=2, master_seed=0)

    def test_gaussian_rates(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        num_points, dim, n = 6, 2, 100
        phi_table = rng.uniform(-0.5, 0.5, size=(num_points, dim))
        space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)),
                                probs=np.full(num_points, 1.0 / num_points))
        loss = CosineLoss(phi_table)
        algo = mean_embedding_algorithm(phi_table, n)
        r = violation_rate_gaussian(space, loss, algo, sigma=0.5, n=n, delta=0.05,
                                    methods=("gaussian_gap", "gaussian_kl_expectation"),
                                    trials=60, master_seed=5, posterior_draws=500)
        for m in ("gaussian_gap", "gaussian_kl_expectation"):
            assert r.per_method[m].violations <= 0.05 * r.per_method[m].trials

    def test_clopper_pearson_closed_form(self):
        m = 200
        stats = MethodStats("x", 0, m, 0.0, 0.0)
        assert stats.clopper_pearson_upper == pytest.approx(1.0 - 0.001 ** (1.0 / m))
        assert MethodStats("x", m, m, 0.0, 0.0).clopper_pearson_upper == 1.0

    @pytest.mark.parametrize("trials", [1, 2, 7, 200, 2000, 5000, 100_000])
    def test_clopper_pearson_is_the_beta_quantile(self, trials):
        """Bit for bit the quantile of scipy.stats' beta distribution."""
        from scipy.stats import beta

        for k in sorted({0, 1, 2, 3, trials // 10, trials // 2, trials - 2, trials - 1}
                        & set(range(trials))):
            want = float(beta.ppf(vf.CP_LEVEL, k + 1, trials - k))
            assert MethodStats("x", k, trials, 0.0, 0.0).clopper_pearson_upper == want

    def test_clopper_pearson_at_zero_violations_is_scipys(self):
        """The closed form at k = 0 equals scipy's inversion bit for bit."""
        from scipy.special import betaincinv

        for trials in [*range(1, 5001), *range(5001, 100_001, 97)]:
            want = float(betaincinv(1, trials, vf.CP_LEVEL))
            assert MethodStats("x", 0, trials, 0.0, 0.0).clopper_pearson_upper == want

    def test_clopper_pearson_imports_scipy_at_a_violation_only(self):
        """At k > 0 the bound is scipy's betaincinv, imported when it is read."""
        code = (
            "import sys\n"
            "from gapcert.verify import CP_LEVEL, MethodStats\n"
            "stats = MethodStats('x', 3, 500, 0.0, 0.0)\n"
            "assert not any(m.startswith('scipy') for m in sys.modules)\n"
            "value = stats.clopper_pearson_upper\n"
            "from scipy.special import betaincinv\n"
            "assert value == float(betaincinv(4, 497, CP_LEVEL))\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded after a fresh interpreter runs code."""
    run = subprocess.run(
        [sys.executable, "-c",
         code + "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return run.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy():
    assert _scipy_modules_after("import sys, gapcert.cli") == "[]"


def test_cli_import_leaves_out_dataclasses():
    """Every record is a namedtuple, whose class costs one eval, not the
    generated methods of a dataclass."""
    run = subprocess.run(
        [sys.executable, "-c", "import sys, gapcert.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.stdout.strip() == "False"


def test_records_are_namedtuples_with_fields_that_cannot_be_rebound():
    from gapcert import acceptance, bounds, config

    alg = constant_algorithm([0.5])
    records = {
        "probs": FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5])),
        "values": FiniteTable(values=np.array([[0.5]])),
        "weights": PriorWeights.uniform(2),
        "dim_d": alg,
        "beta": Gibbs(beta=1.0),
        "sigma": ham.GaussianKernel(sigma=0.5, algorithm=alg),
        "value": bounds.Certificate("x", 0.5, 0.05, bounds.JOINT_DRAW, {}),
        "rivasplata_gibbs": bounds.baselines(1.0, 10, 0.05),
        "details": MomentCheckReport("r", 1.0, 2.0, "exact_enumeration"),
        "violations": MethodStats("x", 0, 10, 0.0, 0.0),
        "per_method": vf.TrialReport(trials=1, mean_gap=0.0, per_method={}),
        "kl_chain": tightness_report(ns=[100], betas_of_n=lambda n: [1.0], deltas=[0.05],
                                     L_hats=[0.1])[0],
        "n": config.parse_config(Path(__file__).resolve().parents[1] / "configs"
                                 / "gibbs_exact.txt"),
        "passed": acceptance.CriterionResult(1, "x", True, "", 0.0),
    }
    assert len({type(r) for r in records.values()}) == 14
    for field, record in records.items():
        assert isinstance(record, tuple) and field in record._fields
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_default_dicts_are_fresh_per_record():
    a, b = (MomentCheckReport("r", 1.0, 2.0, "exact_enumeration") for _ in range(2))
    assert a.details == b.details == {} and a.details is not b.details
    c, d = (vf.TightnessRow(100, 1.0, 0.05, 0.1, 0.2, True) for _ in range(2))
    assert c.kl_chain == d.kl_chain == {} and c.kl_chain is not d.kl_chain


def test_verify_without_violations_leaves_out_scipy(tmp_path):
    """A verify run whose trials see no violation imports numpy only."""
    config = Path(__file__).resolve().parents[1] / "configs" / "gibbs_exact.txt"
    code = ("import sys\nfrom gapcert import cli\n"
            f"assert cli.main(['verify', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0")
    assert _scipy_modules_after(code) == "[]"


def test_cli_import_leaves_out_scipy_stats():
    """The runtime needs numpy and scipy.special only; scipy.stats alone took
    most of the CLI's import time."""
    run = subprocess.run(
        [sys.executable, "-c", "import sys, gapcert.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.stdout.strip() == "False"


class TestTightness:
    def test_grid_shape_and_improvement(self):
        rows = tightness_report(ns=[1000, 10_000], betas_of_n=lambda n: [n / 100],
                                deltas=[0.05, 0.01])
        assert len(rows) == 4
        for row in rows:
            assert row.improvement_holds
            assert set(row.kl_chain) == {0.0, 0.1, 0.3}
            for entry in row.kl_chain.values():
                # the kl-chain comparison is regime-dependent; it is recorded
                # on every row and must hold in the large-n regime
                if row.n >= 10_000:
                    assert entry["improvement_holds"]
