"""Enumeration oracles, Monte Carlo harness, and seeding discipline."""

import math

import numpy as np
import pytest

from gapcert import hamiltonian as ham
from gapcert import verify as vf
from gapcert.config import cosine_parametric_loss, random_gibbs_instance
from gapcert.hamiltonian import Gibbs, constant_algorithm, mean_embedding_algorithm
from gapcert.model import BudgetExceeded, FiniteDataSpace, FiniteTable, PriorWeights
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
    draw_sample,
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

    def test_draw_sample_in_range_and_repeatable(self):
        space, _, _ = small_instance()
        s1 = draw_sample(space, 6, substream(1, 0))
        s2 = draw_sample(space, 6, substream(1, 0))
        assert s1.shape == (6,) and np.array_equal(s1, s2)
        assert all(0 <= i < space.size for i in s1)


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

    def test_monte_carlo_rule(self):
        def report(lhs, stderr):
            return MomentCheckReport("mc", lhs=lhs, rhs=2.0, regime="monte_carlo",
                                     stderr=stderr)

        assert report(2.019, 0.0).passed  # within 1% relative
        assert report(2.2, 0.06).passed  # within 4 standard errors
        assert not report(2.2, 0.04).passed
        assert not report(math.inf, 0.1).passed


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

    def test_log_partition_coefficient_called_through_hamiltonian(self, monkeypatch):
        """A wrapper on gapcert.hamiltonian (a tracer, a test double) sees the
        coefficient call of check_logZ_bounded_differences."""
        calls = []
        original = ham.bounded_difference_coefficient

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ham, "bounded_difference_coefficient", counted)
        space, loss, prior = small_instance()
        check_logZ_bounded_differences(Gibbs(beta=2.0), space, loss, prior, n=2)
        assert len(calls) == 1


class TestGaussianIdentity:
    def test_degenerate_shift_is_exactly_one(self):
        r = check_gaussian_identity(w=[0.3, -0.1], v=[0.3, -0.1], sigma=0.7, lam=1.3,
                                    mc_samples=1000, seed=0)
        assert r.lhs == pytest.approx(1.0)
        assert r.rhs == 1.0
        assert not r.low_confidence

    def test_matches_closed_form_at_lambda_one(self):
        r = check_gaussian_identity(w=[0.0], v=[0.5], sigma=0.5, lam=1.0,
                                    mc_samples=200_000, seed=1)
        assert r.rhs == 1.0
        assert abs(r.lhs - 1.0) <= max(4.0 * r.stderr, 0.01)

    def test_low_confidence_flag(self):
        r = check_gaussian_identity(w=[0.0], v=[5.0], sigma=1.0, lam=1.5,
                                    mc_samples=1000, seed=2)
        assert r.low_confidence

    def test_domain(self):
        with pytest.raises(ValueError):
            check_gaussian_identity([0.0], [1.0], sigma=0.0, lam=1.0, mc_samples=10)
        with pytest.raises(ValueError):
            check_gaussian_identity([0.0], [1.0], sigma=1.0, lam=0.5, mc_samples=10)


class TestSelfBoundingAndPhi:
    def test_mean_embedding_passes(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.4, 0.6]))
        algo = mean_embedding_algorithm(np.array([[0.0, 0.0], [1.0, 0.25]]), n=4)
        reports = check_self_bounding(space, n=4, algorithm=algo)
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_zero_probability_point(self):
        """Substituting a zero-probability point reaches a sample outside the
        enumerated support; its f is evaluated, not looked up."""
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.4, 0.0, 0.6]))
        algo = mean_embedding_algorithm(
            np.array([[0.0, 0.0], [1.0, 0.25], [0.5, 0.5]]), n=3)
        reports = check_self_bounding(space, n=3, algorithm=algo)
        assert reports and all(r.passed for r in reports)

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
    def test_matches_scalar(self):
        from gapcert.bounds import kl_bernoulli
        s = np.array([0.0, 0.2, 0.5, 1.0, 0.3])
        t = np.array([0.1, 0.2, 0.9, 1.0, 0.0])
        got = kl_bernoulli_vec(s, t)
        want = np.array([kl_bernoulli(a, b) for a, b in zip(s, t)])
        assert np.allclose(got[:3], want[:3])
        assert got[3] == want[3] == 0.0
        assert got[4] == want[4] == math.inf


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
        assert stats.violation_rate <= 0.05
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
        loss = cosine_parametric_loss(phi_table)
        algo = mean_embedding_algorithm(phi_table, n)
        r = violation_rate_gaussian(space, loss, algo, sigma=0.5, n=n, delta=0.05,
                                    methods=("gaussian_gap", "gaussian_kl_expectation"),
                                    trials=60, master_seed=5, posterior_draws=500)
        for m in ("gaussian_gap", "gaussian_kl_expectation"):
            assert r.per_method[m].violation_rate <= 0.05

    def test_clopper_pearson_closed_form(self):
        m = 200
        stats = MethodStats("x", 0, m, 0.0, 0.0)
        assert stats.clopper_pearson_upper == pytest.approx(1.0 - 0.001 ** (1.0 / m))
        assert MethodStats("x", m, m, 0.0, 0.0).clopper_pearson_upper == 1.0


class TestTightness:
    def test_grid_shape_and_improvement(self):
        rows = tightness_report(ns=[1000, 10_000], betas_of_n=lambda n: [n / 100],
                                deltas=[0.05, 0.01])
        assert len(rows) == 4
        for row in rows:
            assert row.improvement_holds
            assert row.ratio == pytest.approx(row.eq_simple / row.baseline_gibbs)
            assert set(row.kl_chain) == {0.0, 0.1, 0.3}
            for entry in row.kl_chain.values():
                # the kl-chain comparison is regime-dependent; it is recorded
                # on every row and must hold in the large-n regime
                if row.n >= 10_000:
                    assert entry["improvement_holds"]
