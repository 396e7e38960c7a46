"""Hamiltonian specs, partition functions, posteriors, coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert.hamiltonian import (
    GaussianKernel,
    Gibbs,
    IncompatibleSpec,
    bounded_difference_coefficient,
    constant_algorithm,
    hamiltonian_matrix,
    hypothesis_sensitivity,
    log_partition,
    mean_embedding_algorithm,
    posterior,
)
from gapcert.model import (
    BudgetExceeded,
    FiniteDataSpace,
    FiniteTable,
    ParametricLoss,
    PriorWeights,
)
from gapcert.verify import GaussianRun, GibbsRun


def space3():
    return FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.2, 0.3, 0.5]))


def table(rows, b=1.0):
    return FiniteTable(values=np.array(rows, dtype=float), bound_b=b)


TWO = table([[0.0, 1.0], [1.0, 0.0]])
SPACE2 = FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5]))


def param_loss():
    return ParametricLoss(dim_d=1, evaluator=lambda h, i: 0.5,
                          batch_evaluator=lambda hs: np.full((len(hs), 2), 0.5), bound_b=1.0)


def H(spec, sample, loss=TWO):
    """H(h, sample) for every hypothesis h, through the Hamiltonian matrix."""
    return hamiltonian_matrix(spec, np.array([sample]), loss)[:, 0]


class TestHamiltonianValue:
    def test_gibbs_beta_zero(self):
        assert H(Gibbs(0.0), (0, 1)).tolist() == [0.0, 0.0]

    def test_gibbs_formula(self):
        n = 4
        s = (0, 0, 1, 1)  # L_hat of h0 = 0.5
        assert H(Gibbs(float(n)), s)[0] == pytest.approx(-n / 2.0)

    def test_incompatible_spec(self):
        with pytest.raises(IncompatibleSpec):
            H(Gibbs(1.0), (0,), param_loss())


class TestLogPartition:
    def test_gibbs_beta_zero_two_units(self):
        prior = PriorWeights(weights=np.array([1.0, 1.0]))
        got = log_partition(Gibbs(0.0), np.array((0,)), TWO, prior)
        assert got == pytest.approx(math.log(2.0))

    def test_large_beta_no_overflow(self):
        prior = PriorWeights.uniform(2)
        got = log_partition(Gibbs(5000.0), np.array((0, 1)), TWO, prior)
        assert math.isfinite(got)


class TestPosterior:
    def test_beta_zero_equals_prior(self):
        prior = PriorWeights(weights=np.array([0.25, 0.75]))
        q = posterior(Gibbs(0.0), np.array((0,)), TWO, prior)
        assert np.allclose(q, [0.25, 0.75], atol=1e-15)

    def test_minimizer_dominates_at_large_beta(self):
        n = 2
        s = np.array((0, 0))  # h1 has empirical loss 1, h0 has 0... check rows
        q = posterior(Gibbs(50.0 * n), s, TWO, PriorWeights.uniform(2))
        # row 0 loses 0.0 on point 0, row 1 loses 1.0 there
        assert q[0] > 1.0 - 1e-12

    def test_normalization(self):
        q = posterior(Gibbs(7.0), np.array((0, 1, 0)), TWO, PriorWeights.uniform(2))
        assert abs(q.sum() - 1.0) <= 1e-12

    def test_gibbs_empirical_loss_nonincreasing_in_beta(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        loss = table(rng.uniform(0, 1, size=(5, 3)))
        space = space3()
        s = np.array((0, 2, 1, 2))
        prior = PriorWeights.uniform(5)
        L_hat = loss.values[:, s].mean(axis=1)
        prev = math.inf
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            q = posterior(Gibbs(beta), s, loss, prior)
            cur = float(q @ L_hat)
            assert cur <= prev + 1e-12
            prev = cur


class TestSampling:
    """The categorical posterior draw of a Gibbs trial, and the Gaussian one."""

    def test_degenerate_weights(self):
        loss = table([[0.0, 0.0], [1.0, 1.0]])
        run = GibbsRun(SPACE2, loss, PriorWeights.uniform(2), 1000.0, 2, 0.05)
        rng = np.random.Generator(np.random.Philox(key=1))
        assert all(run.draw(rng).h == 0 for _ in range(100))

    def test_gaussian_tiny_sigma(self):
        alg = mean_embedding_algorithm(np.array([[3.0, -1.0], [1.0, 1.0]]), 2)
        run = GaussianRun(SPACE2, param_loss(), alg, 1e-15, 2, 0.05, posterior_draws=1)
        rng = np.random.Generator(np.random.Philox(key=2))
        draw = run.draw(rng)
        assert np.allclose(draw.h, alg(draw.idx), atol=1e-12)

    def test_fair_coin_frequency(self):
        loss = table([[0.3, 0.7], [0.3, 0.7]])  # identical rows: weights 1/2 each
        run = GibbsRun(SPACE2, loss, PriorWeights.uniform(2), 5.0, 2, 0.05)
        rng = np.random.Generator(np.random.Philox(key=3))
        draws = [run.draw(rng).h for _ in range(5_000)]
        # five standard errors of a fair coin over 5,000 draws
        assert np.mean(draws) == pytest.approx(0.5, abs=0.035)


class TestBoundedDifferenceCoefficient:
    def test_gibbs_analytic(self):
        """A Gibbs run's coefficient is beta b / n."""
        run = GibbsRun(SPACE2, TWO, PriorWeights.uniform(2), 10.0, 100, 0.05)
        assert run.c == pytest.approx(0.1)

    def test_beta_zero(self):
        got = bounded_difference_coefficient(Gibbs(0.0), SPACE2, TWO, 10)
        assert got == (0.0, "exhaustive")

    def test_gaussian_kernel_refused(self):
        spec = GaussianKernel(sigma=1.0, algorithm=constant_algorithm([0.0]))
        with pytest.raises(IncompatibleSpec):
            bounded_difference_coefficient(spec, SPACE2, param_loss(), 10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_brute_force_at_most_analytic(self, seed):
        """The exact coefficient never exceeds beta b / n, the c of every
        Gibbs certificate a run builds."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        space = space3()
        loss = table(rng.uniform(0, 1, size=(3, 3)))
        n = 3
        beta = float(rng.uniform(0, 2 * n))
        brute, regime = bounded_difference_coefficient(Gibbs(beta), space, loss, n)
        assert regime == "exhaustive"
        run = GibbsRun(space, loss, PriorWeights.uniform(3), beta, n, 0.05)
        assert brute <= run.c + 1e-12


class TestBruteForceRefusal:
    """Beyond the budget both brute-force searches refuse: a maximum over part
    of X^n only bounds the supremum from below, so it is no coefficient."""

    def test_coefficient_over_budget(self):
        loss = table([[0.1, 0.5, 0.9], [0.3, 0.2, 0.7]])
        with pytest.raises(BudgetExceeded):
            bounded_difference_coefficient(Gibbs(2.0), space3(), loss, 4, budget=3**4 - 1)

    def test_sensitivity_over_budget(self):
        alg = mean_embedding_algorithm(np.array([[0.0], [1.0], [0.5]]), 4)
        with pytest.raises(BudgetExceeded):
            hypothesis_sensitivity(alg, space3(), 4, budget=3**4 - 1)


class TestStableAlgorithms:
    def test_constant_sensitivity_zero(self):
        alg = constant_algorithm([1.0, 2.0])
        assert hypothesis_sensitivity(alg, SPACE2, 5) == 0.0

    def test_mean_embedding_diameter_over_n(self):
        phi = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])  # diameter 5
        n = 4
        alg = mean_embedding_algorithm(phi, n)
        got = hypothesis_sensitivity(alg, space3(), n)
        assert got == pytest.approx(5.0 / n)

    def test_brute_force_within_declared(self):
        phi = np.array([[0.0, 0.5], [0.25, 0.0]])
        alg = mean_embedding_algorithm(phi, 3)
        got = hypothesis_sensitivity(alg, SPACE2, 3)
        assert got <= alg.declared_c_A + 1e-12

    def test_constant_variance_zero(self):
        assert constant_algorithm([0.0]).variance_fn(SPACE2, 4) == 0.0

    def test_variance_at_most_n_cA_squared(self):
        phi = np.array([[0.0, 0.0], [1.0, 0.5]])
        n = 3
        alg = mean_embedding_algorithm(phi, n)
        v = alg.variance_fn(SPACE2, n)
        assert v <= n * alg.declared_c_A**2 + 1e-12

    def test_mean_embedding_variance_matches_enumeration(self):
        phi = np.array([[0.0], [1.0]])
        n = 2
        closed = mean_embedding_algorithm(phi, n).variance_fn(SPACE2, n)
        # enumeration over the 4 samples of the two-point space
        outs = {s: phi[list(s)].mean(axis=0) for s in
                [(0, 0), (0, 1), (1, 0), (1, 1)]}
        mean = sum(0.25 * o for o in outs.values())
        brute = sum(0.25 * float((o - mean) @ (o - mean)) for o in outs.values())
        assert closed == pytest.approx(brute, abs=1e-12)
