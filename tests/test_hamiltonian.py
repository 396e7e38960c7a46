"""Hamiltonian specs, partition functions, posteriors, samplers, coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert.hamiltonian import (
    Composite,
    GaussianKernel,
    Gibbs,
    IncompatibleSpec,
    LipschitzKernel,
    NotBoundedDifference,
    Shifted,
    bounded_difference_coefficient,
    canonical_hamiltonian,
    constant_algorithm,
    hamiltonian_value,
    hypothesis_sensitivity,
    log_partition,
    mean_embedding_algorithm,
    posterior,
    sample_posterior,
)
from gapcert.model import (
    BudgetExceeded,
    FiniteDataSpace,
    FiniteTable,
    ParametricLoss,
    PriorWeights,
)


def space3():
    return FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.2, 0.3, 0.5]))


def table(rows, b=1.0):
    return FiniteTable(values=np.array(rows, dtype=float), bound_b=b)


TWO = table([[0.0, 1.0], [1.0, 0.0]])
SPACE2 = FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5]))


def param_loss():
    return ParametricLoss(dim_d=1, evaluator=lambda h, i: 0.5, bound_b=1.0)


class TestHamiltonianValue:
    def test_gibbs_beta_zero(self):
        assert hamiltonian_value(Gibbs(0.0), 0, np.array((0, 1)), TWO) == 0.0

    def test_gibbs_formula(self):
        n = 4
        s = np.array((0, 0, 1, 1))  # L_hat of h0 = 0.5
        assert hamiltonian_value(Gibbs(float(n)), 0, s, TWO) == pytest.approx(-n / 2.0)

    def test_gaussian_at_center(self):
        alg = constant_algorithm([1.0, 2.0])
        spec = GaussianKernel(sigma=0.7, algorithm=alg)
        got = hamiltonian_value(spec, np.array([1.0, 2.0]), np.array((0,)), param_loss())
        assert got == 0.0

    def test_composite_sum(self):
        s = np.array((0, 1))
        parts = (Gibbs(1.0), Gibbs(2.0))
        got = hamiltonian_value(Composite(parts), 0, s, TWO)
        want = sum(hamiltonian_value(p, 0, s, TWO) for p in parts)
        assert got == pytest.approx(want)

    def test_incompatible_spec(self):
        with pytest.raises(IncompatibleSpec):
            hamiltonian_value(Gibbs(1.0), np.zeros(1), np.array((0,)), param_loss())


class TestLogPartition:
    def test_gibbs_beta_zero_two_units(self):
        prior = PriorWeights(weights=np.array([1.0, 1.0]))
        got = log_partition(Gibbs(0.0), np.array((0,)), TWO, prior)
        assert got == pytest.approx(math.log(2.0))

    def test_gaussian_normalizer(self):
        alg = constant_algorithm([0.0])
        spec = GaussianKernel(sigma=0.3, algorithm=alg)
        got = log_partition(spec, np.array((0,)), param_loss(),
                            PriorWeights(lebesgue_reference=True))
        assert got == pytest.approx(0.5 * math.log(2 * math.pi * 0.09))

    def test_shift_adds_exactly(self):
        prior = PriorWeights.uniform(2)
        s = np.array((0, 1, 1))
        base = Gibbs(3.0)
        shifted = Shifted(base=base, shift=lambda x: 1.25)
        assert log_partition(shifted, s, TWO, prior) == pytest.approx(
            log_partition(base, s, TWO, prior) + 1.25)

    def test_large_beta_no_overflow(self):
        prior = PriorWeights.uniform(2)
        got = log_partition(Gibbs(5000.0), np.array((0, 1)), TWO, prior)
        assert math.isfinite(got)


class TestPosterior:
    def test_beta_zero_equals_prior(self):
        prior = PriorWeights(weights=np.array([0.25, 0.75]))
        q = posterior(Gibbs(0.0), np.array((0,)), TWO, prior)
        assert np.allclose(q.weights, [0.25, 0.75], atol=1e-15)

    def test_minimizer_dominates_at_large_beta(self):
        n = 2
        s = np.array((0, 0))  # h1 has empirical loss 1, h0 has 0... check rows
        q = posterior(Gibbs(50.0 * n), s, TWO, PriorWeights.uniform(2))
        # row 0 loses 0.0 on point 0, row 1 loses 1.0 there
        assert q.weights[0] > 1.0 - 1e-12

    def test_normalization(self):
        q = posterior(Gibbs(7.0), np.array((0, 1, 0)), TWO, PriorWeights.uniform(2))
        assert abs(q.weights.sum() - 1.0) <= 1e-12

    @given(st.floats(0.0, 20.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_gauge_invariance(self, beta, shift_value):
        prior = PriorWeights.uniform(2)
        s = np.array((0, 1))
        base = posterior(Gibbs(beta), s, TWO, prior).weights
        shifted = posterior(Shifted(base=Gibbs(beta), shift=lambda x: shift_value),
                            s, TWO, prior).weights
        assert np.allclose(base, shifted, atol=1e-12)

    def test_composite_is_product_density(self):
        prior = PriorWeights(weights=np.array([0.3, 0.7]))
        s = np.array((0, 1))
        a, b = Gibbs(2.0), Gibbs(5.0)
        qa = posterior(a, s, TWO, prior).weights
        qb = posterior(b, s, TWO, prior).weights
        qc = posterior(Composite((a, b)), s, TWO, prior).weights
        prod = qa * qb / prior.weights
        assert np.allclose(qc, prod / prod.sum(), atol=1e-12)

    def test_gaussian_posterior(self):
        alg = mean_embedding_algorithm(np.array([[0.0, 0.0], [1.0, 1.0]]), 2)
        spec = GaussianKernel(sigma=0.4, algorithm=alg)
        q = posterior(spec, np.array((0, 1)), param_loss(),
                      PriorWeights(lebesgue_reference=True))
        assert np.allclose(q.mean, [0.5, 0.5])
        assert q.sigma == 0.4

    def test_gibbs_empirical_loss_nonincreasing_in_beta(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        loss = table(rng.uniform(0, 1, size=(5, 3)))
        space = space3()
        s = np.array((0, 2, 1, 2))
        prior = PriorWeights.uniform(5)
        L_hat = loss.values[:, s].mean(axis=1)
        prev = math.inf
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            q = posterior(Gibbs(beta), s, loss, prior).weights
            cur = float(q @ L_hat)
            assert cur <= prev + 1e-12
            prev = cur


class TestCanonicalHamiltonian:
    def test_single_hypothesis_zero(self):
        one = table([[0.2, 0.9]])
        prior = PriorWeights(weights=np.array([1.0]))
        got = canonical_hamiltonian(Gibbs(4.0), 0, np.array((1, 0)), one, prior)
        assert got == pytest.approx(0.0)

    def test_beta_zero_uniform(self):
        m = 4
        loss = table(np.zeros((m, 2)))
        prior = PriorWeights(weights=np.ones(m))
        got = canonical_hamiltonian(Gibbs(0.0), 1, np.array((0,)), loss, prior)
        assert got == pytest.approx(-math.log(m))

    def test_shift_cancels(self):
        prior = PriorWeights.uniform(2)
        s = np.array((1, 0))
        base = Gibbs(3.0)
        a = canonical_hamiltonian(base, 0, s, TWO, prior)
        b = canonical_hamiltonian(Shifted(base=base, shift=lambda x: -2.0), 0, s, TWO, prior)
        assert a == pytest.approx(b, abs=1e-12)

    def test_exponential_integrates_to_one(self):
        prior = PriorWeights(weights=np.array([0.4, 1.6]))
        s = np.array((0, 1))
        total = sum(prior.weights[h]
                    * math.exp(canonical_hamiltonian(Gibbs(2.5), h, s, TWO, prior))
                    for h in range(2))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_degenerate_weights(self):
        from gapcert.hamiltonian import FiniteWeights
        rng = np.random.Generator(np.random.Philox(key=1))
        dist = FiniteWeights(weights=np.array([1.0, 0.0]))
        assert all(sample_posterior(dist, rng) == 0 for _ in range(100))

    def test_gaussian_tiny_sigma(self):
        from gapcert.hamiltonian import GaussianPosterior
        rng = np.random.Generator(np.random.Philox(key=2))
        dist = GaussianPosterior(mean=np.array([3.0, -1.0]), sigma=1e-15)
        draw = sample_posterior(dist, rng)
        assert np.allclose(draw, [3.0, -1.0], atol=1e-12)

    def test_fair_coin_frequency(self):
        from gapcert.hamiltonian import FiniteWeights
        rng = np.random.Generator(np.random.Philox(key=3))
        dist = FiniteWeights(weights=np.array([0.5, 0.5]))
        draws = [sample_posterior(dist, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.01)


class TestBoundedDifferenceCoefficient:
    def test_gibbs_analytic(self):
        got = bounded_difference_coefficient(Gibbs(10.0), SPACE2, TWO, 100)
        assert got == pytest.approx(0.1)

    def test_beta_zero(self):
        assert bounded_difference_coefficient(Gibbs(0.0), SPACE2, TWO, 10) == 0.0

    def test_gaussian_kernel_refused(self):
        spec = GaussianKernel(sigma=1.0, algorithm=constant_algorithm([0.0]))
        with pytest.raises(NotBoundedDifference):
            bounded_difference_coefficient(spec, SPACE2, param_loss(), 10)

    def test_lipschitz_analytic(self):
        alg = mean_embedding_algorithm(np.array([[0.0], [1.0]]), 10)
        spec = LipschitzKernel(kernel_exponent=lambda v: float(np.abs(v).sum()),
                               lip_constant=2.0, algorithm=alg)
        got = bounded_difference_coefficient(spec, SPACE2, param_loss(), 10)
        assert got == pytest.approx(2.0 * alg.declared_c_A)

    def test_composite_sums(self):
        got = bounded_difference_coefficient(Composite((Gibbs(2.0), Gibbs(3.0))),
                                             SPACE2, TWO, 10)
        assert got == pytest.approx(5.0 / 10.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_brute_force_at_most_analytic(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        space = space3()
        loss = table(rng.uniform(0, 1, size=(3, 3)))
        n = 3
        spec = Gibbs(float(rng.uniform(0, 2 * n)))
        brute, regime = bounded_difference_coefficient(spec, space, loss, n,
                                                       mode="brute_force")
        assert regime == "exhaustive"
        assert brute <= bounded_difference_coefficient(spec, space, loss, n) + 1e-12


class TestBruteForceRefusal:
    """Beyond the budget both brute-force searches refuse: a maximum over part
    of X^n only bounds the supremum from below, so it is no coefficient."""

    def test_coefficient_over_budget(self):
        spec = Shifted(base=Gibbs(2.0), shift=lambda x: 0.1 * int(x.sum()))
        loss = table([[0.1, 0.5, 0.9], [0.3, 0.2, 0.7]])
        with pytest.raises(BudgetExceeded):
            bounded_difference_coefficient(spec, space3(), loss, 4, mode="brute_force",
                                           budget=3**4 - 1)

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
