"""Hamiltonian specs, partition functions, posteriors, coefficients."""

import math
import warnings

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
    log_partition,
    logsumexp,
    mean_embedding_algorithm,
    output_sensitivity,
    posterior,
)
from gapcert.model import (
    BudgetExceeded,
    ContractViolation,
    CosineLoss,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    product_rows,
)
from gapcert.verify import GaussianRun, GibbsRun, check_self_bounding


def space3():
    return FiniteDataSpace(points=("a", "b", "c"), probs=np.array([0.2, 0.3, 0.5]))


def table(rows, b=1.0):
    return FiniteTable(values=np.array(rows, dtype=float), bound_b=b)


TWO = table([[0.0, 1.0], [1.0, 0.0]])
SPACE2 = FiniteDataSpace(points=("a", "b"), probs=np.array([0.5, 0.5]))


def cosine_loss():
    """A cosine loss on the two points of SPACE2 in dimension 2."""
    return CosineLoss(np.eye(2))


def sensitivity(algorithm, space, n):
    """The brute-force sensitivity of the algorithm over all of X^n."""
    return output_sensitivity(algorithm, space, n, algorithm(product_rows(space, n)))


def draw_h(run, rng):
    """The hypothesis of one Gibbs trial drawn from rng's next n + 1 uniforms."""
    return run.draws(rng.random((1, run.n + 1))).h[0]


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
            H(Gibbs(1.0), (0,), cosine_loss())


def reference_logsumexp(a, b=None, keepdims=False):
    """logsumexp as written before its reductions called the ufuncs directly:
    np.broadcast_arrays whenever b is given, np.max and np.sum."""
    if b is not None:
        a, b = np.broadcast_arrays(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        masked = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = np.max(masked, axis=-1, keepdims=True)
        at_max = masked == a_max
        m = np.sum(at_max if b is None else b * at_max, axis=-1, keepdims=True, dtype=float)
        rest = np.exp(np.where(at_max, -np.inf, masked) - a_max)
        if b is not None:
            rest *= b
        s = np.sum(rest, axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a),
                                   axis=-1, keepdims=True))
            np.copyto(out, direct, where=bad)
    if not keepdims:
        out = out[..., 0]
    return out[()] if out.ndim == 0 else out


class TestLogSumExp:
    @staticmethod
    def cases(rng, count):
        """Seeded (a, b, keepdims) over a's last axis, a of one to three
        dimensions: -inf and +inf entries, all -inf arrays, tied maxima, zero
        weights at a whose e^a overflows, and b of a's shape or of its last
        axis only."""
        special = np.array([-np.inf, np.inf, 800.0, -800.0, 0.0, 1.0])
        for _ in range(count):
            shape = tuple(int(k) for k in rng.integers(1, 5, size=rng.integers(1, 4)))
            a = rng.normal(size=shape) * rng.choice([1.0, 10.0, 400.0])
            mask = rng.random(shape) < 0.2
            a[mask] = rng.choice(special, size=int(mask.sum()))
            if rng.random() < 0.3:
                a = np.round(a)
            if rng.random() < 0.1:
                a[...] = -np.inf
            b = None
            if rng.random() < 0.6:
                b = rng.random(shape if rng.random() < 0.7 else shape[-1:])
                b[rng.random(b.shape) < 0.3] = 0.0
            yield a, b, bool(rng.integers(2))

    def test_equals_scipy(self):
        """Value (NaN included), shape and dtype of scipy.special.logsumexp
        over the last axis, with no RuntimeWarning escaping."""
        from scipy.special import logsumexp as reference

        fixed = [
            (np.array([1.0, 3.0, 3.0, -np.inf]), None, False),
            (np.array([[-np.inf, -np.inf], [0.0, np.inf]]), None, True),
            (np.array([900.0, 0.0]), np.array([0.0, 1.0]), False),
            (np.array([900.0, 0.0]), np.array([0.0, 0.0]), False),  # 0 * inf: NaN
            (np.array([[800.0, 1.0], [2.0, 1.0]]), np.array([[0.0], [0.5]]), False),
        ]
        rng = np.random.default_rng(16)
        for a, b, keepdims in fixed + list(self.cases(rng, 3000)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = reference(a, axis=-1, b=b, keepdims=keepdims)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a RuntimeWarning fails the test
                got = logsumexp(a, b=b, keepdims=keepdims)
            assert np.array_equal(got, want, equal_nan=True), (a, b, keepdims)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert math.isnan(logsumexp(np.array([900.0, 0.0]), b=np.array([0.0, 0.0])))

    @pytest.mark.parametrize("b_shape", ["none", "same", "last_axis", "column"])
    def test_equals_reference(self, b_shape):
        """Bit for bit the formulation with np.broadcast_arrays, np.max and
        np.sum, with b of a's shape (no broadcast), of its last axis or a
        column (broadcast), or absent."""
        rng = np.random.default_rng(34)
        special = np.array([-np.inf, np.inf, 800.0, -800.0, 0.0])
        for _ in range(300):
            shape = tuple(int(k) for k in rng.integers(1, 6, size=rng.integers(1, 4)))
            a = rng.normal(size=shape) * rng.choice([1.0, 10.0, 400.0])
            mask = rng.random(shape) < 0.15
            a[mask] = rng.choice(special, size=int(mask.sum()))
            b = {"none": None, "same": shape, "last_axis": shape[-1:],
                 "column": shape[:-1] + (1,)}[b_shape]
            if b is not None:
                b = rng.random(b)
                b[rng.random(b.shape) < 0.2] = 0.0
            for keepdims in (False, True):
                got = logsumexp(a, b=b, keepdims=keepdims)
                want = reference_logsumexp(a, b=b, keepdims=keepdims)
                assert np.array_equal(got, want, equal_nan=True), (a, b, keepdims)
                assert np.shape(got) == np.shape(want)
                assert type(got) is type(want)


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
        assert all(draw_h(run, rng) == 0 for _ in range(100))

    def test_gaussian_tiny_sigma(self):
        alg = mean_embedding_algorithm(np.array([[3.0, -1.0], [1.0, 1.0]]), 2)
        run = GaussianRun(SPACE2, cosine_loss(), alg, 1e-15, 2, 0.05, posterior_draws=1)
        draws = run.trials(2, 0, 1, posterior_kl=False)
        assert np.allclose(draws.h[0], alg(draws.idx[0]), atol=1e-12)

    def test_fair_coin_frequency(self):
        loss = table([[0.3, 0.7], [0.3, 0.7]])  # identical rows: weights 1/2 each
        run = GibbsRun(SPACE2, loss, PriorWeights.uniform(2), 5.0, 2, 0.05)
        rng = np.random.Generator(np.random.Philox(key=3))
        draws = [draw_h(run, rng) for _ in range(5_000)]
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
            bounded_difference_coefficient(spec, SPACE2, cosine_loss(), 10)

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
            check_self_bounding(space3(), 4, alg, budget=3**4 - 1)


class TestStableAlgorithms:
    def test_constant_sensitivity_zero(self):
        alg = constant_algorithm([1.0, 2.0])
        assert sensitivity(alg, SPACE2, 5) == 0.0

    def test_mean_embedding_diameter_over_n(self):
        phi = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])  # diameter 5
        n = 4
        alg = mean_embedding_algorithm(phi, n)
        got = sensitivity(alg, space3(), n)
        assert got == pytest.approx(5.0 / n)

    @pytest.mark.parametrize("num_points", [1, 2, 9])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 16, 17, 32, 64])
    def test_mean_embedding_diameter_bits(self, num_points, d):
        """The declared c_A, recorded in the verify CSVs, is bit for bit the
        largest np.linalg.norm over every ordered pair of feature rows, over n;
        0 for one point."""
        rng = np.random.Generator(np.random.Philox(key=100 * d + num_points))
        phi = rng.uniform(-0.5, 0.5, size=(num_points, d))
        diam = max(float(np.linalg.norm(phi[i] - phi[j]))
                   for i in range(num_points) for j in range(num_points))
        assert mean_embedding_algorithm(phi, 7).declared_c_A == diam / 7

    def test_brute_force_within_declared(self):
        phi = np.array([[0.0, 0.5], [0.25, 0.0]])
        alg = mean_embedding_algorithm(phi, 3)
        got = sensitivity(alg, SPACE2, 3)
        assert got <= alg.declared_c_A + 1e-12

    def test_brute_force_above_declared_raises(self):
        """A declared c_A below the brute-force sensitivity breaks the
        algorithm's contract, on which the Gaussian certificates rest."""
        alg = mean_embedding_algorithm(np.array([[0.0, 0.5], [0.25, 0.0]]), 3)
        understated = alg._replace(declared_c_A=alg.declared_c_A / 2)
        with pytest.raises(ContractViolation, match="exceeds declared"):
            sensitivity(understated, SPACE2, 3)

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 100)])
    def test_rows_equal_per_row_outputs(self, d, n):
        """A called on a (..., n) index array gives, bit for bit, its output
        on each row alone: the mean of the (n, d) feature rows over its first
        axis, or the constant vector."""
        rng = np.random.Generator(np.random.Philox(key=d))
        phi = rng.uniform(-0.5, 0.5, size=(6, d))
        rows = rng.integers(0, 6, size=(4, 50, n))
        for alg, one in ((mean_embedding_algorithm(phi, n), lambda r: phi[r].mean(axis=0)),
                         (constant_algorithm(phi[0]), lambda r: phi[0])):
            got = alg(rows)
            assert got.shape == (4, 50, d)
            want = np.array([[one(r) for r in block] for block in rows])
            assert np.array_equal(got, want)
            assert np.array_equal(alg(rows[0, 0]), want[0, 0])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_mean_embedding_bits_of_mean(self, d):
        """The mean embedding's A, summed coordinate-major, is bit for bit
        phi[s].mean(axis=-2), the mean of the gather along its strided axis,
        on samples of shape (n,), (3, n), (2, 5, n) and (400, n), at n past
        8, where a sum over contiguous values may go pairwise, up to 5000,
        d = 1 included (the (400, n) gather kept within 16 MB)."""
        rng = np.random.Generator(np.random.Philox(key=70 + d))
        phi = rng.uniform(-0.5, 0.5, size=(8, d))
        for n in (1, 2, 5, 8, 9, 16, 17, 100, 129, 1000, 5000):
            alg = mean_embedding_algorithm(phi, n)
            for shape in [(n,), (3, n), (2, 5, n)] + [(400, n)] * (n * d <= 5000):
                s = rng.integers(0, 8, size=shape)
                assert np.array_equal(alg(s), phi[s].mean(axis=-2)), (n, shape)

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
