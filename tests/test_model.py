"""Core data model: losses, gaps, variances, enumeration, loss-table files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from gapcert import bounds as bd
from gapcert import hamiltonian as ham
from gapcert.config import random_gibbs_instance
from gapcert.model import (
    BudgetExceeded,
    CosineLoss,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    empirical_loss,
    enumerate_samples,
    fibres,
    generalization_gap,
    load_loss_table,
    loss_variance,
    max_fibre_range,
    product_rows,
    true_loss,
)
from gapcert.verify import GibbsRun, bernstein_f_factory


def space2(p=0.5):
    return FiniteDataSpace(points=("x1", "x2"), probs=np.array([p, 1.0 - p]))


def table(rows, b=1.0):
    return FiniteTable(values=np.array(rows, dtype=float), bound_b=b)


# out-of-domain inputs of each layer, and the message of their refusal
REFUSALS = {
    "points_probs_mismatch": (ValueError, "points/probs length mismatch",
                              lambda: FiniteDataSpace(points=("a", "b"), probs=[1.0])),
    "one_dimensional_loss_table": (ValueError, "loss table must be 2-dimensional",
                                   lambda: FiniteTable(values=[0.1, 0.2])),
    "hypothesis_out_of_range": (IndexError, "hypothesis index 2 out of range",
                                lambda: table([[0.1, 0.2], [0.3, 0.4]]).row(2)),
    "negative_prior_weight": (ValueError, "prior weights must be nonnegative",
                              lambda: PriorWeights(np.array([1.0, -0.5]))),
    "nan_prior_weight": (ValueError, "prior weights must be nonnegative and finite",
                         lambda: PriorWeights(np.array([1.0, math.nan]))),
    "infinite_prior_weight": (ValueError, "prior weights must be nonnegative and finite",
                              lambda: PriorWeights(np.array([1.0, math.inf]))),
    "negative_beta": (ValueError, "beta must be nonnegative", lambda: ham.Gibbs(beta=-1.0)),
    "nan_beta": (ValueError, "beta must be nonnegative and finite",
                 lambda: ham.Gibbs(beta=math.nan)),
    "infinite_beta": (ValueError, "beta must be nonnegative and finite",
                      lambda: ham.Gibbs(beta=math.inf)),
    "zero_sigma": (ValueError, "sigma must be positive",
                   lambda: ham.GaussianKernel(sigma=0.0,
                                              algorithm=ham.constant_algorithm([0.0]))),
    "nan_sigma": (ValueError, "sigma must be positive and finite",
                  lambda: ham.GaussianKernel(sigma=math.nan,
                                             algorithm=ham.constant_algorithm([0.0]))),
    "infinite_sigma": (ValueError, "sigma must be positive and finite",
                       lambda: ham.GaussianKernel(sigma=math.inf,
                                                  algorithm=ham.constant_algorithm([0.0]))),
    "unknown_coefficient_mode": (ValueError, "unknown mode 'sampled'",
                                 lambda: ham.bounded_difference_coefficient(
                                     ham.Gibbs(beta=1.0), space2(), table([[0.1, 0.2]]), 2,
                                     mode="sampled")),
    "one_dimensional_features": (ValueError, r"feature table must be \(num_points, d\)",
                                 lambda: ham.mean_embedding_algorithm(np.zeros(3), 4)),
    "kl_s_outside_unit": (bd.DomainError, r"s must be in \[0,1\]",
                          lambda: bd.kl_bernoulli(-0.1, 0.5)),
    "kl_t_outside_unit": (bd.DomainError, r"t must be in \[0,1\]",
                          lambda: bd.kl_bernoulli(0.5, 1.5)),
    "mgf_bound_zero_b": (bd.DomainError, "need b > 0, c >= 0, n >= 1",
                         lambda: bd.bound_mgf_bounded_differences(0.0, 0.1, 5, 1.0)),
    "empirical_bernstein_zero_b": (bd.DomainError, "need b > 0, c >= 0, n >= 1",
                                   lambda: bd.bound_empirical_bernstein(0.1, 0.0, 0.1, 5, 0.05)),
    "baselines_negative_beta": (bd.DomainError, "need beta >= 0 and n >= 1",
                                lambda: bd.baselines(-1.0, 10, 0.05)),
    "baselines_nan_beta": (bd.DomainError, "need beta >= 0 and n >= 1",
                           lambda: bd.baselines(math.nan, 10, 0.05)),
    "baselines_infinite_beta": (bd.DomainError, "need beta >= 0 and n >= 1",
                                lambda: bd.baselines(math.inf, 10, 0.05)),
    # squares past the float range or rounding to 0, refused by the condition
    # they fail rather than by an OverflowError or a ZeroDivisionError
    "stability_c_A_squares_past_max": (bd.StabilityPreconditionError,
                                       r"12 \* 10 \* 1e\+300\^2 = inf > 1.0",
                                       lambda: bd.check_stability(1e300, 1.0, 10)),
    "gaussian_sigma_squares_past_max": (
        bd.DomainError, r"sigma\^2 = inf at sigma = 1e\+200 is not a normal float",
        lambda: bd.bound_gaussian_randomization(0.1, 1e200, 100, 0.05, "gap_joint", 0.0)),
    "gaussian_sigma_squares_to_zero": (
        bd.DomainError, r"sigma\^2 = 0.0 at sigma = 1e-200 is not a normal float",
        lambda: bd.bound_gaussian_randomization(0.1, 1e-200, 100, 0.05, "gap_joint", 0.0)),
    "bernstein_c_squares_past_max": (bd.DomainError, "certificate value must be finite",
                                     lambda: bd.bound_bernstein(0.1, 1.0, 1e200, 10, 0.05)),
    "empirical_bernstein_c_squares_past_max": (
        bd.DomainError, "certificate value must be finite",
        lambda: bd.bound_empirical_bernstein(0.1, 1.0, 1e200, 10, 0.05)),
    "baselines_beta_squares_past_max": (bd.DomainError, "overflows",
                                        lambda: bd.baselines(1e200, 10, 0.05)),
    "bernstein_f_c_squares_past_max": (
        bd.DomainError, r"n c\^2 \+ ln\(1/delta\) = inf",
        lambda: bernstein_f_factory(*random_gibbs_instance(0, 3, 4), 3, 1e200, 0.05)),
    "mgf_bound_c_squares_past_max": (
        bd.DomainError, "overflows", lambda: bd.bound_mgf_bounded_differences(1.0, 1e200, 10, 1.0)),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_out_of_domain_input_is_refused(case):
    error, message, call = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


@st.composite
def random_instance(draw, max_points=3, max_hyp=4):
    m = draw(st.integers(2, max_points))
    k = draw(st.integers(1, max_hyp))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    probs = np.array(raw) / sum(raw)
    vals = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
        min_size=k, max_size=k)))
    return FiniteDataSpace(points=tuple(f"x{i}" for i in range(m)), probs=probs), \
        FiniteTable(values=vals, bound_b=1.0)


class TestLosses:
    def test_true_loss_uniform(self):
        assert true_loss(0, space2(), table([[0.0, 1.0]])) == pytest.approx(0.5)

    def test_true_loss_constant_zero(self):
        assert true_loss(0, space2(), table([[0.0, 0.0]])) == 0.0

    def test_true_loss_dot_product(self):
        assert true_loss(0, space2(0.25), table([[1.0, 0.0]])) == pytest.approx(0.25)

    def test_empirical_loss_mean(self):
        s = np.array((0, 0, 1))
        assert empirical_loss(0, s, table([[0.0, 1.0]])) == pytest.approx(1.0 / 3.0)

    def test_empirical_loss_constant(self):
        s = np.array((0, 1, 1, 0))
        assert empirical_loss(0, s, table([[0.3, 0.3]])) == pytest.approx(0.3)

    def test_empirical_loss_constant_entries(self):
        assert empirical_loss(0, np.array((1, 1)), table([[0.2, 0.8]])) == pytest.approx(0.8)

    def test_gap_example(self):
        got = generalization_gap(0, np.array((0, 0)), space2(), table([[0.0, 1.0]]))
        assert got == pytest.approx(0.5)

    def test_gap_constant_hypothesis(self):
        assert generalization_gap(0, np.array((1, 0)), space2(), table([[0.4, 0.4]])) == 0.0

    @given(random_instance(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_decomposition_exact(self, inst, n):
        space, loss = inst
        sample = np.arange(n) % space.size
        for h in range(loss.num_hypotheses):
            lhs = true_loss(h, space, loss)
            rhs = empirical_loss(h, sample, loss) + generalization_gap(h, sample, space, loss)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(random_instance(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_gap_centered(self, inst, n):
        space, loss = inst
        for h in range(loss.num_hypotheses):
            total = sum(w * generalization_gap(h, s, space, loss)
                        for s, w in enumerate_samples(space, n))
            assert abs(total) < 1e-10


def reference_fibres(space, n, values):
    """fibres as the np.ix_ copy of the support grid, for every space."""
    grid = values.reshape(values.shape[:-1] + (space.size,) * n)
    lead = values.ndim - 1
    support = np.flatnonzero(space.probs > 0)
    every = np.arange(space.size)
    for k in range(n):
        axes = np.ix_(*[every if j == k else support for j in range(n)])
        yield np.moveaxis(grid[(..., *axes)], lead + k, -1)


class TestTrimmedReductions:
    """The oracles' reductions equal the formulations they replace, bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 9, 17])
    def test_empirical_loss_is_the_mean(self, n):
        """np.add.reduce / n against .mean(axis=-1), past numpy's 8-wide
        unrolled blocks at n = 9 and 17, on rows and on one sample."""
        rng = np.random.default_rng(n)
        loss = FiniteTable(values=rng.random((3, 7)))
        samples = rng.integers(0, 7, size=(11, n))
        for h in range(3):
            want = loss.row(h)[samples].mean(axis=-1)
            assert np.array_equal(empirical_loss(h, samples, loss), want)
            got, want = empirical_loss(h, samples[0], loss), loss.row(h)[samples[0]].mean()
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.5, 0.0, 0.5]],
                             ids=["full_support", "zero_probability_point"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["flat", "leading_axis"])
    def test_fibres_equal_the_copies(self, probs, lead):
        """Each fibre holds the copy's values in its shape; on flat values it
        also has the copy's strides, so a dot over y sums in the same order."""
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array(probs))
        n = 3
        values = np.random.default_rng(7).normal(size=lead + (space.size**n,))
        pairs = list(zip(fibres(space, n, values), reference_fibres(space, n, values)))
        assert len(pairs) == n
        for got, want in pairs:
            assert got.shape == want.shape and np.array_equal(got, want)
            if not lead:
                assert got.strides == want.strides
                assert np.array_equal(got @ space.probs, want @ space.probs)
        want = max(0.0, *(float((g.max(-1) - g.min(-1)).max())
                          for g in reference_fibres(space, n, values)))
        assert max_fibre_range(space, n, values) == want


class TestVariance:
    def test_constant_zero(self):
        assert loss_variance(0, space2(), table([[0.7, 0.7]])) == pytest.approx(0.0)

    def test_bernoulli(self):
        assert loss_variance(0, space2(0.25), table([[1.0, 0.0]])) == pytest.approx(0.1875)

    @given(random_instance())
    @settings(max_examples=50, deadline=None)
    def test_variance_chain(self, inst):
        space, loss = inst
        b = loss.bound_b
        for h in range(loss.num_hypotheses):
            v = loss_variance(h, space, loss)
            L = true_loss(h, space, loss)
            second_moment = float(space.probs @ loss.values[h] ** 2)
            assert 0.0 <= v <= b * b / 4.0 + 1e-12
            assert v <= second_moment + 1e-12
            assert second_moment <= b * L + 1e-12


class TestSubgaussian:
    """rho_h of a Gibbs run: half the range of h's loss values (Hoeffding's
    lemma), the subgaussian scale the certificates use."""

    @staticmethod
    def rho(rows):
        return GibbsRun(space2(), table(rows), PriorWeights.uniform(len(rows)),
                        1.0, 1, 0.05).rho

    def test_constant_zero(self):
        assert self.rho([[0.4, 0.4]])[0] == 0.0

    def test_binary_half(self):
        assert self.rho([[0.0, 1.0]])[0] == pytest.approx(0.5)


class TestEnumeration:
    def test_weights_sum_to_one(self):
        total = sum(w for _, w in enumerate_samples(space2(0.3), 4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_samples(space2(), 30, budget=1000))

    @pytest.mark.parametrize("size, n, hypotheses, budget", [
        (3, 5, 4, 971), (2, 39, 1, 10), (2, 40, 1, 10), (2, 41, 1, 10), (1, 10**6, 2, 1),
        (2, 41, 1, 2**40), (2, 42, 3, 2**41 - 1), (3, 100, 4, 10**30), (10, 10**6, 16, 10**6),
    ])
    def test_budget_refusal_message(self, size, n, hypotheses, budget):
        """The refusal gives the count |X|^n x hypotheses below 10^12 and
        none from there, also where product_rows does not take the power:
        on two or more points past n = 40 and the budget's bits."""
        space = FiniteDataSpace(points=tuple(range(size)), probs=np.full(size, 1.0 / size))
        states = size**n * hypotheses
        count = f" = {states}" if states < 10**12 else ""
        with pytest.raises(BudgetExceeded) as exc:
            product_rows(space, n, budget, hypotheses)
        assert str(exc.value) == (f"enumeration of {size}^{n} x {hypotheses}{count} "
                                  f"states exceeds budget {budget}")

    def test_zero_probability_points_skipped(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([1.0, 0.0]))
        samples = list(enumerate_samples(space, 2))
        assert len(samples) == 1
        assert samples[0][0].tolist() == [0, 0]


COSINE_FEATURES = np.array([[1.0], [-1.0], [3.0], [1e-9]])


class TestContracts:
    def test_cosine_loss_in_unit_interval(self):
        """(1 + cos)/2 stays in [0, 1] with no runtime check: 500 random
        angles in [-1e6, 1e6] at each feature."""
        angles = np.random.default_rng(0).uniform(-1e6, 1e6, size=500)
        values = CosineLoss(COSINE_FEATURES).values(angles[:, None])
        assert np.all((0.0 <= values) & (values <= 1.0))

    def test_parametric_out_of_range(self):
        """No angle takes the parametric (cosine) loss out of [0, 1]: not
        the multiples of pi up to +-50 pi, nor +-1e3 ... +-1e300."""
        angles = np.concatenate([math.pi * np.arange(-50, 51), 10.0 ** np.arange(3, 301, 3),
                                 -(10.0 ** np.arange(3, 301, 3))])
        values = CosineLoss(COSINE_FEATURES).values(angles[:, None])
        assert np.all((0.0 <= values) & (values <= 1.0))

    @pytest.mark.parametrize("value", [-1e-9, 1.0 + 2e-12, math.nan])
    def test_parametric_outside_or_nan_raises(self, value):
        """A loss value outside [0, 1], or NaN, has no kl: kl_bernoulli
        refuses it as either argument, and takes in-range values."""
        assert bd.kl_bernoulli(0.5, 0.5) == 0.0
        with pytest.raises(bd.DomainError):
            bd.kl_bernoulli(value, 0.5)
        with pytest.raises(bd.DomainError):
            bd.kl_bernoulli(0.5, value)

    def test_parametric_clamped_to_b(self):
        """The cosine loss needs no clamp to b = 1: where cos rounds to 1 the
        loss is 1 exactly, where it rounds to -1 it is 0 exactly, and it
        passes neither end."""
        top = np.array([0.0, 1e-300, 1e-9, 2 * math.pi])
        bottom = np.array([math.pi, -math.pi, np.nextafter(math.pi, 4.0)])
        loss = CosineLoss(np.array([[1.0]]))
        assert loss.values(top[:, None]).tolist() == [[1.0]] * 4
        assert loss.values(bottom[:, None]).tolist() == [[0.0]] * 3

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            FiniteDataSpace(points=("a", "b"), probs=np.array([0.6, 0.6]))

    def test_negative_loss_table(self):
        with pytest.raises(ValueError):
            table([[-0.1, 0.5]])

    def test_loss_above_bound(self):
        with pytest.raises(ValueError):
            table([[0.1, 1.5]], b=1.0)

    @pytest.mark.parametrize("probs", [[0.5, math.nan], [math.inf, 0.5], [math.nan, math.nan]])
    def test_non_finite_probs(self, probs):
        """NaN fails every comparison, so it must be rejected by name."""
        with pytest.raises(ValueError, match="finite"):
            FiniteDataSpace(points=("a", "b"), probs=np.array(probs))

    @pytest.mark.parametrize("rows, b", [([[0.1, math.nan]], 1.0), ([[0.1, math.inf]], 1.0),
                                         ([[0.1, 0.2]], math.nan), ([[0.1, 0.2]], math.inf)])
    def test_non_finite_table(self, rows, b):
        with pytest.raises(ValueError):
            table(rows, b=b)

    def test_prior_all_zero(self):
        with pytest.raises(ValueError):
            PriorWeights(weights=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("make, field, array", [
        (lambda a: FiniteDataSpace(points=("a", "b"), probs=a), "probs", [0.5, 0.5]),
        (lambda a: FiniteTable(values=a), "values", [[0.25, 0.5]]),
        (lambda a: PriorWeights(weights=a), "weights", [1.0, 2.0])],
        ids=["space", "table", "prior"])
    def test_record_freezes_a_copy_not_the_callers_array(self, make, field, array):
        mine = np.array(array)
        held = getattr(make(mine), field)
        assert mine.flags.writeable and not held.flags.writeable
        assert held is not mine and np.array_equal(held, mine)


class TestLossTableFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "loss.txt"
        path.write_text(
            "# toy instance\n"
            "points a b c\n"
            "#mu 0.2 0.3 0.5\n"
            "b 2.0\n"
            "h0 0.0 1.0 2.0\n"
            "h1 0.5 0.5 0.5\n")
        space, loss = load_loss_table(path)
        assert space.points == ("a", "b", "c")
        assert np.allclose(space.probs, [0.2, 0.3, 0.5])
        assert loss.bound_b == 2.0
        assert loss.num_hypotheses == 2
        assert true_loss(0, space, loss) == pytest.approx(1.3)

    @pytest.mark.parametrize("line", ["b", "b 1.0 2.0"])
    def test_b_line_holds_one_number(self, tmp_path, line):
        path = tmp_path / "loss.txt"
        path.write_text(f"points a b\n#mu 0.5 0.5\n{line}\nh0 0.1 0.2\n")
        with pytest.raises(ValueError, match=r"loss.txt:3: a b line holds exactly one number"):
            load_loss_table(path)

    @pytest.mark.parametrize("table, lineno", [
        ("points a b\n#mu 0.5 0.5\npoints c d\nh0 0.1 0.2\n", 3),
        ("points a b\n#mu 0.5 0.5\n#mu 0.1 0.9\nb 1\nh0 0.1 0.2\n", 3),
        ("points a b\n#mu 0.5 0.5\nb 1\nh0 0.1 0.2\nb 2\n", 5),
    ], ids=["points", "mu", "b"])
    def test_header_line_once(self, tmp_path, table, lineno):
        """A second points, #mu or b line is refused by its line number, not
        read over the first."""
        path = tmp_path / "loss.txt"
        path.write_text(table)
        kind = table.splitlines()[lineno - 1].split()[0]
        with pytest.raises(ValueError, match=rf"loss.txt:{lineno}: duplicate {kind} line"):
            load_loss_table(path)

    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = next(block for block in readme.split("```")[1::2]
                       if "\npoints " in block)
        path = tmp_path / "readme_table.txt"
        path.write_text(example)
        space, loss = load_loss_table(path)
        assert space.points == ("x1", "x2", "x3")
        assert np.allclose(space.probs, [0.2, 0.3, 0.5])
        assert loss.bound_b == 2.0
        assert loss.num_hypotheses == 2
