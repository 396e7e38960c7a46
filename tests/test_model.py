"""Core data model: losses, gaps, variances, enumeration, loss-table files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from gapcert.model import (
    BudgetExceeded,
    ContractViolation,
    FiniteDataSpace,
    FiniteTable,
    ParametricLoss,
    PriorWeights,
    empirical_loss,
    enumerate_samples,
    generalization_gap,
    load_loss_table,
    loss_variance,
    true_loss,
)
from gapcert.verify import GibbsRun


def space2(p=0.5):
    return FiniteDataSpace(points=("x1", "x2"), probs=np.array([p, 1.0 - p]))


def table(rows, b=1.0):
    return FiniteTable(values=np.array(rows, dtype=float), bound_b=b)


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

    def test_zero_probability_points_skipped(self):
        space = FiniteDataSpace(points=("a", "b"), probs=np.array([1.0, 0.0]))
        samples = list(enumerate_samples(space, 2))
        assert len(samples) == 1
        assert samples[0][0].tolist() == [0, 0]


class TestContracts:
    def test_parametric_out_of_range(self):
        bad = ParametricLoss(dim_d=1, evaluator=lambda h, i: 2.0,
                             batch_evaluator=lambda hs: np.full((len(hs), 2), 2.0),
                             bound_b=1.0)
        with pytest.raises(ContractViolation):
            bad.value(np.zeros(1), 0)

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
