"""Closed-form certificates, baselines, and kl utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert import bounds as bd
from gapcert.bounds import (
    Certificate,
    DomainError,
    StabilityPreconditionError,
    baselines,
    bound_bounded_differences,
    bound_empirical_bernstein,
    bound_gaussian_randomization,
    bound_mgf_bounded_differences,
    bound_bernstein,
    bound_subgaussian,
    gap_from_kl,
    inversion_lemma,
    kl_bernoulli,
    kl_inverse_upper,
)

deltas = st.floats(1e-6, 1.0 - 1e-6)


class TestKl:
    def test_diagonal_zero(self):
        for s in (0.0, 0.3, 1.0):
            assert kl_bernoulli(s, s) == 0.0

    def test_reference_value(self):
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.143841, abs=1e-6)

    def test_zero_s_closed_form(self):
        for q in (0.1, 0.5, 0.9):
            assert kl_bernoulli(0.0, q) == pytest.approx(math.log(1.0 / (1.0 - q)))

    def test_boundary_t_infinite(self):
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf

    @given(st.floats(0.0, 1.0), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_pinsker(self, s, t):
        assert kl_bernoulli(s, t) >= 2.0 * (s - t) ** 2 - 1e-12


def reference_kl_inverse_upper(p_hat, B):
    """The plain bisection: kl evaluated at every midpoint."""
    if not (0.0 <= p_hat <= 1.0):
        raise DomainError(f"p_hat must be in [0,1], got {p_hat}")
    if B < 0 or not math.isfinite(B):
        raise DomainError(f"B must be finite and nonnegative, got {B}")
    if B == 0.0:
        return p_hat
    hi = 1.0 - 1e-15
    if p_hat >= hi or kl_bernoulli(p_hat, hi) <= B:
        return 1.0
    lo = p_hat
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = kl_bernoulli(p_hat, mid) - B
        if abs(r) <= 1e-10:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _grid(ps, Bs):
    return [(float(p), float(B)) for p in ps for B in Bs]


def _adversarial_points():
    """Extreme p_hat; B from the smallest float up to kl(p_hat, top) and
    past it, with roots so close to 1 that the bisection runs out of floats."""
    top = bd.KL_INVERSE_TOP
    points = []
    for p in (0.0, 5e-324, 1e-300, 1e-16, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12,
              1.0 - 2e-15, top, 1.0):
        k = kl_bernoulli(p, top) if p < top else 1.0
        Bs = [5e-324, 1e-300, 1e-20, 1e-12, 1e-10, 2e-10, 1e-9, 1e-6, 0.1, 1.0, 10.0, 34.0,
              k, k * (1.0 - 1e-12), k * (1.0 - 1e-9), k * (1.0 - 1e-6), k * (1.0 - 1e-15)]
        Bs += [k * (1.0 - 2.0 ** -j) for j in range(1, 60)]
        points += [(p, B) for B in Bs]
    return points


def _random_points(count):
    rng = np.random.Generator(np.random.Philox(key=15))
    return ([(float(p), 3.0 * float(B)) for p, B in zip(rng.uniform(0, 1, count),
                                                       rng.uniform(0, 1, count))]
            + [(float(p), float(10.0 ** e)) for p, e in zip(rng.uniform(0, 1, count // 4),
                                                             rng.uniform(-320, 1.6, count // 4))])


# criterion 9's residual grid and its domination grid
RESIDUAL_GRID = _grid(np.linspace(0.0, 0.9, 100), np.linspace(1e-6, 0.5, 100))
DOMINATION_GRID = _grid(np.linspace(0.0, 1.0, 60), np.linspace(0.0, 1.5, 60))
# 25 x 100 random points of criterion 9's domain, as one benchmark round scans
_rng = np.random.Generator(np.random.Philox(key=16))
BENCHMARK_DOMAIN = _grid(_rng.uniform(0.0, 0.9, 25), _rng.uniform(1e-6, 0.5, 100))


class TestKlInverse:
    def test_zero_budget(self):
        assert kl_inverse_upper(0.3, 0.0) == pytest.approx(0.3)

    def test_zero_p_hat(self):
        assert kl_inverse_upper(0.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-10)

    def test_residual_on_random_grid(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(200):
            p = float(rng.uniform(0, 0.9))
            B = float(rng.uniform(1e-4, 0.5))
            q = kl_inverse_upper(p, B)
            if q < 1.0:
                assert abs(kl_bernoulli(p, q) - B) <= 1e-10

    def test_no_root_returns_one(self):
        assert kl_inverse_upper(0.999, 5.0) == 1.0

    @given(st.floats(0.0, 0.9), st.floats(1e-4, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_result_at_least_p_hat(self, p, B):
        assert kl_inverse_upper(p, B) >= p

    @pytest.mark.parametrize("points", [RESIDUAL_GRID, DOMINATION_GRID, _random_points(8000),
                                        _adversarial_points()],
                             ids=["residual_grid", "domination_grid", "random", "adversarial"])
    def test_equals_plain_bisection(self, points):
        got = [kl_inverse_upper(p, B) for p, B in points]
        want = [reference_kl_inverse_upper(p, B) for p, B in points]
        mismatches = [(p, B, g, w) for (p, B), g, w in zip(points, got, want) if g != w]
        assert mismatches == []

    def test_numpy_scalars_bisect_in_float64(self):
        """numpy float32 and float64 scalars give the value of their Python
        floats, and the call ends: the loop ends on adjacent float64 ends, and
        a float32 lo and hi could be adjacent around a float64 bracket end."""
        for p, B in _random_points(200):
            for cast in (np.float32, np.float64):
                want = kl_inverse_upper(float(cast(p)), float(cast(B)))
                assert kl_inverse_upper(cast(p), cast(B)) == want

    @pytest.mark.parametrize("p_hat, B", [(math.nan, 0.1), (0.1, math.nan), (0.1, -1e-300),
                                          (0.1, math.inf), (-0.1, 0.1), (1.1, 0.1),
                                          (math.inf, 0.1)])
    def test_same_domain_errors_as_plain_bisection(self, p_hat, B):
        with pytest.raises(DomainError):
            reference_kl_inverse_upper(p_hat, B)
        with pytest.raises(DomainError):
            kl_inverse_upper(p_hat, B)

    @pytest.mark.parametrize("points", [RESIDUAL_GRID, DOMINATION_GRID, _random_points(8000),
                                        _adversarial_points(), BENCHMARK_DOMAIN],
                             ids=["residual_grid", "domination_grid", "random", "adversarial",
                                  "benchmark_domain"])
    def test_certified_bracket(self, points, monkeypatch):
        """The bisection's decision is known at and beyond each end of the
        bracket, here at the end and the four floats past it, and every root
        it finds lies strictly inside. Each set has right ends that are not
        evaluated points but kl's tangents certify, found by recording the
        points the bracket's in-line kl evaluates."""
        tol = bd.KL_INVERSE_RESIDUAL_TOL
        args = []
        log = bd.log
        monkeypatch.setattr(bd, "log", lambda x: args.append(x) or log(x))
        broken, tangent_ends = [], 0
        for p, B in points:
            q = kl_inverse_upper(p, B)
            if B == 0.0 or q == 1.0:
                continue  # answered before any bracket is sought
            args.clear()
            below, right = bd._kl_certified_bracket(p, 1.0 - p, B)
            # each evaluation takes ln(p / q) first where p > 0, else only
            # ln(1 / (1 - q)): q to a few roundings
            evaluated = [p / x for x in args[::2]] if p > 0.0 else [1.0 - 1.0 / x for x in args]
            if right <= bd.KL_INVERSE_TOP and all(abs(right - e) > 8.0 * np.spacing(right)
                                                  for e in evaluated):
                tangent_ends += 1
            t = below
            for _ in range(5):
                if t >= p and not kl_bernoulli(p, t) - B < -tol:
                    broken.append((p, B, "below", below, t))
                t = np.nextafter(t, -1.0)
            t = right
            for _ in range(5):
                if t <= bd.KL_INVERSE_TOP and not kl_bernoulli(p, t) - B > tol:
                    broken.append((p, B, "right", right, t))
                t = np.nextafter(t, 2.0)
            if abs(kl_bernoulli(p, q) - B) <= tol and not below < q < right:
                broken.append((p, B, "root", below, q, right))
        assert broken == []
        assert tangent_ends > 0

    def test_few_kl_evaluations_on_benchmark_domain(self, monkeypatch):
        """kl evaluations a call, in line or through kl_bernoulli, counted by
        the module's log, which each takes once where p_hat = 0 and twice
        elsewhere. The plain bisection evaluates kl about 32 times a call here,
        an evaluated left end of the bracket about 7, a convex one 5.08, and
        the tangent-certified bracket 3.6444."""
        logs = []
        log = bd.log
        monkeypatch.setattr(bd, "log", lambda x: logs.append(x) or log(x))
        evaluations = 0.0
        for p, B in BENCHMARK_DOMAIN:
            logs.clear()
            kl_inverse_upper(p, B)
            evaluations += len(logs) / (2 if p > 0.0 else 1)
        assert evaluations / len(BENCHMARK_DOMAIN) <= 3.7


class TestInversionRules:
    def test_gap_from_kl_trivials(self):
        assert gap_from_kl(0.0, 0.25) == pytest.approx(0.5)
        assert gap_from_kl(0.7, 0.0) == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_gap_from_kl_dominates_exact_inverse(self, lh, B):
        # the numeric inverse may use up to B + residual tolerance of budget
        exact = kl_inverse_upper(lh, B) - lh
        assert gap_from_kl(lh, B + bd.KL_INVERSE_RESIDUAL_TOL) >= exact - 1e-12

    @pytest.mark.parametrize("rule, L_hat, B", [(gap_from_kl, -0.1, 0.2),
                                                (gap_from_kl, 0.1, math.nan),
                                                (gap_from_kl, math.nan, 0.1),
                                                (inversion_lemma, math.nan, 0.1),
                                                (inversion_lemma, 0.1, math.nan)])
    def test_rules_reject_negative_and_nan(self, rule, L_hat, B):
        with pytest.raises(DomainError):
            rule(L_hat, B)

    def test_inversion_lemma_trivials(self):
        assert inversion_lemma(0.4, 0.0) == pytest.approx(0.4)
        assert inversion_lemma(0.0, 1.0) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0))

    @given(st.floats(0.0, 2.0), st.floats(1e-6, 1.0), st.floats(0.0, 12.0))
    @settings(max_examples=300, deadline=None)
    def test_inversion_lemma_implication(self, lh, A, L):
        if L <= lh + 2.0 * math.sqrt(L * A) + A:
            assert L <= inversion_lemma(lh, A) + 1e-9

    def test_inversion_lemma_tight_at_zero(self):
        # the largest admissible L at L_hat = 0 is exactly the returned value
        A = 0.7
        L_star = (math.sqrt(2.0 * A) + math.sqrt(A)) ** 2
        assert L_star <= inversion_lemma(0.0, A) + 1e-12
        assert L_star == pytest.approx(inversion_lemma(0.0, A))


class TestBoundedDifferences:
    def test_reference_values(self):
        delta = math.exp(-1.0)
        assert bound_bounded_differences(1.0, 0.1, 200, delta).value == pytest.approx(0.15)
        delta2 = math.exp(-2.0)
        assert bound_bounded_differences(1.0, 0.1, 100, delta2).value == pytest.approx(0.2)

    def test_delta_to_one_limit(self):
        v = bound_bounded_differences(1.0, 0.0, 100, 1.0 - 1e-12).value
        assert v == pytest.approx(0.0, abs=1e-5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
    def test_delta_domain_open(self, delta):
        with pytest.raises(DomainError):
            bound_bounded_differences(1.0, 0.1, 100, delta)

    def test_mgf_reference(self):
        n = 16
        assert bound_mgf_bounded_differences(1.0, 0.0, n, float(n)) == pytest.approx(n / 8.0)

    def test_mgf_domain(self):
        """Every parameter outside its domain raises, NaN and infinities
        included, as for the certificates."""
        for b, c, n, lam in [(1.0, 0.0, 10, 0.0), (1.0, 0.0, 10, -1.0), (1.0, 0.0, 10, math.nan),
                             (1.0, 0.0, 10, math.inf), (math.nan, 0.1, 10, 1.0),
                             (1.0, math.nan, 10, 1.0), (math.inf, 0.1, 10, 1.0),
                             (1.0, math.inf, 10, 1.0), (0.0, 0.1, 10, 1.0), (1.0, -0.1, 10, 1.0),
                             (1.0, 0.1, 0, 1.0)]:
            with pytest.raises(DomainError):
                bound_mgf_bounded_differences(b, c, n, lam)


class TestBernstein:
    def test_zero_variance_reference(self):
        delta = math.exp(-1.0)
        assert bound_bernstein(0.0, 1.0, 0.1, 100, delta).value == pytest.approx(0.02)

    def test_monotone_in_variance(self):
        vals = [bound_bernstein(v, 1.0, 0.05, 200, 0.05).value
                for v in np.linspace(0, 0.25, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sqrt_growth(self):
        t = 0.05**2 + math.log(1 / 0.05) / 200
        got = bound_bernstein(0.09, 1.0, 0.05, 200, 0.05).value
        assert got == pytest.approx(2 * 0.3 * math.sqrt(t) + t)

    def test_empirical_reference(self):
        delta = math.exp(-1.0)
        got = bound_empirical_bernstein(0.0, 1.0, 0.1, 100, delta).value
        assert got == pytest.approx(0.1)

    def test_empirical_vs_variance_form(self):
        # same sqrt term at v = b L_hat; tail constants 5 vs 1
        b, c, n, delta, lh = 1.0, 0.05, 400, 0.01, 0.2
        t = c**2 + math.log(1 / delta) / n
        emp = bound_empirical_bernstein(lh, b, c, n, delta).value
        var = bound_bernstein(b * lh, b, c, n, delta).value
        assert emp == pytest.approx(var + 4.0 * b * t)


class TestSubgaussian:
    def test_reference_value(self):
        delta = math.exp(-1.0)
        got = bound_subgaussian(1.0, 1.0, 0.0, 50, delta)
        assert got[0].value == pytest.approx(0.2)

    def test_crossover(self):
        # the per-hypothesis form wins when rho_h / rho_sup is small
        a, b = bound_subgaussian(1.0, 0.05, 0.1, 100, 0.05)
        assert b.value < a.value

    def test_rho_h_cannot_exceed_sup(self):
        with pytest.raises(DomainError):
            bound_subgaussian(0.5, 1.0, 0.1, 10, 0.05)


class TestGaussianRandomization:
    def test_gap_joint_reference(self):
        delta = math.exp(-1.0)
        got = bound_gaussian_randomization(0.0, 1.0, 100, delta, variant="gap_joint",
                                           c_A=0.0)
        assert got.value == pytest.approx(0.1)

    def test_kl_expectation_reference(self):
        """Over seeded inputs inside the stability precondition, the expected-kl
        certificate is (6V/sigma^2 + ln 2 sqrt(n) + 2 ln(1/delta)) / n and the
        single-draw gap sqrt((3V/sigma^2 + ln(1/delta)) / n), bit for bit."""
        rng = np.random.Generator(np.random.Philox(key=18))
        for _ in range(2000):
            V = float(10.0 ** rng.uniform(-6.0, 2.0))
            sigma = float(10.0 ** rng.uniform(-2.0, 1.0))
            n = int(rng.integers(9, 100_000))
            delta = float(rng.uniform(1e-6, 1.0 - 1e-6))
            c_A = float(rng.uniform(0.0, 1.0)) * sigma / math.sqrt(12.0 * n)
            kl = bound_gaussian_randomization(V, sigma, n, delta, "kl_expectation", c_A)
            gap = bound_gaussian_randomization(V, sigma, n, delta, "gap_joint", c_A)
            ld = math.log(1.0 / delta)
            assert kl.value == (6.0 / sigma**2 * V + math.log(2.0 * math.sqrt(n)) + 2.0 * ld) / n
            assert gap.value == math.sqrt((3.0 / sigma**2 * V + ld) / n)

    def test_kl_expectation_spot_value(self):
        got = bound_gaussian_randomization(0.3, 1.0, 100, 0.05, "kl_expectation", c_A=0.0)
        want = (6.0 * 0.3 + math.log(2.0 * math.sqrt(100)) + 2.0 * math.log(1.0 / 0.05)) / 100
        assert got.value == want
        assert got.value == pytest.approx(0.1078720, abs=1e-7)

    def test_kl_expectation_log_term_only(self):
        n = 400
        got = bound_gaussian_randomization(0.0, 1.0, n, 1.0 - 1e-12, "kl_expectation",
                                           c_A=0.0)
        assert got.value == pytest.approx(math.log(2 * math.sqrt(n)) / n, abs=1e-9)

    def test_kl_expectation_inverted_gap_decreasing_in_n(self):
        prev = math.inf
        for n in (50, 100, 400, 1600, 6400):
            cert = bound_gaussian_randomization(0.1, 1.0, n, 0.05, "kl_expectation", c_A=0.0)
            gap = kl_inverse_upper(0.1, cert.value) - 0.1
            assert gap < prev
            prev = gap

    def test_nan_c_A_and_nonfinite_sigma_rejected(self):
        """c_A does not enter the value and an infinite sigma gives a finite
        one, so only the checks can refuse them."""
        for variant in ("mgf", "kl_expectation", "gap_joint", "gap_bernstein"):
            for sigma, c_A in ((1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0)):
                with pytest.raises(DomainError, match="c_A >= 0"):
                    bound_gaussian_randomization(0.1, sigma, 100, 0.05, variant, c_A, v_h=0.01)
        for sigma, c_A in ((1.0, math.nan), (math.nan, 0.0)):
            with pytest.raises(StabilityPreconditionError):
                bd.check_stability(c_A, sigma, 100)
        # at the edge 12 n c_A^2 = sigma^2, exactly in floats, the precondition holds
        bd.check_stability(1.0, 12.0, 12)

    def test_gap_bernstein_zero_variance(self):
        got = bound_gaussian_randomization(0.2, 1.0, 100, 0.05,
                                           variant="gap_bernstein", c_A=0.0, v_h=0.0)
        t = (3.0 * 0.2 + math.log(1 / 0.05)) / 100
        assert got.value == pytest.approx(t)

    def test_stability_refusal_names_inequality(self):
        with pytest.raises(StabilityPreconditionError, match="12 n c_A"):
            bound_gaussian_randomization(0.0, 0.1, 100, 0.05, variant="gap_joint",
                                         c_A=0.5)

    def test_small_n_refused_for_kl_variants(self):
        for variant in ("mgf", "kl_expectation"):
            with pytest.raises(DomainError):
                bound_gaussian_randomization(0.0, 1.0, 8, 0.05, variant=variant, c_A=0.0)

    def test_mgf_variant_value_and_refusal(self):
        V, sigma, n = 0.3, 0.5, 100
        got = bound_gaussian_randomization(V, sigma, n, 0.05, variant="mgf", c_A=0.0)
        assert got.method == "gaussian_mgf"
        assert got.value == pytest.approx(3.0 * V / sigma**2
                                          + 0.5 * math.log(2.0 * math.sqrt(n)), rel=1e-15)
        with pytest.raises(DomainError, match="requires n > 8"):
            bound_gaussian_randomization(V, sigma, 8, 0.05, variant="mgf", c_A=0.0)

    def test_scopes(self):
        kl = bound_gaussian_randomization(0.0, 1.0, 100, 0.05,
                                          variant="kl_expectation", c_A=0.0)
        gap = bound_gaussian_randomization(0.0, 1.0, 100, 0.05, variant="gap_joint",
                                           c_A=0.0)
        assert kl.scope == bd.POSTERIOR_EXPECTATION
        assert gap.scope == bd.JOINT_DRAW


class TestBaselines:
    def test_spot_values(self):
        base = baselines(100.0, 10_000, 0.05)
        assert base.rivasplata_gibbs == pytest.approx(0.0997, abs=1e-3)
        ours = bound_bounded_differences(1.0, 100.0 / 10_000, 10_000, 0.05).value
        assert ours == pytest.approx(0.02224, abs=1e-3)

    def test_beta_zero_form(self):
        n, delta = 400, 0.1
        base = baselines(0.0, n, delta)
        want = (2.0 + math.log((1.0 + math.sqrt(math.e)) / delta)) / math.sqrt(n)
        assert base.rivasplata_gibbs == pytest.approx(want)


def bd_objective(inputs, lam):
    """(mgf bound + ln(1/delta)) / lambda, behind the bounded-difference certificate."""
    mgf = bound_mgf_bounded_differences(inputs["b"], inputs["c"], inputs["n"], lam)
    return (mgf + math.log(1.0 / inputs["delta"])) / lam


def gaussian_gap_objective(inputs, lam):
    """lambda / 4n + K / lambda with K = (3 / sigma^2) V + ln(1/delta)."""
    K = 3.0 / inputs["sigma"] ** 2 * inputs["V"] + math.log(1.0 / inputs["delta"])
    return lam / (4.0 * inputs["n"]) + K / lam


LAMBDA_GRID = np.geomspace(1e-3, 1e9, 4001)
_RATIO = math.sqrt(LAMBDA_GRID[1] / LAMBDA_GRID[0])
# Every lambda in the range lies within a factor _RATIO of a grid point, and
# an objective a lambda + B + C / lambda (a, B, C >= 0) is there at most this
# share above its infimum; so the grid minimum over (1 + slack) is below it.
GRID_SLACK = (_RATIO + 1.0 / _RATIO - 2.0) / 2.0

LAMBDA_CASES = [
    (bound_bounded_differences(1.0, 0.08, 150, 0.05), bd_objective),
    (bound_bounded_differences(2.0, 0.0, 100, 0.01), bd_objective),
    (bound_bounded_differences(1.0, 0.5, 20, 0.5), bd_objective),
    (bound_gaussian_randomization(0.3, 0.5, 200, 0.05, "gap_joint", 0.01),
     gaussian_gap_objective),
    (bound_gaussian_randomization(0.0, 2.0, 1000, 0.01, "gap_joint", 0.0),
     gaussian_gap_objective),
]


@pytest.mark.parametrize("cert, objective", LAMBDA_CASES,
                         ids=[f"{c.method}-{i}" for i, (c, _) in enumerate(LAMBDA_CASES)])
def test_certificate_at_least_lambda_optimum(cert, objective):
    """The closed-form certificate relaxes the exact optimum of its lambda
    objective: it is no smaller than the infimum over lambda > 0."""
    grid_min = min(objective(cert.inputs, float(lam)) for lam in LAMBDA_GRID)
    assert cert.value >= grid_min / (1.0 + GRID_SLACK)


def _part(bound, k):
    """The k-th certificate of a bound that returns several."""
    return lambda **inputs: bound(**inputs)[k]


# (bound function, its certificate at level d) per case
CERT_PAIRS = [
    (bound_bounded_differences, lambda d: bound_bounded_differences(1.0, 0.05, 200, d)),
    (bound_bernstein, lambda d: bound_bernstein(0.1, 1.0, 0.05, 200, d)),
    (bound_empirical_bernstein, lambda d: bound_empirical_bernstein(0.2, 1.0, 0.05, 200, d)),
    (_part(bound_subgaussian, 0), lambda d: bound_subgaussian(1.0, 0.5, 0.02, 200, d)[0]),
    (_part(bound_subgaussian, 1), lambda d: bound_subgaussian(1.0, 0.5, 0.02, 200, d)[1]),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d, variant="gap_joint", c_A=0.0)),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d, variant="gap_bernstein",
                                            c_A=0.0, v_h=0.01)),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d,
                                            variant="kl_expectation", c_A=0.0)),
    # the Gaussian-kernel certificates at c_A > 0, as a stable algorithm's run
    # gives them, the last at the precondition's edge 12 n c_A^2 = sigma^2
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d, variant="gap_joint", c_A=0.02)),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d, variant="gap_bernstein",
                                            c_A=0.02, v_h=0.01)),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 1.0, 200, d,
                                            variant="kl_expectation", c_A=0.02)),
    (bound_gaussian_randomization,
     lambda d: bound_gaussian_randomization(0.1, 12.0, 12, d,
                                            variant="kl_expectation", c_A=1.0)),
]
CERT_CASES = [make for _, make in CERT_PAIRS]
BOUND_OF_CASE = {make: bound for bound, make in CERT_PAIRS}


class TestCertificateContract:
    @pytest.mark.parametrize("make", CERT_CASES)
    def test_strictly_increasing_as_delta_decreases(self, make):
        values = [make(d).value for d in (0.5, 0.1, 0.01, 0.001)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("make", CERT_CASES)
    def test_recompute_bit_identical(self, make):
        """The case's own bound function on the recorded inputs gives the
        certificate again."""
        cert = make(0.05)
        assert BOUND_OF_CASE[make](**cert.inputs) == cert

    def test_serialize_layout(self):
        cert = bound_bounded_differences(1.0, 0.05, 200, 0.05)
        parts = cert.serialize().split()
        assert parts[0] == "bounded_differences"
        assert float(parts[1]) == cert.value
        assert float(parts[2]) == 0.05
        assert parts[3] == bd.JOINT_DRAW
        assert any(p.startswith("c=") for p in parts[4:])

    def test_nonfinite_value_rejected(self):
        with pytest.raises(DomainError):
            Certificate("x", math.inf, 0.05, bd.JOINT_DRAW, {})

    @pytest.mark.parametrize("make", CERT_CASES)
    def test_scalar_value_is_python_float(self, make):
        """numpy 2 writes a np.float64 as np.float64(...) in a repr."""
        assert type(make(0.05).value) is float


# Each certificate a trial draw feeds, as a function of one input that may be
# an array over trials; with a value inside the input's domain and one outside.
ARRAY_CASES = {
    "bounded_differences c": (
        lambda x: bound_bounded_differences(1.0, x, 200, 0.05), 0.05, -0.1),
    "bernstein v": (
        lambda x: bound_bernstein(x, 1.0, 0.05, 200, 0.05), 0.1, -0.1),
    "empirical_bernstein L_hat": (
        lambda x: bound_empirical_bernstein(x, 1.0, 0.05, 200, 0.05), 0.2, 1.5),
    "subgaussian_sup rho_h": (
        lambda x: bound_subgaussian(1.0, x, 0.02, 200, 0.05)[0], 0.5, 1.5),
    "subgaussian_h rho_h": (
        lambda x: bound_subgaussian(1.0, x, 0.02, 200, 0.05)[1], 0.5, -0.5),
    "gaussian_gap V": (
        lambda x: bound_gaussian_randomization(x, 1.0, 200, 0.05, "gap_joint", 0.0),
        0.1, -0.1),
    "gaussian_gap_bernstein v_h": (
        lambda x: bound_gaussian_randomization(0.1, 1.0, 200, 0.05, "gap_bernstein", 0.0,
                                               v_h=x), 0.01, -0.01),
    "gaussian_kl_expectation V": (
        lambda x: bound_gaussian_randomization(x, 1.0, 200, 0.05, "kl_expectation", 0.0),
        0.1, -0.1),
}


class TestArrayInputs:
    @pytest.mark.parametrize("case", ARRAY_CASES)
    def test_elementwise_equals_scalar(self, case):
        make, good, _ = ARRAY_CASES[case]
        xs = good * np.array([0.0, 0.25, 0.5, 1.0])
        # a value that does not depend on the input stands for every element
        got = np.broadcast_to(make(xs).value, xs.shape)
        assert got.tolist() == [make(float(x)).value for x in xs]

    @pytest.mark.parametrize("bad_kind", ["domain", "nan", "inf"])
    @pytest.mark.parametrize("case", ARRAY_CASES)
    def test_one_bad_element_raises(self, case, bad_kind):
        """Every domain and finiteness check holds for each element, and a bad
        element fails as the scalar call with it does."""
        make, good, outside = ARRAY_CASES[case]
        bad = {"domain": outside, "nan": math.nan, "inf": math.inf}[bad_kind]
        with pytest.raises(DomainError):
            make(bad)
        with pytest.raises(DomainError):
            make(np.array([good, bad, good]))
