"""Numerical truth-ground: exact enumeration oracles and Monte Carlo checks.

The moment inequalities behind every certificate are theorems; the oracles
here enumerate tiny instances exactly and record the margin between the
claimed bound and the enumerated quantity. A negative margin in the exact
regime (beyond -1e-9 float noise) is a build-failing event. Certificates
themselves are checked by seeded violation-rate trials with Clopper-Pearson
confidence bounds on the true violation probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp
from scipy.stats import beta as beta_dist

from . import bounds as bd
from . import hamiltonian as ham
from .hamiltonian import (
    HamiltonianSpec,
    StableAlgorithm,
    hamiltonian_matrix,
    hypothesis_sensitivity,
    log_weight_rows,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteDataSpace,
    FiniteTable,
    ParametricLoss,
    PriorWeights,
    empirical_losses,
    enumerate_indices,
    generalization_gap,
    loss_variance,
    math_map,
    row_blocks,
    substitutions,
    true_loss,
)

EXACT_MARGIN_TOL = -1e-9
# a Monte Carlo estimate passes within 1% relative or 4 standard errors
MC_RELATIVE_TOL = 0.01
MC_STDERR_TOL = 4.0
CP_LEVEL = 0.999


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for (master seed, trial index).

    Philox keyed on the pair makes serial and parallel runs bit-identical.
    """
    return np.random.Generator(np.random.Philox(key=(master_seed & (2**64 - 1), index)))


def draw_sample(space: FiniteDataSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid categorical draws by inverse CDF, as point indices."""
    cdf = np.cumsum(space.probs)
    return np.searchsorted(cdf, rng.random(n), side="right").clip(0, space.size - 1)


@dataclass(frozen=True)
class MomentCheckReport:
    name: str
    lhs: float
    rhs: float
    regime: str  # exact_enumeration | monte_carlo
    stderr: float = 0.0
    low_confidence: bool = False
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.regime == "exact_enumeration":
            return self.margin >= EXACT_MARGIN_TOL
        err = abs(self.lhs - self.rhs)
        return err <= MC_RELATIVE_TOL * abs(self.rhs) or err <= MC_STDERR_TOL * self.stderr


# ---------------------------------------------------------------------------
# exact mixed MGF and the main proposition
#
# The exact oracles enumerate X^n once as an (S, n) index array and reduce
# over (m, S) arrays. The mixed-MGF, psi_F and log Z values equal their
# per-sample definitions bit for bit: weights and logs go through math.exp and
# math.log, per-hypothesis sums are per-hypothesis dot products, and every
# other reduction runs along a C-contiguous last axis, where numpy sums in the
# same order as on a lone vector.

def _enumerate_posteriors(spec: HamiltonianSpec, space: FiniteDataSpace, loss: FiniteTable,
                          prior: PriorWeights, n: int, budget: int):
    """Sample rows (S, n), their mu^n weights (S,), H over (m, S), the
    posterior log weights (S, m) and ln Z per row (S,)."""
    idx, w = enumerate_indices(space, n, budget, loss.num_hypotheses)
    H = hamiltonian_matrix(spec, idx, loss)
    log_w = log_weight_rows(H, prior)
    return idx, w, H, log_w, logsumexp(log_w, axis=-1)


def _log_mixed_mgf(w: np.ndarray, log_w: np.ndarray, log_z: np.ndarray,
                   F: np.ndarray) -> float:
    """ln sum_x w(x) sum_h Q_x(h) e^{F(h, x)} for F over (m, S), with the terms
    in sample-major order and those of Q_x(h) = 0 left out."""
    q = np.exp(log_w - log_z[:, None])
    q = (q / q.sum(axis=-1, keepdims=True)).ravel()
    keep = q > 0
    terms = (np.repeat(math_map(math.log, w), log_w.shape[1])[keep]
             + math_map(math.log, q[keep]))
    return float(logsumexp(terms + F.T.ravel()[keep]))


def _gap_matrix(space: FiniteDataSpace, loss: FiniteTable, idx: np.ndarray) -> np.ndarray:
    """The generalization gap of every hypothesis on every sample row, (m, S)."""
    true_L = np.array([true_loss(h, space, loss) for h in range(loss.num_hypotheses)])
    return true_L[:, None] - empirical_losses(loss, idx)


def exact_mixed_mgf(spec: HamiltonianSpec, space: FiniteDataSpace, loss: FiniteTable,
                    prior: PriorWeights, n: int, lam: float,
                    budget: int = DEFAULT_ENUMERATION_BUDGET) -> float:
    """The mixed log-MGF of the generalization gap at parameter lam."""
    idx, w, _, log_w, log_z = _enumerate_posteriors(spec, space, loss, prior, n, budget)
    return _log_mixed_mgf(w, log_w, log_z, lam * _gap_matrix(space, loss, idx))


def _psi_values(F: np.ndarray, H: np.ndarray, log_z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """psi_F(h) = ln E[e^{F + H_Q - E H_Q}] for every hypothesis, exactly."""
    hq = H - log_z
    mean_hq = np.array([w @ row for row in hq])
    return logsumexp(F + hq - mean_hq[:, None], axis=-1, b=w)


def _bernstein_constants(space: FiniteDataSpace, loss: FiniteTable, n: int, c: float,
                         delta: float) -> tuple[list[float], list[float]]:
    """lam(h) and the compensator lam(h)^2 / (1 - b lam(h)/n) * v(h)/n of
    every hypothesis."""
    b = loss.bound_b
    root = math.sqrt(n * c**2 + math.log(1.0 / delta))
    lams, comps = [], []
    for h in range(loss.num_hypotheses):
        v = loss_variance(h, space, loss)
        lam = root / ((b / n) * root + math.sqrt(v / n))
        lams.append(lam)
        comps.append(lam**2 / (1.0 - b * lam / n) * v / n)
    return lams, comps


def bernstein_f_factory(space: FiniteDataSpace, loss: FiniteTable, n: int, c: float,
                        delta: float) -> Callable[[int, np.ndarray], float]:
    """The hypothesis-dependent compensated gap used by the Bernstein bound.

    lam(h) = sqrt(n c^2 + ln(1/delta)) /
             ((b/n) sqrt(n c^2 + ln(1/delta)) + sqrt(v(h)/n))
    F(h, x) = lam(h) gap(h, x) - lam(h)^2 / (1 - b lam(h)/n) * v(h)/n
    """
    lams, comps = _bernstein_constants(space, loss, n, c, delta)

    def F(h: int, sample: np.ndarray) -> float:
        return lams[h] * generalization_gap(h, sample, space, loss) - comps[h]

    return F


def check_proposition_main(spec: HamiltonianSpec, space: FiniteDataSpace, loss: FiniteTable,
                           prior: PriorWeights, n: int, F: Callable[[int, np.ndarray], float],
                           name: str = "main_proposition",
                           budget: int = DEFAULT_ENUMERATION_BUDGET) -> MomentCheckReport:
    """Enumerated mixed log-MGF of F against the enumerated sup_h psi_F(h)."""
    idx, w, H, log_w, log_z = _enumerate_posteriors(spec, space, loss, prior, n, budget)
    F_values = np.array([[F(h, row) for row in idx] for h in range(loss.num_hypotheses)])
    lhs = _log_mixed_mgf(w, log_w, log_z, F_values)
    psi = _psi_values(F_values, H, log_z, w)
    return MomentCheckReport(name=name, lhs=lhs, rhs=float(psi.max()),
                             regime="exact_enumeration",
                             details={"psi_per_hypothesis": psi.tolist()})


def check_bernstein_unit_mgf(space: FiniteDataSpace, loss: FiniteTable, n: int, c: float,
                             delta: float,
                             budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[MomentCheckReport]:
    """E[e^{2 F_lam(h, X)}] <= 1 for every hypothesis, by enumeration."""
    lams, comps = _bernstein_constants(space, loss, n, c, delta)
    idx, w = enumerate_indices(space, n, budget, loss.num_hypotheses)
    F = np.array(lams)[:, None] * _gap_matrix(space, loss, idx) - np.array(comps)[:, None]
    lhs = logsumexp(2.0 * F, axis=-1, b=w)  # log E e^{2F}
    return [MomentCheckReport(name=f"bernstein_unit_mgf_h{h}", lhs=float(v), rhs=0.0,
                              regime="exact_enumeration") for h, v in enumerate(lhs)]


# ---------------------------------------------------------------------------
# martingale MGF bounds for random functions on X^n
#
# A random function f: X^n -> R is a flat table indexed by base-|X| digits,
# so table.reshape((|X|,) * n) puts coordinate k on axis k and every
# one-coordinate quantity below is a reduction along one axis.

def _exact_centered_mgf(table: np.ndarray, flat: np.ndarray, w: np.ndarray) -> float:
    vals = table[flat]
    mean = float(w @ vals)
    return float(logsumexp(vals - mean, b=w))


def check_martingale_mgf(space: FiniteDataSpace, n: int, case: str, num_trials: int,
                         seed: int = 0,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[MomentCheckReport]:
    """Exact checks of the three centered-MGF bounds on seeded random tables.

    Hypotheses are enforced by explicit post-scaling of the raw table: case
    'ii' rescales to a target one-coordinate difference bound, case 'iii'
    rescales so the one-sided centered excess lands in (0, 2). Case 'i'
    computes its per-coordinate subgaussian-step constant exactly from the
    table, so the hypothesis holds by construction.
    """
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"unknown case {case!r}")
    reports = []
    idx, w = enumerate_indices(space, n, budget)
    flat = np.ravel_multi_index(idx.T, (space.size,) * n)
    for t in range(num_trials):
        rng = substream(seed, t)
        table = rng.uniform(-1.0, 1.0, size=space.size**n)

        if case == "ii":
            raw_c = _max_partial_difference(space, n, table)
            target_c = float(rng.uniform(0.1, 1.0))
            if raw_c > 0:
                table = table * (target_c / raw_c)
            c = target_c if raw_c > 0 else 0.0
            lhs = _exact_centered_mgf(table, flat, w)
            rhs = n * c**2 / 8.0
            reports.append(MomentCheckReport(name=f"martingale_ii_{t}", lhs=lhs, rhs=rhs,
                                             regime="exact_enumeration",
                                             details={"c": c}))
            continue

        if case == "iii":
            raw_b = _max_one_sided_excess(space, n, table)
            target_b = float(rng.uniform(0.2, 1.5))
            if raw_b > 0:
                table = table * (target_b / raw_b)
            b = target_b if raw_b > 0 else 1.0
            vks = _coordinate_variances(space, n, table)
            lhs = _exact_centered_mgf(table, flat, w)
            rhs = sum(vks) / (2.0 - b)
            reports.append(MomentCheckReport(name=f"martingale_iii_{t}", lhs=lhs, rhs=rhs,
                                             regime="exact_enumeration",
                                             details={"b": b, "v_k": vks}))
            continue

        # case i: exact per-coordinate log-MGF constant r^2
        r2 = _subgaussian_step_constant(space, n, table)
        lhs = _exact_centered_mgf(table, flat, w)
        reports.append(MomentCheckReport(name=f"martingale_i_{t}", lhs=lhs, rhs=n * r2,
                                         regime="exact_enumeration",
                                         details={"r2": r2}))
    return reports


def _fibres(space: FiniteDataSpace, n: int, table: np.ndarray):
    """Per coordinate k, f along k at every base sample in the support: an
    array with one axis per other coordinate (its support points) and the
    substituted point y, over all of X, on the last axis."""
    grid = table.reshape((space.size,) * n)
    support = np.flatnonzero(space.probs > 0)
    every = np.arange(space.size)
    for k in range(n):
        axes = np.ix_(*[every if j == k else support for j in range(n)])
        yield np.moveaxis(grid[axes], k, -1)


def _max_partial_difference(space, n, table) -> float:
    return max(0.0, *(float((g.max(-1) - g.min(-1)).max())
                      for g in _fibres(space, n, table)))


def _max_one_sided_excess(space, n, table) -> float:
    """max over base samples x and coordinates k of f(x) - E_y f(x_k <- y)."""
    support = space.probs > 0
    return max(float((g[..., support] - (g @ space.probs)[..., None]).max())
               for g in _fibres(space, n, table))


def _coordinate_variances(space, n, table) -> list[float]:
    vks = []
    for g in _fibres(space, n, table):
        dev = g - (g @ space.probs)[..., None]
        vks.append(max(0.0, float((dev**2 @ space.probs).max())))
    return vks


def _subgaussian_step_constant(space, n, table) -> float:
    r2 = 0.0
    for g in _fibres(space, n, table):
        dev = g - (g @ space.probs)[..., None]
        r2 = max(r2, float(logsumexp(dev, axis=-1, b=space.probs).max()))
    return r2


# ---------------------------------------------------------------------------
# log-partition bounded differences

def check_logZ_bounded_differences(spec: HamiltonianSpec, space: FiniteDataSpace,
                                   loss: FiniteTable, prior: PriorWeights, n: int,
                                   budget: int = DEFAULT_ENUMERATION_BUDGET
                                   ) -> list[MomentCheckReport]:
    """|D ln Z| <= c and |D H_Q| <= 2c for the brute-force c of H."""
    c, _ = ham.bounded_difference_coefficient(spec, space, loss, n, budget=budget)
    idx, _ = enumerate_indices(space, n, budget, loss.num_hypotheses)
    max_dlnz = 0.0
    max_dhq = 0.0
    for rows in row_blocks(len(idx), n * space.size):
        sub = substitutions(idx[rows], space.size)  # (rows, k, y, n)
        H = hamiltonian_matrix(spec, sub.reshape(-1, n), loss)
        log_z = logsumexp(log_weight_rows(H, prior), axis=-1)
        hq = (H - log_z).reshape(loss.num_hypotheses, *sub.shape[:3])
        log_z = log_z.reshape(sub.shape[:3])
        max_dlnz = max(max_dlnz, float((log_z.max(-1) - log_z.min(-1)).max()))
        max_dhq = max(max_dhq, float((hq.max(-1) - hq.min(-1)).max()))
    return [
        MomentCheckReport(name="logZ_bounded_differences", lhs=max_dlnz, rhs=c,
                          regime="exact_enumeration"),
        MomentCheckReport(name="canonical_bounded_differences", lhs=max_dhq, rhs=2.0 * c,
                          regime="exact_enumeration"),
    ]


# ---------------------------------------------------------------------------
# Gaussian moment identity (Monte Carlo)

def check_gaussian_identity(w, v, sigma: float, lam: float, mc_samples: int,
                            seed: int = 0) -> MomentCheckReport:
    """MC check of the Gaussian shift identity against its closed form.

    Outside lam in [1, 2] or ||v - w|| / sigma <= 2 the integrand's variance
    makes plain MC unreliable; such reports are labeled low-confidence.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if lam < 1:
        raise ValueError("lam must be at least 1")
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    dist = float(np.linalg.norm(v - w))
    # E exp((-lam/2s^2)(|x-v|^2 - |x-w|^2)) with x = w + s z reduces to the
    # normal MGF at -lam|v-w|/s, giving exp(((lam^2 - lam)/2s^2)|v-w|^2);
    # at lam = 1 the integrand is a likelihood ratio with mean exactly 1
    closed = math.exp((lam**2 - lam) / (2.0 * sigma**2) * dist**2)
    rng = substream(seed, 0)
    batch = 250_000
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < mc_samples:
        m = min(batch, mc_samples - done)
        x = w + sigma * rng.standard_normal((m, len(w)))
        expo = (-lam / (2.0 * sigma**2)) * (
            np.einsum("ij,ij->i", x - v, x - v) - np.einsum("ij,ij->i", x - w, x - w))
        vals = np.exp(expo)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m
    est = total / mc_samples
    var = max(total_sq / mc_samples - est**2, 0.0)
    se = math.sqrt(var / mc_samples)
    low_conf = not (1.0 <= lam <= 2.0 and dist / sigma <= 2.0)
    if not math.isfinite(est):
        low_conf = True
    return MomentCheckReport(name="gaussian_identity", lhs=est, rhs=closed,
                             regime="monte_carlo", stderr=se, low_confidence=low_conf,
                             details={"relative_error": abs(est - closed) / closed,
                                      "dist_over_sigma": dist / sigma, "lam": lam})


# ---------------------------------------------------------------------------
# self-bounding concentration and the phi function

def check_self_bounding(space: FiniteDataSpace, n: int, algorithm: StableAlgorithm,
                        lam_fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.9),
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[MomentCheckReport]:
    """Exact check of the self-bounding MGF bound for f = ||A(x) - E A||^2.

    The squared distance of a mean-embedding output to its expectation
    satisfies D^2 f <= 4 n c_A^2 f; an internal guard re-verifies this on the
    enumerated instance before asserting the MGF inequality on a lambda grid
    in (0, 2/a).
    """
    idx, wts = enumerate_indices(space, n, budget)
    outs = np.array([algorithm(row) for row in idx])
    mean_out = wts @ outs
    f_vals = np.einsum("ij,ij->i", outs - mean_out, outs - mean_out)
    c_A = hypothesis_sensitivity(algorithm, space, n, budget=budget)
    a = 4.0 * n * c_A**2
    # guard: D^2 f <= a f on every enumerated sample, with the infimum over the
    # substitutions of each coordinate by every point of X
    for rows in row_blocks(len(idx), n * space.size):
        sub = substitutions(idx[rows], space.size)
        dev = np.array([algorithm(row) for row in sub.reshape(-1, n)]) - mean_out
        f_sub = np.einsum("ij,ij->i", dev, dev).reshape(sub.shape[:3])
        fv = f_vals[rows]
        d2 = ((fv[:, None] - f_sub.min(axis=-1)) ** 2).sum(axis=-1)
        worst = int(np.argmax(d2 - a * fv))
        if d2[worst] > a * fv[worst] + 1e-9:
            raise AssertionError(
                f"constructed f violates the self-bounding hypothesis: D^2 f = {d2[worst]} "
                f"> a f = {a * fv[worst]}")
    mean_f = float(wts @ f_vals)
    reports = []
    if a == 0.0:
        return [MomentCheckReport(name="self_bounding_degenerate", lhs=0.0, rhs=0.0,
                                  regime="exact_enumeration")]
    for frac in lam_fractions:
        lam = frac * 2.0 / a
        lhs = float(logsumexp(lam * (f_vals - mean_f), b=wts))
        rhs = lam**2 * a * mean_f / (2.0 - a * lam)
        reports.append(MomentCheckReport(name=f"self_bounding_frac{frac}", lhs=lhs, rhs=rhs,
                                         regime="exact_enumeration",
                                         details={"lam": lam, "a": a, "mean_f": mean_f}))
    return reports


def phi(t: float) -> float:
    """(e^t - t - 1) / t^2, extended by its limit 1/2 at t = 0."""
    if abs(t) < 1e-7:
        return 0.5 + t / 6.0
    return (math.exp(t) - t - 1.0) / t**2


def check_phi_lemma(grid: Sequence[float] | None = None) -> dict:
    """phi is nondecreasing on (-10, 2) and phi(t) <= 1/(2 - t) on [0, 2)."""
    if grid is None:
        grid = np.linspace(-10.0 + 1e-9, 2.0 - 1e-9, 10_000)
    grid = np.asarray(sorted(grid), dtype=float)
    vals = np.array([phi(t) for t in grid])
    monotone_ok = bool(np.all(np.diff(vals) >= -1e-12))
    mask = grid >= 0.0
    dominated_ok = bool(np.all(vals[mask] <= 1.0 / (2.0 - grid[mask]) + 1e-12))
    return {"monotone_ok": monotone_ok, "dominated_ok": dominated_ok,
            "num_points": len(grid)}


# ---------------------------------------------------------------------------
# Monte Carlo violation rates
#
# Trial t is one joint draw X ~ mu^n, h ~ Q_X from substream(master_seed, t).
# `certify` reports the certificates of trial 0; `verify` scores the same
# certificates, built by the same registry, over trials 0..T-1.

@dataclass(frozen=True)
class MethodStats:
    method: str
    violations: int
    trials: int
    mean_bound: float
    mean_slack: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials

    @property
    def clopper_pearson_upper(self) -> float:
        if self.violations >= self.trials:
            return 1.0
        return float(beta_dist.ppf(CP_LEVEL, self.violations + 1,
                                   self.trials - self.violations))


@dataclass(frozen=True)
class TrialReport:
    trials: int
    seed: int
    mean_gap: float
    per_method: dict  # method tag -> MethodStats


class Draw(NamedTuple):
    """One trial's draw: the sample indices, the hypothesis h, h's empirical
    and true loss, its loss variance under mu, and h's half loss range
    (Gibbs) or the posterior mean A(X) (Gaussian kernel)."""

    idx: np.ndarray
    h: object
    L_hat: float
    L: float
    v: float
    rho: float | None = None
    center: np.ndarray | None = None


class GibbsRun:
    """Per-run constants of a Gibbs scenario, and its draw: n uniforms for X,
    then one uniform for h ~ Q_X by exact categorical draw."""

    variant = "gibbs"

    def __init__(self, space: FiniteDataSpace, loss: FiniteTable, prior: PriorWeights,
                 beta: float, n: int, delta: float):
        self.space, self.n, self.delta, self.beta = space, n, delta, beta
        self.b, self.table = loss.bound_b, loss.values
        self.c = beta * self.b / n
        self.true_L = self.table @ space.probs
        self.variances = (self.table - self.true_L[:, None]) ** 2 @ space.probs
        self.rho = (self.table.max(axis=1) - self.table.min(axis=1)) / 2.0
        self.rho_sup = float(self.rho.max())
        self.sigma_h = self.rho_sup * beta / n  # subgaussian scale of the Hamiltonian steps
        w = prior.weights
        self.log_prior = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)

    def draw(self, rng: np.random.Generator) -> Draw:
        idx = draw_sample(self.space, self.n, rng)
        # not hamiltonian.posterior: this gather is column-major, its mean
        # sums in another order than the engine's contiguous rows and
        # differs in the last bit, and the verify CSV bytes rest on it
        L_hat = self.table[:, idx].mean(axis=1)
        logw = -self.beta * L_hat + self.log_prior
        logw -= logsumexp(logw)
        w = np.exp(logw)
        w /= w.sum()
        h = int(np.searchsorted(np.cumsum(w), rng.random(), side="right")
                .clip(0, len(w) - 1))
        return Draw(idx, h, float(L_hat[h]), float(self.true_L[h]),
                    float(self.variances[h]), rho=float(self.rho[h]))


class GaussianRun:
    """Per-run constants of a Gaussian-kernel scenario, and its draw: n
    uniforms for X, then d normals for h = A(X) + sigma z."""

    variant = "gaussian_kernel"

    def __init__(self, space: FiniteDataSpace, loss: ParametricLoss,
                 algorithm: StableAlgorithm, sigma: float, n: int, delta: float,
                 posterior_draws: int):
        self.space, self.n, self.delta, self.sigma = space, n, delta, sigma
        self.loss, self.algorithm, self.posterior_draws = loss, algorithm, posterior_draws
        self.c_A = algorithm.declared_c_A
        self.V = float(algorithm.variance_fn(space, n))

    def draw(self, rng: np.random.Generator) -> Draw:
        idx = draw_sample(self.space, self.n, rng)
        center = self.algorithm(idx)
        h = center + self.sigma * rng.standard_normal(self.algorithm.dim_d)
        pl = np.array([self.loss.value(h, i) for i in range(self.space.size)])
        L = float(pl @ self.space.probs)
        return Draw(idx, h, float(pl[idx].mean()), L,
                    float(self.space.probs @ (pl - L) ** 2), center=center)

    def posterior_kl(self, draw: Draw, rng: np.random.Generator) -> float:
        """The posterior average of kl(L_hat, L) over posterior_draws further
        draws from Q_X."""
        hs = draw.center + self.sigma * rng.standard_normal(
            (self.posterior_draws, len(draw.center)))
        pl = self.loss.batch_evaluator(hs)  # (draws, num_points)
        L_hat = pl[:, draw.idx].mean(axis=1)
        return float(np.mean(kl_bernoulli_vec(np.clip(L_hat, 0.0, 1.0),
                                              pl @ self.space.probs)))


GAP = "gap"
POSTERIOR_KL = "posterior_kl"


class ScenarioMethod(NamedTuple):
    """A method a scenario may name: its variant, the target its certificate
    bounds (GAP, the draw's gap, or POSTERIOR_KL, the posterior-expected kl)
    and the builder of its certificate from a run and one draw."""

    variant: str
    target: str
    build: Callable[[GibbsRun | GaussianRun, Draw], bd.Certificate]


# The builders look the bound functions up on `bd` when called, so a caller
# that replaces a `bd` attribute (a tracer, a test double) sees every call.
SCENARIO_METHODS = {
    "bounded_differences": ScenarioMethod("gibbs", GAP, lambda r, d:
        bd.bound_bounded_differences(r.b, r.c, r.n, r.delta)),
    "bernstein": ScenarioMethod("gibbs", GAP, lambda r, d:
        bd.bound_bernstein(d.v, r.b, r.c, r.n, r.delta)),
    "empirical_bernstein": ScenarioMethod("gibbs", GAP, lambda r, d:
        bd.bound_empirical_bernstein(d.L_hat, r.b, r.c, r.n, r.delta)),
    "subgaussian_sup": ScenarioMethod("gibbs", GAP, lambda r, d:
        bd.bound_subgaussian(r.rho_sup, d.rho, r.sigma_h, r.n, r.delta)[0]),
    "subgaussian_h": ScenarioMethod("gibbs", GAP, lambda r, d:
        bd.bound_subgaussian(r.rho_sup, d.rho, r.sigma_h, r.n, r.delta)[1]),
    "gaussian_gap": ScenarioMethod("gaussian_kernel", GAP, lambda r, d:
        bd.bound_gaussian_randomization(r.V, r.sigma, r.n, r.delta, "gap_joint", r.c_A)),
    "gaussian_gap_bernstein": ScenarioMethod("gaussian_kernel", GAP, lambda r, d:
        bd.bound_gaussian_randomization(r.V, r.sigma, r.n, r.delta, "gap_bernstein",
                                        r.c_A, v_h=d.v)),
    "gaussian_kl_expectation": ScenarioMethod("gaussian_kernel", POSTERIOR_KL, lambda r, d:
        bd.bound_gaussian_randomization(r.V, r.sigma, r.n, r.delta, "kl_expectation",
                                        r.c_A)),
}


def _trials(run: GibbsRun | GaussianRun, methods: Sequence[str], trials: int,
            master_seed: int):
    """Per trial t: the draw from substream(master_seed, t), that substream
    (the posterior-kl estimator draws from it next), and each method's
    registry entry with its certificate. KeyError for another variant's method."""
    chosen = [SCENARIO_METHODS[m] for m in methods]
    for m, method in zip(methods, chosen):
        if method.variant != run.variant:
            raise KeyError(f"method {m!r} is not a {run.variant} certificate")
    for t in range(trials):
        rng = substream(master_seed, t)
        draw = run.draw(rng)
        yield draw, rng, [(method, method.build(run, draw)) for method in chosen]


def certificates(run: GibbsRun | GaussianRun, methods: Sequence[str],
                 master_seed: int) -> list[bd.Certificate]:
    """The certificates for the draw of trial 0, the ones `certify` reports."""
    _, _, built = next(_trials(run, methods, 1, master_seed))
    return [cert for _, cert in built]


def _violation_rates(run: GibbsRun | GaussianRun, methods: Sequence[str], trials: int,
                     master_seed: int) -> TrialReport:
    """A violation is a strict exceedance of a certificate by its target."""
    counts = {m: 0 for m in methods}
    bound_sums = {m: 0.0 for m in methods}
    slack_sums = {m: 0.0 for m in methods}
    gap_sum = 0.0
    for draw, rng, built in _trials(run, methods, trials, master_seed):
        gap = draw.L - draw.L_hat
        gap_sum += gap
        for m, (method, cert) in zip(methods, built):
            target = gap if method.target == GAP else run.posterior_kl(draw, rng)
            bound_sums[m] += cert.value
            slack_sums[m] += cert.value - target
            if target > cert.value:
                counts[m] += 1
    per_method = {m: MethodStats(m, counts[m], trials, bound_sums[m] / trials,
                                 slack_sums[m] / trials) for m in methods}
    return TrialReport(trials=trials, seed=master_seed, mean_gap=gap_sum / trials,
                       per_method=per_method)


def violation_rate_gibbs(space: FiniteDataSpace, loss: FiniteTable, prior: PriorWeights,
                         beta: float, n: int, delta: float, methods: Sequence[str],
                         trials: int, master_seed: int) -> TrialReport:
    """Joint-draw violation rates for the Gibbs certificates: per trial,
    X ~ mu^n, h ~ Q_X, and each certificate against the gap of h."""
    return _violation_rates(GibbsRun(space, loss, prior, beta, n, delta), methods,
                            trials, master_seed)


def violation_rate_gaussian(space: FiniteDataSpace, loss: ParametricLoss,
                            algorithm: StableAlgorithm, sigma: float, n: int,
                            delta: float, methods: Sequence[str], trials: int,
                            master_seed: int, posterior_draws: int = 10_000) -> TrialReport:
    """Violation rates for the Gaussian-kernel certificates: the gap methods
    against the gap of the single (X, h) draw, kl_expectation against the
    posterior average of kl(L_hat, L) over posterior_draws draws."""
    run = GaussianRun(space, loss, algorithm, sigma, n, delta, posterior_draws)
    return _violation_rates(run, methods, trials, master_seed)


def kl_bernoulli_vec(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized Bernoulli relative entropy with the 0 ln 0 = 0 convention."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(s.shape, t.shape))
    s, t = np.broadcast_arrays(s, t)
    interior = (t > 0) & (t < 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0) / np.where(interior, t, 1.0)), 0.0)
        b_ = np.where(s < 1, (1 - s) * np.log(np.where(s < 1, 1 - s, 1.0) / np.where(interior, 1 - t, 1.0)), 0.0)
    out = np.where(interior, np.maximum(a + b_, 0.0), np.where(s == t, 0.0, np.inf))
    return out


# ---------------------------------------------------------------------------
# tightness comparison against the quoted baselines

@dataclass(frozen=True)
class TightnessRow:
    n: int
    beta: float
    delta: float
    eq_simple: float
    baseline_gibbs: float
    ratio: float
    improvement_holds: bool
    kl_chain: dict = field(default_factory=dict)


def tightness_report(ns: Sequence[int], betas_of_n, deltas: Sequence[float],
                     L_hats: Sequence[float] = (0.0, 0.1, 0.3)) -> list[TightnessRow]:
    """Grid comparison of the simple Gibbs bound and its empirical-error form
    against the quoted baselines.

    betas_of_n maps n to the beta grid (so beta can scale with n). For each
    grid point the empirical-error chain is also compared against the
    inverted kl baseline chain at each L_hat.
    """
    rows = []
    for n in ns:
        for beta in betas_of_n(n):
            for delta in deltas:
                eq2 = bd.bound_bounded_differences(1.0, beta / n, n, delta).value
                base = bd.baselines(beta, n, delta)
                kl_chain = {}
                for lh in L_hats:
                    eq3 = bd.bound_empirical_bernstein(lh, 1.0, beta / n, n, delta).value
                    B = base.rivasplata_kl_gibbs
                    inverted = bd.gap_from_kl(lh, B)
                    kl_chain[lh] = {"empirical_bernstein": eq3,
                                    "inverted_kl_baseline": inverted,
                                    "improvement_holds": eq3 <= inverted}
                rows.append(TightnessRow(
                    n=n, beta=beta, delta=delta, eq_simple=eq2,
                    baseline_gibbs=base.rivasplata_gibbs,
                    ratio=eq2 / base.rivasplata_gibbs,
                    improvement_holds=eq2 < base.rivasplata_gibbs,
                    kl_chain=kl_chain))
    return rows
