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
from collections import namedtuple
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import bounds as bd
from .hamiltonian import (
    HamiltonianSpec,
    StableAlgorithm,
    gibbs_posterior,
    gibbs_table,
    log_prior,
    logsumexp,
    output_sensitivity,
)
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    CosineLoss,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    enumerate_indices,
    fibres,
    generalization_gap,
    loss_variance,
    math_map,
    max_fibre_range,
    product_rows,
    row_table,
)

EXACT_MARGIN_TOL = -1e-9
# A quadrature report passes within this relative error. 60 Gauss-Hermite nodes
# meet the Gaussian shift identity to 3.9e-15 on the 48 cases of acceptance
# criterion 8, and to 9.5e-15 there with sigma from 0.1 to 2 and |w| up to 4,
# about 100 times below it; lam^2 + lam for lam^2 - lam, the nearest wrong
# closed form, is off by 28% at lam = 1 and |v - w| / sigma = 0.5.
QUADRATURE_RTOL = 1e-12
CP_LEVEL = 0.999
CDF_COUNT_POINTS = 64  # inverse_cdf counts in uint8 up to here; searchsorted wins past ~96


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for (master seed, trial index).

    Philox keyed on the pair makes serial and parallel runs bit-identical.
    The key words go in as uint64, not through float64, so every seed in
    [0, 2^64 - 1] is a stream of its own; a seed past the 64 bits of its key
    word raises rather than alias another.
    """
    return np.random.Generator(np.random.Philox(
        key=np.array([master_seed, index], dtype=np.uint64)))


def trial_streams(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """substream(master_seed, t) for t = start..stop-1, in order: one
    generator re-keyed through the state of its Philox, so no Philox (and no
    OS-entropy seed sequence that its key overrides) is built per trial.
    The state is a fresh Philox's in plain ints, which its setter reads
    faster than arrays. Each stream is valid until the next is yielded."""
    rng = substream(master_seed, start)  # a seed past 64 bits raises here
    key = [master_seed, start]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for t in range(start, stop):
        key[1] = t
        rng.bit_generator.state = fresh
        yield rng


def inverse_cdf(space: FiniteDataSpace, u: np.ndarray) -> np.ndarray:
    """The point indices of uniforms u, of any shape, by inverse CDF: the
    searchsorted(side="right") of u in cumsum(probs), clipped to the last
    point, or the same count of thresholds cumsum(probs)[:-1] <= u."""
    cdf = np.cumsum(space.probs)
    if space.size > CDF_COUNT_POINTS:
        return np.searchsorted(cdf, u, side="right").clip(0, space.size - 1)
    count = np.zeros(u.shape, dtype=np.uint8)
    for threshold in cdf[:-1]:
        count += u >= threshold
    return count.astype(np.intp)


class MomentCheckReport(namedtuple("MomentCheckReport", "name lhs rhs regime details")):
    """regime is exact_enumeration or quadrature; details is a fresh dict
    unless given."""

    __slots__ = ()

    def __new__(cls, name: str, lhs: float, rhs: float, regime: str, details: dict | None = None):
        return super().__new__(cls, name, lhs, rhs, regime, {} if details is None else details)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.regime == "quadrature":  # a finite rhs, so a finite lhs to pass
            return (math.isfinite(self.rhs)
                    and abs(self.lhs - self.rhs) <= QUADRATURE_RTOL * abs(self.rhs))
        return self.margin >= EXACT_MARGIN_TOL


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
    posterior Q_x per row (S, m) and ln Z per row (S,)."""
    grid, keep, w = enumerate_indices(space, n, budget, loss.num_hypotheses)
    idx = grid[keep]
    return (idx, w) + gibbs_table(spec, idx, loss, prior)


def _log_mixed_mgf(w: np.ndarray, q: np.ndarray, F: np.ndarray) -> float:
    """ln sum_x w(x) sum_h Q_x(h) e^{F(h, x)} for Q over (S, m) and F over
    (m, S), with the terms in sample-major order and those of Q_x(h) = 0
    left out."""
    m = q.shape[1]
    q = q.ravel()
    keep = q > 0
    terms = np.repeat(math_map(math.log, w), m)[keep] + math_map(math.log, q[keep])
    return float(logsumexp(terms + F.T.ravel()[keep]))


def exact_mixed_mgf(spec: HamiltonianSpec, space: FiniteDataSpace, loss: FiniteTable,
                    prior: PriorWeights, n: int, lam: float,
                    budget: int = DEFAULT_ENUMERATION_BUDGET) -> float:
    """The mixed log-MGF of the generalization gap at parameter lam."""
    idx, w, _, q, _ = _enumerate_posteriors(spec, space, loss, prior, n, budget)
    gap = row_table(lambda h, rows: lam * generalization_gap(h, rows, space, loss),
                    loss.num_hypotheses, idx)
    return _log_mixed_mgf(w, q, gap)


def _psi_values(F: np.ndarray, H: np.ndarray, log_z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """psi_F(h) = ln E[e^{F + H_Q - E H_Q}] for every hypothesis, exactly."""
    hq = H - log_z
    mean_hq = np.array([w @ row for row in hq])
    return logsumexp(F + hq - mean_hq[:, None], b=w)


def bernstein_f_factory(space: FiniteDataSpace, loss: FiniteTable, n: int, c: float,
                        delta: float) -> Callable[[int, np.ndarray], np.ndarray]:
    """The hypothesis-dependent compensated gap used by the Bernstein bound,
    as a function of a hypothesis and a block of sample rows.

    lam(h) = sqrt(n c^2 + ln(1/delta)) /
             ((b/n) sqrt(n c^2 + ln(1/delta)) + sqrt(v(h)/n))
    F(h, x) = lam(h) gap(h, x) - lam(h)^2 / (1 - b lam(h)/n) * v(h)/n

    Raises DomainError where n c^2 + ln(1/delta) is not finite.
    """
    b = loss.bound_b
    t = n * bd._square(c) + math.log(1.0 / delta)
    if not math.isfinite(t):
        raise bd.DomainError(f"n c^2 + ln(1/delta) = {t} at c={c}, n={n} is not finite")
    root = math.sqrt(t)

    def F(h: int, rows: np.ndarray) -> np.ndarray:
        v = loss_variance(h, space, loss)
        lam = root / ((b / n) * root + math.sqrt(v / n))
        comp = lam**2 / (1.0 - b * lam / n) * v / n
        return lam * generalization_gap(h, rows, space, loss) - comp

    return F


def check_proposition_main(spec: HamiltonianSpec, space: FiniteDataSpace, loss: FiniteTable,
                           prior: PriorWeights, n: int,
                           F: Callable[[int, np.ndarray], np.ndarray | float],
                           name: str = "main_proposition",
                           budget: int = DEFAULT_ENUMERATION_BUDGET) -> MomentCheckReport:
    """Enumerated mixed log-MGF of F against the enumerated sup_h psi_F(h).

    F(h, rows) maps a hypothesis and an (r, n) block of sample rows to r
    values, or to one value for all of them."""
    idx, w, H, q, log_z = _enumerate_posteriors(spec, space, loss, prior, n, budget)
    F_values = row_table(F, loss.num_hypotheses, idx)
    lhs = _log_mixed_mgf(w, q, F_values)
    psi = _psi_values(F_values, H, log_z, w)
    return MomentCheckReport(name=name, lhs=lhs, rhs=float(psi.max()),
                             regime="exact_enumeration",
                             details={"psi_per_hypothesis": psi.tolist()})


def check_bernstein_unit_mgf(space: FiniteDataSpace, loss: FiniteTable, n: int, c: float,
                             delta: float,
                             budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[MomentCheckReport]:
    """E[e^{2 F_lam(h, X)}] <= 1 for every hypothesis, by enumeration."""
    grid, keep, w = enumerate_indices(space, n, budget, loss.num_hypotheses)
    F = row_table(bernstein_f_factory(space, loss, n, c, delta), loss.num_hypotheses, grid[keep])
    lhs = logsumexp(2.0 * F, b=w)  # log E e^{2F}
    return [MomentCheckReport(name=f"bernstein_unit_mgf_h{h}", lhs=float(v), rhs=0.0,
                              regime="exact_enumeration") for h, v in enumerate(lhs)]


# ---------------------------------------------------------------------------
# martingale MGF bounds for random functions on X^n
#
# A random function f: X^n -> R is a flat table over the rows of
# product_rows, so every one-coordinate quantity below is a reduction along
# the last axis of model.fibres.

def _exact_centered_mgf(vals: np.ndarray, w: np.ndarray) -> float:
    """ln E e^{f - E f} from f's values on the kept rows and their weights."""
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
    _, keep, w = enumerate_indices(space, n, budget)
    for t, rng in enumerate(trial_streams(seed, 0, num_trials)):
        table = rng.uniform(-1.0, 1.0, size=space.size**n)
        # a target scale is drawn after the table, even when its raw scale is 0
        if case == "i":
            # exact per-coordinate log-MGF constant r^2
            r2 = _subgaussian_step_constant(space, n, table)
            rhs, details = n * r2, {"r2": r2}
        elif case == "ii":
            raw_c = max_fibre_range(space, n, table)
            target_c = float(rng.uniform(0.1, 1.0))
            if raw_c > 0:
                table = table * (target_c / raw_c)
            c = target_c if raw_c > 0 else 0.0
            rhs, details = n * c**2 / 8.0, {"c": c}
        else:
            raw_b = _max_one_sided_excess(space, n, table)
            target_b = float(rng.uniform(0.2, 1.5))
            if raw_b > 0:
                table = table * (target_b / raw_b)
            b = target_b if raw_b > 0 else 1.0
            vks = _coordinate_variances(space, n, table)
            rhs, details = sum(vks) / (2.0 - b), {"b": b, "v_k": vks}
        reports.append(MomentCheckReport(name=f"martingale_{case}_{t}",
                                         lhs=_exact_centered_mgf(table[keep], w), rhs=rhs,
                                         regime="exact_enumeration", details=details))
    return reports


def _deviations(space, n, table):
    """Per coordinate k, f along k minus its mean over y ~ mu."""
    return (g - (g @ space.probs)[..., None] for g in fibres(space, n, table))


def _max_one_sided_excess(space, n, table) -> float:
    """max over base samples x and coordinates k of f(x) - E_y f(x_k <- y)."""
    return max(float(dev[..., space.probs > 0].max()) for dev in _deviations(space, n, table))


def _coordinate_variances(space, n, table) -> list[float]:
    return [max(0.0, float((dev**2 @ space.probs).max()))
            for dev in _deviations(space, n, table)]


def _subgaussian_step_constant(space, n, table) -> float:
    return max(0.0, *(float(logsumexp(dev, b=space.probs).max())
                      for dev in _deviations(space, n, table)))


# ---------------------------------------------------------------------------
# log-partition bounded differences

def check_logZ_bounded_differences(spec: HamiltonianSpec, space: FiniteDataSpace,
                                   loss: FiniteTable, prior: PriorWeights, n: int,
                                   budget: int = DEFAULT_ENUMERATION_BUDGET
                                   ) -> list[MomentCheckReport]:
    """|D ln Z| <= c and |D H_Q| <= 2c for the brute-force c of H."""
    H, _, log_z = gibbs_table(spec, product_rows(space, n, budget, loss.num_hypotheses),
                              loss, prior)
    c = max_fibre_range(space, n, H)  # bounded_difference_coefficient's c, from this H
    max_dlnz = max_fibre_range(space, n, log_z)
    max_dhq = max_fibre_range(space, n, H - log_z)
    return [
        MomentCheckReport(name="logZ_bounded_differences", lhs=max_dlnz, rhs=c,
                          regime="exact_enumeration"),
        MomentCheckReport(name="canonical_bounded_differences", lhs=max_dhq, rhs=2.0 * c,
                          regime="exact_enumeration"),
    ]


# ---------------------------------------------------------------------------
# Gaussian moment identity (Gauss-Hermite quadrature)

def gaussian_shift_moment(dist_over_sigma: float, lam: float) -> float:
    """E_{x~N(w, s^2 I)} exp(-lam(|x - v|^2 - |x - w|^2)/2s^2) at r = |v - w|/s, the
    order-lam Renyi moment of N(v, s^2 I) against N(w, s^2 I), in closed form;
    inf past the float range."""
    try:
        return math.exp((lam * lam - lam) * dist_over_sigma**2 / 2.0)
    except OverflowError:
        return math.inf


def tensor_rule(nodes: np.ndarray, weights: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d-fold tensor product of a one-dimensional rule: its (K^d, d)
    nodes, the last axis fastest, and the product of each node's weights."""
    z = np.array(np.meshgrid(*[nodes] * d, indexing="ij")).reshape(d, -1).T
    mass = np.array(np.meshgrid(*[weights] * d, indexing="ij")).reshape(d, -1).prod(axis=0)
    return z, mass


def check_gaussian_identity(w, v, sigma: float, lam: float) -> MomentCheckReport:
    """The Gaussian shift identity by 60-node Gauss-Hermite quadrature of its
    d-dimensional integrand, against gaussian_shift_moment. The rule meets it
    while lam |v - w| / sigma <= 8.5; past that, mass lies beyond the nodes."""
    from numpy.polynomial.hermite_e import hermegauss  # only this check needs it

    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    if not (math.isfinite(lam) and lam >= 1):
        raise ValueError(f"lam must be finite and at least 1, got {lam!r}")
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.isfinite(w).all():
        raise ValueError(f"w must be a nonempty finite vector, got shape {w.shape}")
    if v.shape != w.shape or not np.isfinite(v).all():
        raise ValueError(f"v must be a finite vector of w's shape {w.shape}, got {v.shape}")
    # the integrand in units of sigma, so sigma^2 is never formed
    with np.errstate(over="ignore"):
        r = (v - w) / sigma
        if not math.isfinite(float(r @ r)):
            raise ValueError("v - w must have a finite squared norm in units of sigma")
    dist = float(np.linalg.norm(r))
    # With x = w + sigma u, (|x - v|^2 - |x - w|^2) / sigma^2 = |u - r|^2 - |u|^2
    # = |r|^2 - 2<u, r>: rotated onto r, the integrand is a normal MGF in one
    # coordinate, which gives the closed form, and the others cancel exactly.
    # So the tensor rule runs on the axes at d <= 2, and the rule along r (any
    # axis if r = 0) beyond.
    if len(w) <= 2:
        axes = np.eye(len(w))
    else:
        axes = (r / dist if dist > 0 else np.eye(len(w))[0])[None, :]
    k = len(axes)
    z, mass = tensor_rule(*hermegauss(60), k)
    u = z @ axes
    # an integrand past the float range fails as inf or NaN, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        expo = (-lam / 2.0) * (((u - r) ** 2).sum(axis=1) - (u**2).sum(axis=1))
        lhs = float(mass @ np.exp(expo)) / math.sqrt(2.0 * math.pi) ** k
    closed = gaussian_shift_moment(dist, lam)
    return MomentCheckReport(name="gaussian_identity", lhs=lhs, rhs=closed, regime="quadrature",
                             details={"relative_error": abs(lhs - closed) / closed,
                                      "dist_over_sigma": dist, "lam": lam})


# ---------------------------------------------------------------------------
# self-bounding concentration and the phi function

def check_self_bounding(space: FiniteDataSpace, n: int, algorithm: StableAlgorithm,
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[MomentCheckReport]:
    """Exact check of the self-bounding MGF bound for f = ||A(x) - E A||^2.

    The squared distance of a mean-embedding output to its expectation
    satisfies D^2 f <= 4 n c_A^2 f; an internal guard re-verifies this on the
    enumerated instance before asserting the MGF inequality at lambda = 0.05,
    0.1, 0.25, 0.5 and 0.9 times 2/a.
    """
    grid, keep, wts = enumerate_indices(space, n, budget)
    outs = algorithm(grid)
    mean_out = wts @ outs[keep]
    f_all = np.einsum("ij,ij->i", outs - mean_out, outs - mean_out)
    f_vals = f_all[keep]
    c_A = output_sensitivity(algorithm, space, n, outs)
    a = 4.0 * n * c_A**2
    # guard: D^2 f <= a f on every enumerated sample, with the infimum of f
    # over each coordinate set to every point of X; each term is laid out over
    # the support grid, whose C order is that of f_vals
    terms = [np.moveaxis((g[..., space.probs > 0] - g.min(-1, keepdims=True)) ** 2, -1, k)
             for k, g in enumerate(fibres(space, n, f_all))]
    d2 = np.stack(terms, axis=-1).sum(axis=-1).ravel()
    worst = int(np.argmax(d2 - a * f_vals))
    if d2[worst] > a * f_vals[worst] + 1e-9:
        raise AssertionError(
            f"constructed f violates the self-bounding hypothesis: D^2 f = {d2[worst]} "
            f"> a f = {a * f_vals[worst]}")
    mean_f = float(wts @ f_vals)
    reports = []
    if a == 0.0:
        return [MomentCheckReport(name="self_bounding_degenerate", lhs=0.0, rhs=0.0,
                                  regime="exact_enumeration")]
    for frac in (0.05, 0.1, 0.25, 0.5, 0.9):
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


def check_phi_lemma() -> dict:
    """phi is nondecreasing on (-10, 2) and phi(t) <= 1/(2 - t) on [0, 2)."""
    grid = np.linspace(-10.0 + 1e-9, 2.0 - 1e-9, 10_000)
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
# A run draws and scores its trials as arrays over trials, a chunk at a
# time, with every value equal bit for bit to that of a loop over the trials
# (tests/test_trials.py keeps that loop as the reference). `certify` reports
# the certificates of trial 0; `verify` scores the same certificates, built
# by the same registry, over trials 0..T-1.

# Array elements per trial chunk. A chunk holds CHUNK_ELEMENTS // run.width
# trials, run.width being the elements of one trial (n + 1 + m for Gibbs,
# n + |X| + d for the Gaussian kernel), so each (trials, n), (trials, m) or
# (trials, |X|) array of a chunk takes at most 8 MB, whatever n and m, and the
# cosine loss's (trials, 2|X|) angle table of a posterior-kl chunk 16 MB.
CHUNK_ELEMENTS = 1 << 20
# Floats of a block's posterior work at a time. A trial's posterior-expected
# kl is a weighted sum of kl over the points of its run's rule (kl_rule): the
# nodes of the tensor rule at d <= 3, posterior_draws fixed draws beyond.
# Block rule: a block takes max(1, KL_SLAB // (|X| points)) trials. Step
# rule: it scores its points max(1, KL_SLAB // |X|) at a time, so a block of
# several trials, at most KL_SLAB // |X| points in all, takes one step. A
# step's (trials, step) sums and the cosine loss's (step, 2|X|) node tables
# hold at most 2 KL_SLAB floats (1 MiB) unless one point alone needs more.
# A block reads its trials' rows of the chunk's angle table, built once per
# chunk. A run holds its rule, points x (d + 1) floats and shared by every
# run of the process at d <= 3, the node tables of all its steps where they
# take at most 4 KL_SLAB floats (the 10,000 draws of d >= 4 up to |X| = 13),
# and its block's kl values, block x points floats (65 KB for the 35 trials
# of 232 nodes at |X| = 8, d = 2), plus O(KL_SLAB) floats for a step; n does
# not enter it.
KL_SLAB = 1 << 16
# The posterior-expected kl's tensor rule at d <= 3, per axis: the 20
# probabilists' Gauss-Hermite nodes and weights of numpy's hermegauss(20),
# written out so that a trial run loads neither numpy.polynomial nor LAPACK's
# eigensolver, about 0.8 MB of resident memory. Against a 100-node rule, on the
# trials of configs/gaussian_mean_embedding.txt, of acceptance criterion 6 and
# of 8 gaussian_trials benchmark rounds, 20 nodes are off by at most 1.6e-5
# (5.2% relative), and 10,000 Monte Carlo draws by more on every one of those
# instances, up to 5.9e-5 (7.3%).
KL_NODES = np.array([
    -7.619048541679758, -6.510590157013654, -5.5787388058932015, -4.734581334046055,
    -3.9439673506573163, -3.1890148165533896, -2.458663611172368,
    -1.7452473208141268, -1.042945348802751, -0.3469641570813559,
    0.3469641570813559, 1.042945348802751, 1.7452473208141268, 2.458663611172368,
    3.1890148165533896, 3.9439673506573163, 4.734581334046055, 5.5787388058932015,
    6.510590157013654, 7.619048541679758])
KL_WEIGHTS = np.array([
    3.1528387293827914e-13, 6.221607696776643e-10, 1.5359340338199267e-07,
    1.103448119312213e-05, 0.00032291959586810135, 0.004587388253857086,
    0.035087375128591974, 0.15417361128553891, 0.4054203876842811,
    0.6537112666702904, 0.6537112666702904, 0.4054203876842811, 0.15417361128553891,
    0.035087375128591974, 0.004587388253857086, 0.00032291959586810135,
    1.103448119312213e-05, 1.5359340338199267e-07, 6.221607696776643e-10,
    3.1528387293827914e-13])
# The tensor rule keeps the nodes whose product weight is at least this share
# of the total: 18 of 20 at d = 1, 232 of 400 at d = 2 and 2,632 of 8,000 at
# d = 3, dropping 2.5e-13, 1.1e-9 and 1.5e-8 of the mass. On the trials of
# configs/gaussian_mean_embedding.txt and of criterion 6 that moves kl by at
# most 2.1e-11, against the rule's own error of up to 1.6e-5.
KL_NODE_FLOOR = 1e-10


@cache
def _clopper_pearson_upper(violations: int, trials: int, level: float) -> float:
    """The level quantile of Beta(violations + 1, trials - violations), once
    per argument triple; that of Beta(1, T) is 1 - (1 - level)^{1/T}, equal bit
    for bit to scipy's inversion, which only a run with a violation imports."""
    if violations >= trials or level == 1.0:  # log1p(-1) raises
        return 1.0
    if violations == 0:
        return -math.expm1(math.log1p(-level) / trials)
    from scipy.special import betaincinv
    return float(betaincinv(violations + 1, trials - violations, level))


class MethodStats(NamedTuple):
    method: str
    violations: int
    trials: int
    mean_bound: float
    mean_slack: float

    @property
    def clopper_pearson_upper(self) -> float:
        return _clopper_pearson_upper(self.violations, self.trials, CP_LEVEL)

    def passed(self, delta: float) -> bool:
        """The Monte Carlo gate: the CP_LEVEL Clopper-Pearson upper bound on
        the violation probability is at most delta."""
        return self.clopper_pearson_upper <= delta

    def summary(self, delta: float) -> str:
        verdict = "<=" if self.passed(delta) else "EXCEEDS"
        return (f"{self.method}: {self.violations}/{self.trials} violations, "
                f"mean slack {self.mean_slack:.4g}, "
                f"cp{100 * CP_LEVEL:g}={self.clopper_pearson_upper:.4f} {verdict} "
                f"delta={delta}")


class TrialReport(NamedTuple):
    trials: int
    mean_gap: float
    per_method: dict  # method tag -> MethodStats


class Draw(NamedTuple):
    """The draws of a run of trials, one entry per trial along the first axis
    of each field: the sample indices, the hypothesis h, h's empirical and
    true loss, its loss variance under mu, h's half loss range (Gibbs) or
    the posterior mean A(X) (Gaussian kernel), and the posterior-expected kl
    estimate (Gaussian kernel, when a method bounds it)."""

    idx: np.ndarray
    h: object
    L_hat: np.ndarray
    L: np.ndarray
    v: np.ndarray
    rho: np.ndarray | None = None
    center: np.ndarray | None = None
    kl: np.ndarray | None = None


class GibbsRun:
    """Per-run constants of a Gibbs scenario, and its draw: per trial, n
    uniforms for X, then one uniform for h ~ Q_X by exact categorical draw."""

    variant = "gibbs"

    def __init__(self, space: FiniteDataSpace, loss: FiniteTable, prior: PriorWeights,
                 beta: float, n: int, delta: float):
        self.space, self.n, self.delta, self.beta = space, n, delta, beta
        self.b, self.table = loss.bound_b, loss.values
        self.point_losses = np.ascontiguousarray(self.table.T)  # (|X|, m)
        self.c = beta * self.b / n
        self.true_L = self.table @ space.probs
        self.variances = (self.table - self.true_L[:, None]) ** 2 @ space.probs
        self.rho = (self.table.max(axis=1) - self.table.min(axis=1)) / 2.0
        self.rho_sup = float(self.rho.max())
        self.sigma_h = self.rho_sup * beta / n  # subgaussian scale of the Hamiltonian steps
        self.log_prior = log_prior(prior)
        self.width = n + 1 + len(self.true_L)  # array elements per trial

    def empirical_losses(self, idx: np.ndarray) -> np.ndarray:
        """L_hat of every hypothesis on each sample row of idx, (T, m), equal
        bit for bit to the mean of the gather table[:, row], on which the
        verify CSV bytes rest. That gather is column-major, so numpy sums it
        left to right over the coordinates, not pairwise as on the engine's
        contiguous rows; with one hypothesis it is contiguous, and pairwise."""
        if self.table.shape[0] == 1:
            return self.table[0][idx].mean(axis=1)[:, None]
        total = np.zeros((len(idx), self.table.shape[0]))
        for k in range(self.n):
            total += self.point_losses[idx[:, k]]
        return total / self.n

    def draws(self, uniforms: np.ndarray) -> Draw:
        """The draws of the trials whose n + 1 uniforms are the rows of uniforms."""
        idx = inverse_cdf(self.space, uniforms[:, :-1])
        L_hat = self.empirical_losses(idx)
        w, _ = gibbs_posterior(-self.beta * L_hat + self.log_prior)
        # per row, the searchsorted(side="right") of u in the cumulative weights
        h = np.minimum((np.cumsum(w, axis=1) <= uniforms[:, -1:]).sum(axis=1),
                       len(self.true_L) - 1)
        return Draw(idx, h, L_hat[np.arange(len(h)), h], self.true_L[h],
                    self.variances[h], rho=self.rho[h])

    def trials(self, master_seed: int, start: int, stop: int,
               posterior_kl: bool = False) -> Draw:
        """The draws of trials start..stop-1. No Gibbs method bounds the
        posterior-expected kl, so posterior_kl is not read."""
        uniforms = np.empty((stop - start, self.n + 1))
        for row, rng in zip(uniforms, trial_streams(master_seed, start, stop)):
            rng.random(out=row)
        return self.draws(uniforms)


class GaussianRun:
    """Per-run constants of a Gaussian-kernel scenario, and its draw: per
    trial, n uniforms for X, then d normals for h = A(X) + sigma z. When a
    method bounds the posterior-expected kl, each trial takes the weighted
    sum of kl over the points c + sigma z_j around its posterior mean
    c = A(X), the z_j and weights being the run's rule, kl_rule(d,
    posterior_draws), which every trial shares, so a trial's stream yields
    nothing more. Every L_hat, of h and of each point, is the sum of the
    point's losses weighted by freq, the sample's point frequencies
    counts / n: L_hat depends on X only through its type. The points' sums
    come from the loss's weighted_sums, built once per step of the rule,
    applied to the rows of the centers' angle table, built once per chunk.
    The rule, the block size and the kept sums are built on first use, so
    a run whose methods bound no posterior kl builds none of them;
    at d <= 3 the rule is built once per process (_tensor_kl_rule)."""

    variant = "gaussian_kernel"

    def __init__(self, space: FiniteDataSpace, loss: CosineLoss,
                 algorithm: StableAlgorithm, sigma: float, n: int, delta: float,
                 posterior_draws: int):
        self.space, self.n, self.delta, self.sigma = space, n, delta, sigma
        self.loss, self.algorithm, self.posterior_draws = loss, algorithm, posterior_draws
        self.c_A = algorithm.declared_c_A
        self.V = float(algorithm.variance_fn(space, n))
        self.width = n + space.size + algorithm.dim_d  # array elements per trial
        self.kl_step = max(1, KL_SLAB // space.size)  # points per kl step, whatever the block

    @cached_property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:  # (nodes, weights)
        return kl_rule(self.algorithm.dim_d, self.posterior_draws)

    @cached_property
    def kl_block(self) -> int:  # trials per kl block
        return max(1, KL_SLAB // (self.space.size * len(self.rule[0])))

    @cached_property
    def kl_sums(self) -> list | None:
        """The steps' weighted sums, kept for the run where their node tables fit."""
        fit = 2 * self.space.size * len(self.rule[0]) <= 4 * KL_SLAB
        return list(self.step_sums()) if fit else None

    def step_sums(self):
        """The loss's weighted sums around the offsets sigma z of the rule's
        nodes z, a step of kl_step nodes at a time."""
        nodes, _ = self.rule
        for lo in range(0, len(nodes), self.kl_step):
            yield self.loss.weighted_sums(self.sigma * nodes[lo:lo + self.kl_step])

    def expected_kl(self, freq: np.ndarray, angles: np.ndarray) -> np.ndarray:
        """Per trial t, the rule's weighted sum of kl(L_hat, L) over the
        points c_t + sigma z, z the rule's nodes, around its posterior mean
        c_t, given by its row of the loss's angle table, angles, and scored
        kl_step points at a time.
        Each point's L and L_hat depend on that point and trial only, and its
        kl is elementwise, so no value depends on the step or the block. The
        kl values land in one (trials, points) array, reduced once per trial
        as on its own.

        L_hat is clipped to [0, 1] and L to [tiny, 1 - 2^-53], from the
        smallest normal float to the largest below 1. The sums round, and an L
        of 0 or 1 beside an L_hat a rounding off it would make kl infinite,
        where the exact kl is finite: L is 0 or 1 only where every point of
        mu's support has loss 0 or 1, and then so is L_hat."""
        (nodes, weights), step = self.rule, self.kl_step
        kl = np.empty((len(angles), len(nodes)))
        for lo, sums in zip(range(0, len(nodes), step), self.kl_sums or self.step_sums()):
            L, L_hat = sums(angles, self.space.probs, freq)
            np.clip(L, np.finfo(float).tiny, np.nextafter(1.0, 0.0), out=L)
            kl[:, lo:lo + step] = kl_bernoulli_vec(np.clip(L_hat, 0.0, 1.0, out=L_hat), L)
        # vecdot, not a matrix-vector product, whose rows round by their batch
        return np.vecdot(kl, weights)

    def trials(self, master_seed: int, start: int, stop: int, posterior_kl: bool) -> Draw:
        """The draws of trials start..stop-1. Each trial's stream fills its
        rows of the uniforms and the normals. With posterior_kl the angle
        table of the chunk's centers is built once, and a trial's kl is
        scored from its row with the other trials of its block of kl_block
        trials. Each value equals that of the trial on its own: the table's
        rows and np.vecdot's dots are each taken as on that row alone."""
        count, d, size = stop - start, self.algorithm.dim_d, self.space.size
        uniforms, normals = np.empty((count, self.n)), np.empty((count, d))
        for u, z, rng in zip(uniforms, normals, trial_streams(master_seed, start, stop)):
            rng.random(out=u)
            rng.standard_normal(out=z)
        idx = inverse_cdf(self.space, uniforms)
        # each row's point counts, from one bincount over row-offset indices
        rows = idx + size * np.arange(count)[:, None]
        freq = np.bincount(rows.ravel(), minlength=count * size).reshape(count, size) / self.n
        center = self.algorithm(idx)
        kl = None
        if posterior_kl:
            angles = self.loss.angles(center)
            kl = np.concatenate([self.expected_kl(freq[lo:lo + self.kl_block],
                                                  angles[lo:lo + self.kl_block])
                                 for lo in range(0, count, self.kl_block)])
        h = center + self.sigma * normals
        pl = self.loss.values(h)  # (trials, |X|)
        L = np.vecdot(pl, self.space.probs)
        v = np.vecdot((pl - L[:, None]) ** 2, self.space.probs)
        return Draw(idx, h, np.vecdot(pl, freq), L, v, center=center, kl=kl)


def kl_draws(d: int) -> bool:
    """Whether a run in dimension d takes its posterior-expected kl over
    posterior_draws normal draws, past d = 3, where the tensor rule outgrows
    the draws (23,936 nodes at d = 4); the one test of that cut."""
    return d > 3


@cache
def _tensor_kl_rule(d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Unless kl_draws(d), the nodes of the 20-node tensor rule whose product
    weight is at least KL_NODE_FLOOR of the total, and their weights
    normalized, read-only; else None. It depends on d and the module's
    constants only, so a process builds it once per d, for every run and for
    kl_estimator."""
    if kl_draws(d):
        return None
    nodes, mass = tensor_rule(KL_NODES, KL_WEIGHTS, d)
    keep = mass >= KL_NODE_FLOOR * mass.sum()
    rule = nodes[keep], mass[keep] / mass[keep].sum()
    for a in rule:
        a.setflags(write=False)
    return rule


def kl_rule(d: int, posterior_draws: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule behind a Gaussian-kernel run's posterior-expected kl in
    dimension d: its (points, d) standard-normal nodes and their weights,
    which sum to 1. The kept tensor rule at d <= 3; beyond, posterior_draws
    standard normals of weight 1/posterior_draws each. Those come from
    np.random.default_rng(0), a PCG64 generator that no trial uses (a trial
    draws from its Philox substream), so the rule is the same for every
    trial and run: given it the trials stay independent, and each estimate
    is unbiased over the draw of the rule."""
    return _tensor_kl_rule(d) or (np.random.default_rng(0).standard_normal((posterior_draws, d)),
                                  np.full(posterior_draws, 1.0 / posterior_draws))


def kl_estimator(d: int, posterior_draws: int) -> str:
    """How a Gaussian-kernel run in dimension d estimates each trial's
    posterior-expected kl, as the verify summary names it; the Monte Carlo
    rule is named, not drawn."""
    rule = _tensor_kl_rule(d)
    if rule is None:
        return f"Monte Carlo, {posterior_draws} draws"
    return f"Gauss-Hermite, {len(rule[0])} nodes"


GAP = "gap"
POSTERIOR_KL = "posterior_kl"


class ScenarioMethod(NamedTuple):
    """A method a scenario may name: its variant; the target its certificate
    bounds (GAP, the draw's gap, or POSTERIOR_KL, the posterior-expected kl);
    the name of its bound on `bd`, looked up at each call, so that a caller
    who replaces it (a tracer, a test double) sees every call; the keyword
    inputs of the bound for a run and the draws of its trials, which the
    certificate records; and which certificate it takes of a bound that
    returns several."""

    variant: str
    target: str
    bound: str
    inputs: Callable[[GibbsRun | GaussianRun, Draw], dict]
    part: int | None = None

    def certificate(self, inputs: dict) -> bd.Certificate:
        out = getattr(bd, self.bound)(**inputs)
        return out if self.part is None else out[self.part]

    def build(self, run: GibbsRun | GaussianRun, draws: Draw) -> bd.Certificate:
        return self.certificate(self.inputs(run, draws))


def _gibbs(r: GibbsRun, d: Draw, **inputs) -> dict:
    return dict(inputs, b=r.b, c=r.c, n=r.n, delta=r.delta)


def _subgaussian(r: GibbsRun, d: Draw) -> dict:
    return dict(rho_sup=r.rho_sup, rho_h=d.rho, sigma=r.sigma_h, n=r.n, delta=r.delta)


def _kernel(r: GaussianRun, variant: str, **inputs) -> dict:
    return dict(inputs, V=r.V, sigma=r.sigma, n=r.n, delta=r.delta, variant=variant, c_A=r.c_A)


SCENARIO_METHODS = {
    "bounded_differences": ScenarioMethod("gibbs", GAP, "bound_bounded_differences", _gibbs),
    "bernstein": ScenarioMethod("gibbs", GAP, "bound_bernstein",
                                lambda r, d: _gibbs(r, d, v=d.v)),
    "empirical_bernstein": ScenarioMethod("gibbs", GAP, "bound_empirical_bernstein",
                                          lambda r, d: _gibbs(r, d, L_hat=d.L_hat)),
    "subgaussian_sup": ScenarioMethod("gibbs", GAP, "bound_subgaussian", _subgaussian, 0),
    "subgaussian_h": ScenarioMethod("gibbs", GAP, "bound_subgaussian", _subgaussian, 1),
    "gaussian_gap": ScenarioMethod("gaussian_kernel", GAP, "bound_gaussian_randomization",
                                   lambda r, d: _kernel(r, "gap_joint")),
    "gaussian_gap_bernstein": ScenarioMethod("gaussian_kernel", GAP,
                                             "bound_gaussian_randomization",
                                             lambda r, d: _kernel(r, "gap_bernstein", v_h=d.v)),
    "gaussian_kl_expectation": ScenarioMethod("gaussian_kernel", POSTERIOR_KL,
                                              "bound_gaussian_randomization",
                                              lambda r, d: _kernel(r, "kl_expectation")),
}


def recompute(cert: bd.Certificate) -> bd.Certificate:
    """The certificate's method re-run on its recorded inputs."""
    return SCENARIO_METHODS[cert.method].certificate(cert.inputs)


def _registry_entries(run: GibbsRun | GaussianRun,
                      methods: Sequence[str]) -> list[ScenarioMethod]:
    """Each method's registry entry; KeyError for another variant's method."""
    chosen = [SCENARIO_METHODS[m] for m in methods]
    for m, method in zip(methods, chosen):
        if method.variant != run.variant:
            raise KeyError(f"method {m!r} is not a {run.variant} certificate")
    return chosen


def certificates(run: GibbsRun | GaussianRun, methods: Sequence[str],
                 master_seed: int) -> list[bd.Certificate]:
    """The certificates for the draw of trial 0, the ones `certify` reports,
    built from Python numbers."""
    draws = run.trials(master_seed, 0, 1, posterior_kl=False)
    trial0 = Draw(*(None if f is None else f.tolist()[0] for f in draws))
    return [method.build(run, trial0) for method in _registry_entries(run, methods)]


def _running_sum(total: float, values: np.ndarray) -> float:
    """total + values[0] + values[1] + ..., added in that order."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def _violation_rates(run: GibbsRun | GaussianRun, methods: Sequence[str], trials: int,
                     master_seed: int) -> TrialReport:
    """A violation is a strict exceedance of a certificate by its target. The
    sums behind the means add the trials in order, carried across chunks."""
    chosen = _registry_entries(run, methods)
    posterior_kl = any(method.target == POSTERIOR_KL for method in chosen)
    counts = dict.fromkeys(methods, 0)
    bound_sums = dict.fromkeys(methods, 0.0)
    slack_sums = dict.fromkeys(methods, 0.0)
    gap_sum = 0.0
    chunk = max(1, CHUNK_ELEMENTS // run.width)
    for start in range(0, trials, chunk):
        draws = run.trials(master_seed, start, min(start + chunk, trials), posterior_kl)
        gap = draws.L - draws.L_hat
        gap_sum = _running_sum(gap_sum, gap)
        for m, method in zip(methods, chosen):
            target = gap if method.target == GAP else draws.kl
            value = np.broadcast_to(method.build(run, draws).value, gap.shape)
            bound_sums[m] = _running_sum(bound_sums[m], value)
            slack_sums[m] = _running_sum(slack_sums[m], value - target)
            counts[m] += int(np.count_nonzero(target > value))
    per_method = {m: MethodStats(m, counts[m], trials, bound_sums[m] / trials,
                                 slack_sums[m] / trials) for m in methods}
    return TrialReport(trials=trials, mean_gap=gap_sum / trials, per_method=per_method)


def violation_rate_gibbs(space: FiniteDataSpace, loss: FiniteTable, prior: PriorWeights,
                         beta: float, n: int, delta: float, methods: Sequence[str],
                         trials: int, master_seed: int) -> TrialReport:
    """Joint-draw violation rates for the Gibbs certificates: per trial,
    X ~ mu^n, h ~ Q_X, and each certificate against the gap of h."""
    return _violation_rates(GibbsRun(space, loss, prior, beta, n, delta), methods,
                            trials, master_seed)


def violation_rate_gaussian(space: FiniteDataSpace, loss: CosineLoss,
                            algorithm: StableAlgorithm, sigma: float, n: int,
                            delta: float, methods: Sequence[str], trials: int,
                            master_seed: int, posterior_draws: int) -> TrialReport:
    """Violation rates for the Gaussian-kernel certificates: the gap methods
    against the gap of the single (X, h) draw, kl_expectation against the
    posterior average of kl(L_hat, L) by the run's rule: the Gauss-Hermite
    rule at d <= 3, beyond it posterior_draws normals drawn once per run
    (kl_rule)."""
    run = GaussianRun(space, loss, algorithm, sigma, n, delta, posterior_draws)
    return _violation_rates(run, methods, trials, master_seed)


def kl_bernoulli_vec(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Bernoulli relative entropy kl(s, t), elementwise over s and t
    broadcast together, for s in [0, 1] and t in (0, 1): the domain of
    GaussianRun.expected_kl, whose clipped L is never 0 or 1. Where s is 0
    or 1 its term 0 ln 0 is 0. bounds.kl_bernoulli is the kl of every input."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    # out arrays, so that a 0-d call also takes the in-place steps
    shape = np.broadcast_shapes(s.shape, t.shape)
    a, c = np.empty(shape), np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(s, t, out=a)
        np.log(a, out=a)
        a *= s
        np.copyto(a, 0.0, where=s == 0)
        b = 1 - s
        np.divide(b, 1 - t, out=c)
        np.log(c, out=c)
        c *= b
        np.copyto(c, 0.0, where=s == 1)
    a += c
    return np.maximum(a, 0.0, out=a)


# ---------------------------------------------------------------------------
# tightness comparison against the quoted baselines

class TightnessRow(namedtuple("TightnessRow",
                              "n beta delta eq_simple baseline_gibbs improvement_holds kl_chain")):
    """kl_chain is a fresh dict unless given."""

    __slots__ = ()

    def __new__(cls, n: int, beta: float, delta: float, eq_simple: float, baseline_gibbs: float,
                improvement_holds: bool, kl_chain: dict | None = None):
        return super().__new__(cls, n, beta, delta, eq_simple, baseline_gibbs, improvement_holds,
                               {} if kl_chain is None else kl_chain)


def tightness_report(ns: Sequence[int] = (100, 1000, 10_000),
                     betas_of_n=lambda n: [0.0, math.sqrt(n), n / 10.0],
                     deltas: Sequence[float] = (0.5, 0.05, 0.01),
                     L_hats: Sequence[float] = (0.0, 0.1, 0.3)) -> list[TightnessRow]:
    """Grid comparison of the simple Gibbs bound and its empirical-error form
    against the quoted baselines; the defaults are the grid of `gapcert
    compare` and acceptance criterion 7.

    betas_of_n maps n to the beta grid (so beta can scale with n). For each
    grid point the empirical-error chain is also compared against the
    inverted kl baseline chain at each L_hat, which takes the loss bound b = 1.
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
                    improvement_holds=eq2 < base.rivasplata_gibbs,
                    kl_chain=kl_chain))
    return rows
