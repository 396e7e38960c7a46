"""Hamiltonian specifications, partition functions, posteriors and samplers.

A Hamiltonian H(h, x) defines a stochastic algorithm through
dQ_x(h) = e^{H(h,x)} dpi(h) / Z(x). Supported variants: Gibbs (finite loss
table), Gaussian kernel and Lipschitz kernel around a stable deterministic
algorithm, sums of Hamiltonians, and sample-dependent shifts (which leave
the posterior unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    ContractViolation,
    FiniteDataSpace,
    FiniteTable,
    LossModel,
    ParametricLoss,
    PriorWeights,
    empirical_loss,
    empirical_losses,
    enumerate_indices,
    row_blocks,
    substitutions,
)


class IncompatibleSpec(ValueError):
    """Hamiltonian variant does not fit the given loss model or operation."""


class NotBoundedDifference(ValueError):
    """Requested an analytic bounded-difference coefficient for a Hamiltonian
    that is not bounded-difference (the Gaussian kernel)."""


@dataclass(frozen=True)
class StableAlgorithm:
    """Deterministic map from samples to parameter vectors in R^d, with the
    two constants the Gaussian-kernel certificates rest on.

    declared_c_A is an upper bound on the one-point substitution
    displacement; brute-force checks must never exceed it. variance_fn gives
    the exact variance E||A(X) - E A(X')||^2 for a given (space, n).
    """

    map: Callable[[np.ndarray], np.ndarray]
    dim_d: int
    declared_c_A: float
    variance_fn: Callable[[FiniteDataSpace, int], float]

    def __call__(self, sample: np.ndarray) -> np.ndarray:
        return np.asarray(self.map(sample), dtype=float)


@dataclass(frozen=True)
class Gibbs:
    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


@dataclass(frozen=True)
class GaussianKernel:
    sigma: float
    algorithm: StableAlgorithm

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class LipschitzKernel:
    kernel_exponent: Callable[[np.ndarray], float]
    lip_constant: float
    algorithm: StableAlgorithm

    def __post_init__(self):
        if self.lip_constant < 0:
            raise ValueError("Lipschitz constant must be nonnegative")


@dataclass(frozen=True)
class Composite:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite needs at least one part")


@dataclass(frozen=True)
class Shifted:
    base: "HamiltonianSpec"
    shift: Callable[[np.ndarray], float]


HamiltonianSpec = Gibbs | GaussianKernel | LipschitzKernel | Composite | Shifted


@dataclass(frozen=True)
class FiniteWeights:
    """Exactly normalized posterior over a finite hypothesis class."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("posterior weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"posterior weights sum to {w.sum()!r}")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


@dataclass(frozen=True)
class GaussianPosterior:
    mean: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))


PosteriorDistribution = FiniteWeights | GaussianPosterior


def _check_variant(spec: HamiltonianSpec, loss: LossModel) -> None:
    if isinstance(spec, Gibbs) and not isinstance(loss, FiniteTable):
        raise IncompatibleSpec("Gibbs Hamiltonian requires a finite loss table")
    if isinstance(spec, (GaussianKernel, LipschitzKernel)) and not isinstance(loss, ParametricLoss):
        raise IncompatibleSpec("kernel Hamiltonians require a parametric loss")


def hamiltonian_value(spec: HamiltonianSpec, h, sample: np.ndarray, loss: LossModel) -> float:
    """Evaluate H(h, sample) for the given variant."""
    _check_variant(spec, loss)
    if isinstance(spec, Gibbs):
        return -spec.beta * empirical_loss(h, sample, loss)
    if isinstance(spec, GaussianKernel):
        diff = np.asarray(h, dtype=float) - spec.algorithm(sample)
        return -float(diff @ diff) / (2.0 * spec.sigma**2)
    if isinstance(spec, LipschitzKernel):
        diff = np.asarray(h, dtype=float) - spec.algorithm(sample)
        g = float(spec.kernel_exponent(diff))
        if g < 0:
            raise ContractViolation("kernel exponent must be nonnegative")
        return -g
    if isinstance(spec, Composite):
        return sum(hamiltonian_value(p, h, sample, loss) for p in spec.parts)
    if isinstance(spec, Shifted):
        return hamiltonian_value(spec.base, h, sample, loss) + float(spec.shift(sample))
    raise IncompatibleSpec(f"unknown Hamiltonian variant {type(spec).__name__}")


def hamiltonian_matrix(spec: HamiltonianSpec, idx: np.ndarray, loss: LossModel) -> np.ndarray:
    """H(h, x) for every hypothesis h of a finite table and every sample row x
    of the (S, n) index array idx, shape (m, S). Covers Gibbs, composites of
    Gibbs parts, and shifts, whose shift is called once per row."""
    _check_variant(spec, loss)
    if not isinstance(loss, FiniteTable):
        raise IncompatibleSpec("Hamiltonian matrices need a finite loss table")
    if isinstance(spec, Gibbs):
        return -spec.beta * empirical_losses(loss, idx)
    if isinstance(spec, Composite):
        return sum(hamiltonian_matrix(p, idx, loss) for p in spec.parts)
    if isinstance(spec, Shifted):
        shifts = np.array([float(spec.shift(row)) for row in idx])
        return hamiltonian_matrix(spec.base, idx, loss) + shifts
    raise IncompatibleSpec(f"unknown Hamiltonian variant {type(spec).__name__}")


def log_weight_rows(H: np.ndarray, prior: PriorWeights) -> np.ndarray:
    """The unnormalized posterior log weights H(h, x) + ln pi(h) of an (m, S)
    Hamiltonian matrix, -inf where pi(h) = 0, as (S, m): one C-contiguous row
    per sample, so a reduction over a row's hypotheses sums in the same order
    as on that sample's own weight vector."""
    if prior.lebesgue_reference:
        raise IncompatibleSpec("finite class needs explicit prior weights")
    log_prior = np.array([math.log(w) if w > 0 else -math.inf for w in prior.weights])
    return np.ascontiguousarray(H.T) + log_prior


def _finite_log_weights(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
                        prior: PriorWeights) -> np.ndarray:
    H = hamiltonian_matrix(spec, np.asarray(sample)[None, :], loss)
    return log_weight_rows(H, prior)[0]


def log_partition(spec: HamiltonianSpec, sample: np.ndarray, loss: LossModel,
                  prior: PriorWeights) -> float:
    """ln Z(sample) via log-sum-exp (finite class) or the Gaussian closed form."""
    if isinstance(loss, FiniteTable):
        return float(logsumexp(_finite_log_weights(spec, sample, loss, prior)))
    if isinstance(spec, GaussianKernel):
        d = spec.algorithm.dim_d
        return 0.5 * d * math.log(2.0 * math.pi * spec.sigma**2)
    if isinstance(spec, Shifted):
        return log_partition(spec.base, sample, loss, prior) + float(spec.shift(sample))
    raise IncompatibleSpec(
        "log partition is only available for finite classes, the Gaussian kernel, "
        "and shifts thereof"
    )


def posterior(spec: HamiltonianSpec, sample: np.ndarray, loss: LossModel,
              prior: PriorWeights) -> PosteriorDistribution:
    """The distribution proportional to e^{H(h, sample)} dpi(h)."""
    if isinstance(loss, FiniteTable):
        lw = _finite_log_weights(spec, sample, loss, prior)
        lw = lw - logsumexp(lw)
        w = np.exp(lw)
        return FiniteWeights(weights=w / w.sum())
    if isinstance(spec, GaussianKernel):
        return GaussianPosterior(mean=spec.algorithm(sample), sigma=spec.sigma)
    if isinstance(spec, Shifted):
        return posterior(spec.base, sample, loss, prior)
    raise IncompatibleSpec("no sampler for this spec/loss combination")


def canonical_hamiltonian(spec: HamiltonianSpec, h, sample: np.ndarray, loss: LossModel,
                          prior: PriorWeights) -> float:
    """H(h, sample) - ln Z(sample): the log density of the posterior w.r.t. pi."""
    return hamiltonian_value(spec, h, sample, loss) - log_partition(spec, sample, loss, prior)


def sample_posterior(dist: PosteriorDistribution, rng: np.random.Generator):
    """Draw one hypothesis; exact inverse-CDF for finite classes."""
    if isinstance(dist, FiniteWeights):
        u = rng.random()
        return int(np.searchsorted(np.cumsum(dist.weights), u, side="right").clip(0, len(dist.weights) - 1))
    if isinstance(dist, GaussianPosterior):
        return dist.mean + dist.sigma * rng.standard_normal(dist.mean.shape)
    raise TypeError(f"cannot sample from {type(dist).__name__}")


def bounded_difference_coefficient(spec: HamiltonianSpec, space: FiniteDataSpace,
                                   loss: LossModel, n: int, mode: str = "analytic",
                                   budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Coefficient c with sup D^k_{y,y'} H <= c.

    analytic mode returns the closed form per variant; brute_force maximizes
    the partial difference of H over hypotheses, coordinates and point pairs,
    with the base sample ranging over all of X^n, and returns
    (c, "exhaustive"). A search beyond the budget raises BudgetExceeded: a
    maximum over part of X^n only bounds the supremum from below.
    """
    if mode == "analytic":
        return _analytic_bd(spec, loss, n)
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(loss, FiniteTable):
        raise IncompatibleSpec("brute-force coefficients need a finite hypothesis class")
    idx, _ = enumerate_indices(space, n, budget)
    c = 0.0
    for rows in row_blocks(len(idx), n * space.size):
        sub = substitutions(idx[rows], space.size)
        H = hamiltonian_matrix(spec, sub.reshape(-1, n), loss)
        H = H.reshape(loss.num_hypotheses, *sub.shape[:3])  # (m, rows, k, y)
        c = max(c, float((H.max(axis=-1) - H.min(axis=-1)).max()))
    return c, "exhaustive"


def _analytic_bd(spec: HamiltonianSpec, loss: LossModel, n: int) -> float:
    if isinstance(spec, Gibbs):
        return spec.beta * loss.bound_b / n
    if isinstance(spec, GaussianKernel):
        raise NotBoundedDifference(
            "the Gaussian kernel Hamiltonian is not a bounded-difference Hamiltonian; "
            "use the variance-based bounds instead"
        )
    if isinstance(spec, LipschitzKernel):
        return spec.lip_constant * spec.algorithm.declared_c_A
    if isinstance(spec, Composite):
        return sum(_analytic_bd(p, loss, n) for p in spec.parts)
    if isinstance(spec, Shifted):
        # a sample-dependent shift contributes its own differences to D^k H
        raise IncompatibleSpec("no analytic coefficient for shifted Hamiltonians; use brute_force")
    raise IncompatibleSpec(f"unknown Hamiltonian variant {type(spec).__name__}")


def hypothesis_sensitivity(algorithm: StableAlgorithm, space: FiniteDataSpace, n: int,
                           budget: int = DEFAULT_ENUMERATION_BUDGET) -> float:
    """Max displacement ||A(S_y^k x) - A(S_y'^k x)|| over the substitutions of
    every sample of X^n; raises BudgetExceeded beyond the budget and
    ContractViolation if the declared coefficient is exceeded."""
    idx, _ = enumerate_indices(space, n, budget)
    c = 0.0
    for rows in row_blocks(len(idx), n * space.size):
        for subs in substitutions(idx[rows], space.size).reshape(-1, space.size, n):
            outs = [algorithm(row) for row in subs]
            for i in range(space.size):
                for j in range(i + 1, space.size):
                    c = max(c, float(np.linalg.norm(outs[i] - outs[j])))
    if c > algorithm.declared_c_A + 1e-9:
        raise ContractViolation(
            f"brute-force sensitivity {c} exceeds declared {algorithm.declared_c_A}"
        )
    return c


# ---------------------------------------------------------------------------
# Built-in stable algorithms, selectable by name in scenario configs.

def constant_algorithm(vector) -> StableAlgorithm:
    v = np.asarray(vector, dtype=float)
    return StableAlgorithm(map=lambda s: v, dim_d=len(v), declared_c_A=0.0,
                           variance_fn=lambda space, n: 0.0)


def mean_embedding_algorithm(features: np.ndarray, n: int) -> StableAlgorithm:
    """A(x) = (1/n) sum_i phi(x_i) for a fixed per-point feature table phi,
    at sample size n.

    Its sensitivity is diam(phi)/n; its variance has the closed form
    tr Cov(phi(X)) / n.
    """
    phi = np.asarray(features, dtype=float)
    if phi.ndim != 2:
        raise ValueError("feature table must be (num_points, d)")
    diam = max(
        (float(np.linalg.norm(phi[i] - phi[j]))
         for i in range(phi.shape[0]) for j in range(phi.shape[0])),
        default=0.0,
    )

    def variance(space: FiniteDataSpace, n: int) -> float:
        mean = space.probs @ phi
        sq = np.einsum("ij,ij->i", phi - mean, phi - mean)
        return float(space.probs @ sq) / n

    return StableAlgorithm(map=lambda sample: phi[sample].mean(axis=0), dim_d=phi.shape[1],
                           declared_c_A=diam / n, variance_fn=variance)


def builtin_algorithm(name: str, space: FiniteDataSpace, n: int, dim_d: int = 2,
                      seed: int = 0) -> StableAlgorithm:
    """Registry lookup used by scenario configs. Every built-in algorithm
    declares its sensitivity coefficient c_A, on which the Gaussian-kernel
    certificates rest."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if name == "constant":
        return constant_algorithm(np.zeros(dim_d))
    if name == "mean_embedding":
        phi = rng.uniform(-0.5, 0.5, size=(space.size, dim_d))
        return mean_embedding_algorithm(phi, n)
    raise KeyError(f"unknown stable algorithm {name!r}")
