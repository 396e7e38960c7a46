"""Hamiltonian specifications, partition functions and finite posteriors.

A Hamiltonian H(h, x) defines a stochastic algorithm through
dQ_x(h) = e^{H(h,x)} dpi(h) / Z(x). The two variants are the paper's: Gibbs
on a finite loss table, H = -beta L_hat, and the Gaussian kernel around a
stable deterministic algorithm.
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
    PriorWeights,
    empirical_losses,
    enumerate_indices,
    row_blocks,
    substitutions,
)


class IncompatibleSpec(ValueError):
    """Hamiltonian variant does not fit the given loss model or operation."""


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


HamiltonianSpec = Gibbs | GaussianKernel


def hamiltonian_matrix(spec: HamiltonianSpec, idx: np.ndarray, loss: FiniteTable) -> np.ndarray:
    """H(h, x) = -beta L_hat(h, x) for every hypothesis h of a finite table and
    every sample row x of the (S, n) index array idx, shape (m, S). Only a
    Gibbs spec on a finite table has one."""
    if not isinstance(loss, FiniteTable) or not isinstance(spec, Gibbs):
        raise IncompatibleSpec(f"no Hamiltonian matrix for {type(spec).__name__} on "
                               f"{type(loss).__name__}")
    return -spec.beta * empirical_losses(loss, idx)


def log_weight_rows(H: np.ndarray, prior: PriorWeights) -> np.ndarray:
    """The unnormalized posterior log weights H(h, x) + ln pi(h) of an (m, S)
    Hamiltonian matrix, -inf where pi(h) = 0, as (S, m): one C-contiguous row
    per sample, so a reduction over a row's hypotheses sums in the same order
    as on that sample's own weight vector."""
    log_prior = np.array([math.log(w) if w > 0 else -math.inf for w in prior.weights])
    return np.ascontiguousarray(H.T) + log_prior


def _finite_log_weights(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
                        prior: PriorWeights) -> np.ndarray:
    H = hamiltonian_matrix(spec, np.asarray(sample)[None, :], loss)
    return log_weight_rows(H, prior)[0]


def log_partition(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
                  prior: PriorWeights) -> float:
    """ln Z(sample) of a finite class, by log-sum-exp."""
    return float(logsumexp(_finite_log_weights(spec, sample, loss, prior)))


def posterior(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
              prior: PriorWeights) -> np.ndarray:
    """The weights of a finite class proportional to e^{H(h, sample)} pi(h),
    normalized to sum to 1."""
    lw = _finite_log_weights(spec, sample, loss, prior)
    w = np.exp(lw - logsumexp(lw))
    return w / w.sum()


def bounded_difference_coefficient(spec: HamiltonianSpec, space: FiniteDataSpace,
                                   loss: FiniteTable, n: int, mode: str = "brute_force",
                                   budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Coefficient c with sup D^k_{y,y'} H <= c, by brute force: the largest
    partial difference of H over hypotheses, coordinates and point pairs,
    with the base sample ranging over all of X^n. Returns (c, "exhaustive").
    A search beyond the budget (|X|^n x m states) raises BudgetExceeded: a
    maximum over part of X^n only bounds the supremum from below. The only
    mode is "brute_force".
    """
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(loss, FiniteTable):  # before its num_hypotheses is read
        raise IncompatibleSpec("the bounded-difference search needs a finite loss table")
    idx, _ = enumerate_indices(space, n, budget, loss.num_hypotheses)
    c = 0.0
    for rows in row_blocks(len(idx), n * space.size):
        sub = substitutions(idx[rows], space.size)
        H = hamiltonian_matrix(spec, sub.reshape(-1, n), loss)
        H = H.reshape(loss.num_hypotheses, *sub.shape[:3])  # (m, rows, k, y)
        c = max(c, float((H.max(axis=-1) - H.min(axis=-1)).max()))
    return c, "exhaustive"


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
