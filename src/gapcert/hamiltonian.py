"""Hamiltonian specifications, partition functions and finite posteriors.

A Hamiltonian H(h, x) defines a stochastic algorithm through
dQ_x(h) = e^{H(h,x)} dpi(h) / Z(x). The two variants are the paper's: Gibbs
on a finite loss table, H = -beta L_hat, and the Gaussian kernel around a
stable deterministic algorithm.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    ContractViolation,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    empirical_loss,
    fibres,
    max_fibre_range,
    product_rows,
    row_table,
)


class IncompatibleSpec(ValueError):
    """Hamiltonian variant does not fit the given loss model or operation."""


class StableAlgorithm(NamedTuple):
    """Deterministic map from samples to parameter vectors in R^d, with the
    two constants the Gaussian-kernel certificates rest on. map takes a
    (..., n) array of sample point indices, one sample per row, to the
    (..., d) array of their outputs.

    declared_c_A is an upper bound on the one-point substitution
    displacement; brute-force checks must never exceed it. variance_fn gives
    the exact variance E||A(X) - E A(X')||^2 for a given (space, n).
    """

    map: Callable[[np.ndarray], np.ndarray]
    dim_d: int
    declared_c_A: float
    variance_fn: Callable[[FiniteDataSpace, int], float]

    def __call__(self, sample: np.ndarray) -> np.ndarray:
        return np.asarray(self.map(np.asarray(sample)), dtype=float)


class Gibbs(namedtuple("Gibbs", "beta")):
    __slots__ = ()

    def __new__(cls, beta: float):
        # written so that a NaN, which fails every comparison, is rejected
        if not 0 <= beta < math.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {beta}")
        return super().__new__(cls, beta)


class GaussianKernel(namedtuple("GaussianKernel", "sigma algorithm")):
    __slots__ = ()

    def __new__(cls, sigma: float, algorithm: StableAlgorithm):
        # written so that a NaN, which fails every comparison, is rejected
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        return super().__new__(cls, sigma, algorithm)


HamiltonianSpec = Gibbs | GaussianKernel


def hamiltonian_matrix(spec: HamiltonianSpec, idx: np.ndarray, loss: FiniteTable) -> np.ndarray:
    """H(h, x) = -beta L_hat(h, x) for every hypothesis h of a finite table and
    every sample row x of the (S, n) index array idx, shape (m, S). Only a
    Gibbs spec on a finite table has one."""
    if not isinstance(loss, FiniteTable) or not isinstance(spec, Gibbs):
        raise IncompatibleSpec(f"no Hamiltonian matrix for {type(spec).__name__} on "
                               f"{type(loss).__name__}")
    return -spec.beta * row_table(lambda h, rows: empirical_loss(h, rows, loss),
                                  loss.num_hypotheses, idx)


def log_prior(prior: PriorWeights) -> np.ndarray:
    """ln pi(h) of every hypothesis, by math.log, -inf where pi(h) = 0."""
    return np.array([math.log(w) if w > 0 else -math.inf for w in prior.weights])


def logsumexp(a: np.ndarray, b: np.ndarray | None = None, keepdims: bool = False):
    """ln sum b e^a over the last axis, for float64 a and weights b >= 0.

    Step for step the algorithm of scipy.special.logsumexp (scipy 1.17) with
    axis=-1 on these inputs, so every value, NaN included, and every shape
    and dtype is the same: the maxima are summed apart, with their weights,
    and the rest as log1p(sum b e^{a - max} / m); where that is not finite,
    ln sum b e^a taken directly on the unmasked a. Entries with b = 0 add
    nothing, whatever their a. The reductions are the ufuncs' own, which
    np.max and np.sum call, and the ufuncs that take a and b broadcast them."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        masked = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = np.maximum.reduce(masked, axis=-1, keepdims=True)
        at_max = masked == a_max
        m = np.add.reduce(at_max if b is None else b * at_max, axis=-1, keepdims=True,
                          dtype=float)
        rest = np.exp(np.where(at_max, -np.inf, masked) - a_max)
        if b is not None:
            rest *= b
        s = np.add.reduce(rest, axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.log(np.add.reduce(np.exp(a) if b is None else b * np.exp(a),
                                          axis=-1, keepdims=True))
            np.copyto(out, direct, where=bad)
    if not keepdims:
        out = out[..., 0]
    return out[()] if out.ndim == 0 else out


def gibbs_posterior(log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_x and ln Z(x) of each row of posterior log weights log_w (..., m):
    Q_x(h) = e^{log_w(h) - ln Z(x)}, renormalized to sum to 1 along the row."""
    log_z = logsumexp(log_w, keepdims=True)
    q = log_w - log_z
    np.exp(q, out=q)
    q /= q.sum(axis=-1, keepdims=True)
    return q, log_z[..., 0]


def gibbs_table(spec: HamiltonianSpec, rows: np.ndarray, loss: FiniteTable,
                prior: PriorWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gibbs algorithm on the (S, n) sample rows: H over (m, S), the
    posterior Q_x per row (S, m) and ln Z per row (S,). Each row's log weights
    H(h, x) + ln pi(h) are one C-contiguous row, so a reduction over its
    hypotheses sums in the same order as on that sample's own weight vector."""
    H = hamiltonian_matrix(spec, rows, loss)
    return (H,) + gibbs_posterior(np.ascontiguousarray(H.T) + log_prior(prior))


def log_partition(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
                  prior: PriorWeights) -> float:
    """ln Z(sample) of a finite class: the one-row gibbs_table."""
    return float(gibbs_table(spec, np.asarray(sample)[None, :], loss, prior)[2][0])


def posterior(spec: HamiltonianSpec, sample: np.ndarray, loss: FiniteTable,
              prior: PriorWeights) -> np.ndarray:
    """The weights of a finite class proportional to e^{H(h, sample)} pi(h),
    normalized to sum to 1: the one-row gibbs_table."""
    return gibbs_table(spec, np.asarray(sample)[None, :], loss, prior)[1][0]


def bounded_difference_coefficient(spec: HamiltonianSpec, space: FiniteDataSpace,
                                   loss: FiniteTable, n: int, mode: str = "brute_force",
                                   budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Coefficient c with sup D^k_{y,y'} H <= c, by brute force: the largest
    partial difference of H over hypotheses, coordinates and point pairs,
    with the base sample ranging over the support of mu^n (max_fibre_range).
    For H = -beta L_hat that is the supremum over all of X^n: a
    one-coordinate difference of L_hat does not depend on the other
    coordinates. Returns (c, "exhaustive").
    A search beyond the budget (|X|^n x m states) raises BudgetExceeded: a
    maximum over part of X^n only bounds the supremum from below. The only
    mode is "brute_force".
    """
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(loss, FiniteTable):  # before its num_hypotheses is read
        raise IncompatibleSpec("the bounded-difference search needs a finite loss table")
    H = hamiltonian_matrix(spec, product_rows(space, n, budget, loss.num_hypotheses), loss)
    return max_fibre_range(space, n, H), "exhaustive"


def output_sensitivity(algorithm: StableAlgorithm, space: FiniteDataSpace, n: int,
                       outs: np.ndarray) -> float:
    """Max displacement ||A(S_y^k x) - A(S_y'^k x)|| over the coordinates k,
    point pairs y, y' and base samples x of X^n, from the outputs of the
    algorithm, outs, one row per row of product_rows; raises
    ContractViolation if the declared coefficient is exceeded."""
    c = 0.0
    for g in fibres(space, n, outs.T):  # (d, ..., y)
        for i in range(space.size):
            for j in range(i + 1, space.size):
                # a matmul of each C-contiguous d-vector with itself sums in
                # the order of np.linalg.norm on that vector alone
                diff = np.ascontiguousarray(np.moveaxis(g[..., i] - g[..., j], 0, -1))[..., None]
                c = max(c, float(np.sqrt(diff.swapaxes(-1, -2) @ diff).max()))
    if c > algorithm.declared_c_A + 1e-9:
        raise ContractViolation(
            f"brute-force sensitivity {c} exceeds declared {algorithm.declared_c_A}"
        )
    return c


# ---------------------------------------------------------------------------
# Built-in stable algorithms, selectable by name in scenario configs.

def constant_algorithm(vector) -> StableAlgorithm:
    v = np.asarray(vector, dtype=float)
    return StableAlgorithm(map=lambda s: np.broadcast_to(v, s.shape[:-1] + v.shape),
                           dim_d=len(v), declared_c_A=0.0,
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
    # a row's distances to every row at once, each the bits of
    # np.linalg.norm on that pair alone: both dot the difference with itself
    diam = 0.0
    for row in phi:
        diff = phi - row
        diam = max(diam, float(np.sqrt(np.vecdot(diff, diff).max())))

    def variance(space: FiniteDataSpace, n: int) -> float:
        mean = space.probs @ phi
        sq = np.einsum("ij,ij->i", phi - mean, phi - mean)
        return float(space.probs @ sq) / n

    def embed(s: np.ndarray) -> np.ndarray:
        # the gather coordinate-major, (n, ..., d), so that the sum over the
        # coordinates adds whole contiguous rows; it adds them left to right,
        # as phi[s].mean(axis=-2) does along its strided axis, bit for bit
        return np.add.reduce(phi[np.moveaxis(s, -1, 0)], axis=0) / s.shape[-1]

    return StableAlgorithm(map=embed, dim_d=phi.shape[1], declared_c_A=diam / n,
                           variance_fn=variance)


def builtin_algorithm(name: str, space: FiniteDataSpace, n: int, dim_d: int,
                      seed: int) -> StableAlgorithm:
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
