"""Finite data spaces, samples, loss models and elementary loss statistics.

Everything downstream (posteriors, certificates, enumeration oracles) is
built on the handful of quantities defined here: true and empirical loss,
the generalization gap, per-hypothesis variance and the one-coordinate
substitution operator. A sample is a 1-D int array of point indices; the
exact engine holds every sample of X^n as one row of an (S, n) index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

PROB_TOL = 1e-12
DEFAULT_ENUMERATION_BUDGET = 10**6


class ContractViolation(ValueError):
    """A loss evaluator or declared coefficient broke its stated contract."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration was requested beyond the configured state budget."""


@dataclass(frozen=True)
class FiniteDataSpace:
    """A finite data domain with an explicit probability vector.

    points are opaque identifiers (their order defines the index space);
    probs is the probability of each point.
    """

    points: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if len(self.points) < 1:
            raise ValueError("data space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if len(self.points) != len(self.probs):
            raise ValueError("points/probs length mismatch")
        if not np.all(np.isfinite(self.probs)) or np.any(self.probs < 0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        self.probs.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FiniteTable:
    """Loss table over (hypothesis index, point index), values in [0, bound_b]."""

    values: np.ndarray
    bound_b: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("loss table must be 2-dimensional")
        if not (math.isfinite(self.bound_b) and self.bound_b > 0):
            raise ValueError("bound_b must be finite and positive")
        # written so that a NaN, which fails every comparison, is rejected
        if not np.all((self.values >= 0) & (self.values <= self.bound_b)):
            raise ValueError("loss values must lie in [0, bound_b]")
        self.values.setflags(write=False)

    @property
    def num_hypotheses(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]

    def row(self, h: int) -> np.ndarray:
        if not 0 <= h < self.num_hypotheses:
            raise IndexError(f"hypothesis index {h} out of range")
        return self.values[h]


@dataclass(frozen=True)
class ParametricLoss:
    """Loss over hypotheses parametrized by vectors in R^d, bounded in [0, bound_b].

    The evaluator must be deterministic; values outside [0, bound_b] are a
    contract violation and raise. batch_evaluator maps a (k, d) array of
    hypotheses to their (k, num_points) losses at once.
    """

    dim_d: int
    evaluator: Callable[[np.ndarray, int], float]
    batch_evaluator: Callable[[np.ndarray], np.ndarray]
    bound_b: float = 1.0

    def __post_init__(self):
        if self.dim_d < 1:
            raise ValueError("dim_d must be positive")
        if self.bound_b <= 0:
            raise ValueError("bound_b must be positive")

    def value(self, h: np.ndarray, point_index: int) -> float:
        v = float(self.evaluator(np.asarray(h, dtype=float), point_index))
        if not (0.0 <= v <= self.bound_b + 1e-12):
            raise ContractViolation(
                f"parametric loss returned {v} outside [0, {self.bound_b}]"
            )
        return min(v, self.bound_b)


@dataclass(frozen=True)
class PriorWeights:
    """Nonnegative a-priori weights over a finite hypothesis class; no
    normalization is required."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("prior weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one prior weight must be positive")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)

    @classmethod
    def uniform(cls, m: int) -> "PriorWeights":
        return cls(weights=np.ones(m))


def _losses_at(loss: FiniteTable, h, indices) -> np.ndarray:
    return loss.row(int(h))[np.asarray(indices)]


def true_loss(h, space: FiniteDataSpace, loss: FiniteTable) -> float:
    """Expected loss of h under the space's probability vector."""
    vals = _losses_at(loss, h, range(space.size))
    return float(np.dot(space.probs, vals))


def empirical_loss(h, sample: np.ndarray, loss: FiniteTable) -> float:
    """Mean loss of h over the sample, a 1-D array of point indices."""
    return float(np.mean(_losses_at(loss, h, sample)))


def generalization_gap(h, sample: np.ndarray, space: FiniteDataSpace, loss: FiniteTable) -> float:
    """True loss minus empirical loss; lies in [-b, b]."""
    return true_loss(h, space, loss) - empirical_loss(h, sample, loss)


def loss_variance(h, space: FiniteDataSpace, loss: FiniteTable) -> float:
    """Variance of the loss of h under the data distribution."""
    vals = _losses_at(loss, h, range(space.size))
    mean = float(np.dot(space.probs, vals))
    return float(np.dot(space.probs, (vals - mean) ** 2))


# Sample rows handled at once by the array engine. It bounds the
# (m, rows, n) loss gathers and the (rows, n, |X|, n) substitution arrays to a
# few MB, whatever the enumeration budget.
BLOCK_ROWS = 1 << 12


def row_blocks(num_rows: int, expansion: int = 1) -> list[slice]:
    """Slices covering num_rows rows, each of at most BLOCK_ROWS // expansion
    rows, so that a block expanded `expansion`-fold stays within BLOCK_ROWS."""
    step = max(1, BLOCK_ROWS // expansion)
    return [slice(start, start + step) for start in range(0, num_rows, step)]


def empirical_losses(loss: FiniteTable, idx: np.ndarray) -> np.ndarray:
    """The empirical loss of every hypothesis on every sample row, (m, S)."""
    out = np.empty((loss.num_hypotheses, len(idx)))
    for rows in row_blocks(len(idx)):
        # np.take returns C-contiguous rows, so each mean sums in np.mean's
        # order and equals empirical_loss on that sample bit for bit
        out[:, rows] = np.take(loss.values, idx[rows], axis=1).mean(axis=-1)
    return out


def enumerate_indices(space: FiniteDataSpace, n: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET,
                      hypotheses: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every sample in the n-fold product space as one (S, n) index array, in
    itertools.product order, with its mu^n weight vector (S,).

    Rows that contain a zero-probability point are dropped. Refuses (rather
    than silently sampling) when |X|^n x hypotheses exceeds the budget, where
    hypotheses is the number the caller evaluates on each row. This is the
    one place that compares a state count with the enumeration budget.
    """
    states = space.size**n * hypotheses
    if states > budget:
        # a count of thousands of digits is unreadable, and str() refuses it
        count = f" = {states}" if states < 10**12 else ""
        raise BudgetExceeded(f"enumeration of {space.size}^{n} x {hypotheses}{count} "
                             f"states exceeds budget {budget}")
    support = space.probs > 0
    idx = np.indices((space.size,) * n).reshape(n, -1).T
    if not support.all():
        idx = idx[support[idx].all(axis=1)]
    log_probs = np.log(np.where(support, space.probs, 1.0))
    # left-to-right sums and math.exp keep every weight bit-identical to the
    # per-sample definition exp(sum_k ln mu(x_k))
    log_w = log_probs[idx[:, 0]]
    for k in range(1, n):
        log_w = log_w + log_probs[idx[:, k]]
    return idx, math_map(math.exp, log_w)


def enumerate_samples(space: FiniteDataSpace, n: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every row of enumerate_indices with its weight."""
    idx, w = enumerate_indices(space, n, budget)
    yield from zip(idx, w.tolist())


def substitutions(idx: np.ndarray, space_size: int) -> np.ndarray:
    """The one-coordinate substitutions of every row: out[s, k, y] is row s
    with coordinate k replaced by point index y, shape (S, n, |X|, n)."""
    rows, n = idx.shape
    out = np.broadcast_to(idx[:, None, None, :], (rows, n, space_size, n)).copy()
    k = np.arange(n)
    out[:, k, :, k] = np.arange(space_size)
    return out


def math_map(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """fn over a vector with Python floats: math.exp and math.log, which
    numpy's vectorized exp and log do not match bit for bit."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))


def load_loss_table(path) -> tuple[FiniteDataSpace, FiniteTable]:
    """Read a data space and loss table from the plain-text tabular format.

    Format (whitespace separated):
        # comment lines are ignored
        points  x1 x2 ... xm
        #mu     p1 p2 ... pm
        [b      <bound>]            optional, default 1.0
        h0      v01 v02 ... v0m     one row per hypothesis
        ...

    Every number must be finite: probabilities are nonnegative and sum to 1,
    the bound is positive, and losses lie in [0, bound].
    """
    points = None
    probs = None
    bound = 1.0
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or (line.startswith("#") and not line.startswith("#mu")):
                continue
            parts = line.split()
            key = parts[0]
            if key == "points":
                points = tuple(parts[1:])
            elif key == "#mu":
                probs = np.array([float(p) for p in parts[1:]])
            elif key == "b":
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: a b line holds exactly one number")
                bound = float(parts[1])
            else:
                rows.append([float(v) for v in parts[1:]])
    if points is None or probs is None or not rows:
        raise ValueError(f"{path}: need a points line, a #mu line and at least one hypothesis row")
    space = FiniteDataSpace(points=points, probs=probs)
    table = FiniteTable(values=np.array(rows), bound_b=bound)
    if table.num_points != space.size:
        raise ValueError(f"{path}: table has {table.num_points} columns for {space.size} points")
    return space, table
