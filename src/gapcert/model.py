"""Finite data spaces, samples, loss models and elementary loss statistics.

Everything downstream (posteriors, certificates, enumeration oracles) is
built on the handful of quantities defined here: true and empirical loss,
the generalization gap and per-hypothesis variance. A sample is a row of
point indices; the exact engine holds every sample of X^n as one row of an
(S, n) index array, tabulates functions of a sample on blocks of those rows
and reduces a one-coordinate quantity along one axis of the X^n grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Iterator

import numpy as np

PROB_TOL = 1e-12
DEFAULT_ENUMERATION_BUDGET = 10**6


class ContractViolation(ValueError):
    """A declared coefficient broke its stated contract."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration was requested beyond the configured state budget."""


class FiniteDataSpace(namedtuple("FiniteDataSpace", "points probs")):
    """A finite data domain with an explicit probability vector.

    points are opaque identifiers (their order defines the index space);
    probs is the probability of each point, a read-only copy of the caller's.
    """

    __slots__ = ()

    def __new__(cls, points: tuple, probs: np.ndarray):
        probs = np.array(probs, dtype=float)
        if len(points) < 1:
            raise ValueError("data space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        if len(points) != len(probs):
            raise ValueError("points/probs length mismatch")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        return super().__new__(cls, points, probs)

    @property
    def size(self) -> int:
        return len(self.points)


class FiniteTable(namedtuple("FiniteTable", "values bound_b")):
    """Loss table over (hypothesis index, point index), values in [0, bound_b],
    a read-only copy of the caller's."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray, bound_b: float = 1.0):
        values = np.array(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("loss table must be 2-dimensional")
        if not (math.isfinite(bound_b) and bound_b > 0):
            raise ValueError("bound_b must be finite and positive")
        # written so that a NaN, which fails every comparison, is rejected
        if not np.all((values >= 0) & (values <= bound_b)):
            raise ValueError("loss values must lie in [0, bound_b]")
        values.setflags(write=False)
        return super().__new__(cls, values, bound_b)

    @property
    def num_hypotheses(self) -> int:
        return self.values.shape[0]

    def row(self, h: int) -> np.ndarray:
        if not 0 <= h < self.num_hypotheses:
            raise IndexError(f"hypothesis index {h} out of range")
        return self.values[h]


def row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, each entry independent of the other rows of a and of b.
    numpy computes a product with one row or one column by gemv, which rounds
    the dots otherwise than gemm, and gemm's entries depend on their batch
    past 16 columns of the contraction: a copy of a lone row keeps every
    batch on gemm, and blocks of 16 columns added left to right keep each
    entry to its own rows (16 columns or fewer take one product)."""
    a2 = a if len(a) > 1 else np.concatenate([a, a])
    b2 = b if len(b) > 1 else np.concatenate([b, b])
    out = a2[:, :16] @ b2[:, :16].T
    for k in range(16, a.shape[1], 16):
        out += a2[:, k:k + 16] @ b2[:, k:k + 16].T
    return out[:len(a), :len(b)]


class CosineLoss:
    """The loss (1 + cos<h, phi(x)>)/2 of a hypothesis h in R^d at each point
    x, phi(x) being the point's row of a (num_points, d) feature table. It is
    smooth, and lies in [0, 1] by construction."""

    def __init__(self, features: np.ndarray):
        self.features = np.asarray(features, dtype=float)

    def values(self, hs: np.ndarray) -> np.ndarray:
        """The (k, num_points) losses of the (k, d) hypotheses hs; a row's
        losses do not depend on the other rows of the batch."""
        out = row_products(hs, self.features)
        np.cos(out, out=out)
        out += 1.0
        out *= 0.5  # 0.5 * (1 + cos), in place
        return out

    def angles(self, centers: np.ndarray) -> np.ndarray:
        """The (k, 2 num_points) angle table [cos a, -sin a] of the (k, d)
        centers c, a = <c, phi_x> at each point x: the centers' side of the
        angle addition in weighted_sums. A row does not depend on the other
        rows of the batch, so a slice of the table is the table of its
        centers."""
        a = row_products(centers, self.features)
        table = np.empty((len(a), 2 * a.shape[1]))
        np.cos(a, out=table[:, :a.shape[1]])
        np.negative(np.sin(a, out=a), out=table[:, a.shape[1]:])
        return table

    def weighted_sums(self, offsets: np.ndarray) -> Callable:
        """The weighted loss sums around the (p, d) offsets: a function of the
        angles(c) of (k, d) centers c, the (num_points,) weights mu and
        (k, num_points) weights freq, whose two (k, p) arrays hold
        sum_x mu_x loss(c_t + o_j, x) and sum_x freq_tx loss(c_t + o_j, x).
        Each value depends on its own center, offset and weights only.

        By angle addition, cos(a + b) = cos a cos b - sin a sin b with
        a = <c, phi_x> per center and b = <o, phi_x> per offset, so the
        w-weighted sums at c + o are 0.5 (sum w + [w cos a, -w sin a] .
        [cos b, sin b]): one product of a (k, 2|X|) table by the offsets'
        (2|X|, p) table, with no cosine per (center, offset, point)."""
        b = row_products(offsets, self.features)
        table = np.empty((len(b), 2 * b.shape[1]))
        np.cos(b, out=table[:, :b.shape[1]])
        np.sin(b, out=table[:, b.shape[1]:])

        def sums(cos_sin: np.ndarray, mu: np.ndarray, freq: np.ndarray):
            out = []
            for w in (mu, freq):
                s = row_products(cos_sin * np.concatenate([w, w], axis=-1), table)
                s += w.sum(axis=-1, keepdims=True)
                s *= 0.5
                out.append(s)
            return out

        return sums


class PriorWeights(namedtuple("PriorWeights", "weights")):
    """Nonnegative a-priori weights over a finite hypothesis class, a read-only
    copy of the caller's; no normalization is required."""

    __slots__ = ()

    def __new__(cls, weights: np.ndarray):
        w = np.array(weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("prior weights must be nonnegative and finite")
        if not np.any(w > 0):
            raise ValueError("at least one prior weight must be positive")
        w.setflags(write=False)
        return super().__new__(cls, w)

    @classmethod
    def uniform(cls, m: int) -> "PriorWeights":
        return cls(weights=np.ones(m))


def _losses_at(loss: FiniteTable, h, indices) -> np.ndarray:
    return loss.row(int(h))[np.asarray(indices)]


def true_loss(h, space: FiniteDataSpace, loss: FiniteTable) -> float:
    """Expected loss of h under the space's probability vector."""
    vals = _losses_at(loss, h, range(space.size))
    return float(np.dot(space.probs, vals))


def empirical_loss(h, sample: np.ndarray, loss: FiniteTable) -> np.ndarray:
    """Mean loss of h over each sample row of point indices, (..., n) -> (...):
    the sum that .mean(axis=-1) takes, divided by n as it divides."""
    losses = _losses_at(loss, h, sample)
    return np.add.reduce(losses, axis=-1) / losses.shape[-1]


def generalization_gap(h, sample: np.ndarray, space: FiniteDataSpace,
                       loss: FiniteTable) -> np.ndarray:
    """True loss minus empirical loss of each sample row; lies in [-b, b]."""
    return true_loss(h, space, loss) - empirical_loss(h, sample, loss)


def loss_variance(h, space: FiniteDataSpace, loss: FiniteTable) -> float:
    """Variance of the loss of h under the data distribution."""
    vals = _losses_at(loss, h, range(space.size))
    mean = float(np.dot(space.probs, vals))
    return float(np.dot(space.probs, (vals - mean) ** 2))


# Sample rows handed at once to the function of row_table. It bounds each
# (rows, n) loss gather to a few MB, whatever the enumeration budget.
BLOCK_ROWS = 1 << 12


def row_table(fn: Callable[[int, np.ndarray], np.ndarray], m: int,
              idx: np.ndarray) -> np.ndarray:
    """fn(h, rows) of every hypothesis h < m on every sample row of the (S, n)
    index array idx, (m, S). fn is called once per hypothesis per block of at
    most BLOCK_ROWS rows, and maps that (r, n) block to r values, or to one
    value for all of them."""
    out = np.empty((m, len(idx)))
    for start in range(0, len(idx), BLOCK_ROWS):
        # product_rows is F-ordered, and so is a loss gather at F-ordered
        # rows, whose .mean(-1) adds left to right; at C-ordered rows it sums
        # each row as on the lone sample (pairwise from n = 8 on), bit for bit
        rows = np.ascontiguousarray(idx[start:start + BLOCK_ROWS])
        for h in range(m):
            out[h, start:start + len(rows)] = fn(h, rows)
    return out


def product_rows(space: FiniteDataSpace, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET,
                 hypotheses: int = 1) -> np.ndarray:
    """Every sample of X^n, zero-probability points included, as one
    (|X|^n, n) index array in itertools.product order.

    Refuses (rather than silently sampling) when |X|^n x hypotheses exceeds
    the budget, where hypotheses is the number the caller evaluates on each
    row. This is the one place that compares a state count with the
    enumeration budget.
    """
    # with two or more points the count is at least 2^n, so past n = 40 and the
    # budget's bits it exceeds 10^12 and the budget: skip the slow exact power
    beyond = space.size >= 2 and hypotheses >= 1 and n > max(40, budget.bit_length())
    states = math.inf if beyond else space.size**n * hypotheses
    if states > budget:
        # a count of thousands of digits is unreadable, and str() refuses it
        count = f" = {states}" if states < 10**12 else ""
        raise BudgetExceeded(f"enumeration of {space.size}^{n} x {hypotheses}{count} "
                             f"states exceeds budget {budget}")
    return np.indices((space.size,) * n).reshape(n, -1).T


def enumerate_indices(space: FiniteDataSpace, n: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET,
                      hypotheses: int = 1) -> tuple[np.ndarray, np.ndarray | slice, np.ndarray]:
    """The support of mu^n from one enumeration: the grid product_rows,
    (|X|^n, n), which of its rows hold no zero-probability point (a boolean
    mask, or slice(None) for all of them), and the mu^n weights (S,) of
    those S rows. grid[keep] are the rows, and table[keep] the values of a
    table with one entry per row of the grid."""
    grid = product_rows(space, n, budget, hypotheses)
    support = space.probs > 0
    keep = slice(None) if support.all() else support[grid].all(axis=1)
    idx = grid[keep]
    log_probs = np.log(np.where(support, space.probs, 1.0))
    # left-to-right sums and math.exp keep every weight bit-identical to the
    # per-sample definition exp(sum_k ln mu(x_k))
    log_w = log_probs[idx[:, 0]]
    for k in range(1, n):
        log_w = log_w + log_probs[idx[:, k]]
    return grid, keep, math_map(math.exp, log_w)


def enumerate_samples(space: FiniteDataSpace, n: int,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every kept row of enumerate_indices with its weight."""
    grid, keep, w = enumerate_indices(space, n, budget)
    yield from zip(grid[keep], w.tolist())


def fibres(space: FiniteDataSpace, n: int, values: np.ndarray) -> Iterator[np.ndarray]:
    """Per coordinate k, the values along k at every base sample in the
    support. values holds one entry per row of product_rows on its last axis;
    each yielded array keeps any leading axes, has one axis per other
    coordinate (its support points) and the point y, over all of X, last.
    Where every point is in the support, each is a view of values, to be read
    only. Its strides are those of the copy it replaces only for 1-D values,
    so with leading axes only reductions whose order does not matter (max,
    min, elementwise steps) are sure to keep their bits."""
    grid = values.reshape(values.shape[:-1] + (space.size,) * n)
    lead = values.ndim - 1
    support = np.flatnonzero(space.probs > 0)
    every = np.arange(space.size)
    for k in range(n):
        if len(support) < space.size:
            grid_k = grid[(..., *np.ix_(*[every if j == k else support for j in range(n)]))]
        else:
            grid_k = grid
        yield np.moveaxis(grid_k, lead + k, -1)


def max_fibre_range(space: FiniteDataSpace, n: int, values: np.ndarray) -> float:
    """The largest change of values under a one-coordinate substitution,
    max over k, base samples and y, y' of |v(S_y^k x) - v(S_y'^k x)|."""
    return max(0.0, *(float((g.max(-1) - g.min(-1)).max()) for g in fibres(space, n, values)))


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

    The points, #mu and b lines may each come once. Every number must be
    finite: probabilities are nonnegative and sum to 1, the bound is
    positive, and losses lie in [0, bound].
    """
    points = None
    probs = None
    bound = 1.0
    rows, seen = [], set()
    with open(path, encoding="utf-8-sig") as fh:  # a BOM is not a key
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or (line.startswith("#") and not line.startswith("#mu")):
                continue
            key, *texts = line.split()
            if key in ("points", "#mu", "b"):
                if key in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate {key} line")
                seen.add(key)
            if key == "points":
                points = tuple(texts)
                continue
            if key == "b" and len(texts) != 1:
                raise ValueError(f"{path}:{lineno}: a b line holds exactly one number")
            try:
                numbers = [float(t) for t in texts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if key == "#mu":
                probs = (lineno, numbers)
            elif key == "b":
                bound = numbers[0]
            else:
                rows.append((lineno, numbers))
    if points is None or probs is None or not rows:
        raise ValueError(f"{path}: need a points line, a #mu line and at least one hypothesis row")
    for lineno, numbers in (probs, *rows):
        if len(numbers) != len(points):
            raise ValueError(f"{path}:{lineno}: {len(numbers)} numbers for {len(points)} points")
    space = FiniteDataSpace(points=points, probs=probs[1])
    return space, FiniteTable(values=[numbers for _, numbers in rows], bound_b=bound)
