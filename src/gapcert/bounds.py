"""Closed-form generalization certificates, kl utilities and baselines.

Every bound is returned as a Certificate carrying the method tag, the
numeric value, the confidence level, the scope of the probabilistic
statement (a single joint draw of sample and hypothesis, or the posterior
expectation) and a snapshot of all inputs sufficient to recompute the value
bit-identically.

The certificates a trial draw feeds take arrays over trials as well as
floats: one formula gives every trial's value, np.sqrt rounds as math.sqrt
does, and each domain check holds for every element. The level delta and
the sample size n stay scalars, so ln(1/delta) is math.log's.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple
# log is the one name through which every kl evaluation takes its logs
from math import expm1, isfinite, log, log1p, nextafter, sqrt

import numpy as np

JOINT_DRAW = "joint_draw"
POSTERIOR_EXPECTATION = "posterior_expectation"


class DomainError(ValueError):
    """A certificate parameter is outside its stated domain."""


class StabilityPreconditionError(ValueError):
    """The kernel-randomization stability requirement 12 n c_A^2 <= sigma^2 fails."""


def _outside(*conditions) -> bool:
    """Whether any element of any condition holds."""
    return any(np.any(c) for c in conditions)


def _square(x: float) -> float:
    """x**2, or inf where that overflows a float."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _check_delta(delta: float) -> float:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in the open interval (0,1), got {delta}")
    return math.log(1.0 / delta)


class Certificate(namedtuple("Certificate", "method value delta scope inputs notes")):
    """A certificate, or one per trial when its inputs hold arrays over trials:
    then value is the array of their values. A scalar value is a float."""

    __slots__ = ()

    def __new__(cls, method: str, value: float | np.ndarray, delta: float, scope: str,
                inputs: dict, notes: str = ""):
        if not np.all(np.isfinite(value)):
            raise DomainError(f"certificate value must be finite, got {value}")
        if np.ndim(value) == 0:
            value = float(value)
        return super().__new__(cls, method, value, delta, scope, inputs, notes)

    def input_pairs(self) -> list[str]:
        """The key=value text of each input, sorted by key."""
        return [f"{k}={self.inputs[k]!r}" for k in sorted(self.inputs)]

    def serialize(self) -> str:
        """One line: method, value, delta, scope, then key=value input pairs."""
        notes = [f"notes={self.notes!r}"] if self.notes else []
        return " ".join([self.method, repr(self.value), repr(self.delta), self.scope,
                         *self.input_pairs(), *notes])


# ---------------------------------------------------------------------------
# kl utilities

def kl_bernoulli(s: float, t: float) -> float:
    """Relative entropy of Bernoulli(s) from Bernoulli(t); 0 ln 0 = 0. The one
    kl formula: kl_inverse_upper takes its operations in line."""
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"s must be in [0,1], got {s}")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must be in [0,1], got {t}")
    if t == 0.0 or t == 1.0:
        return 0.0 if s == t else math.inf
    out = 0.0
    if s > 0.0:
        out += s * log(s / t)
    if s < 1.0:
        out += (1.0 - s) * log((1.0 - s) / (1.0 - t))
    return 0.0 if out < 0.0 else out


KL_INVERSE_RESIDUAL_TOL = 1e-10
# the right end of the bisection: the largest q it searches below 1
KL_INVERSE_TOP = 1.0 - 1e-15
# Margin by which a computed residual must clear the tolerance to certify its
# point. On [p_hat, KL_INVERSE_TOP] each term of the kl formula is at most
# ln(1e15) < 35 in size and carries a few roundings relative to that size, so
# the computed kl lies within about 1e-13 of the exact kl(p_hat, q), and
# subtracting B (below 35 once a root lies under the top) rounds by less.
# The exact kl is nondecreasing in q on [p_hat, 1). So if a point's computed
# residual is below -(tol + eps), every point to its left computes a residual
# below -tol, and if it is above tol + eps, every point to its right computes
# one above tol: eps = 1e-12 exceeds two evaluations' errors several times.
_KL_CERTIFY_EPS = 1e-12
# Newton steps after which the bisection goes on with the bracket found so far
_KL_NEWTON_MAX_ITER = 12


def _kl_certified_bracket(p_hat: float, c: float, B: float) -> tuple[float, float]:
    """Points (below, right) where the bisection's decision is known: at every
    q <= below its computed residual is < -tol, at every q >= right it is > tol.
    c is 1 - p_hat.

    Newton's method on w = ln(1 - q), where kl(p_hat, .) is convex and
    decreasing with slope -(q - p_hat) / q, walks left from a point right of
    the root towards the residual +1.5 margin. At an evaluated point q right
    of the root, kl's tangent at q gives both ends without evaluating kl:
    - the left end, where the tangent reaches -1.25 margin, where convexity
      certifies it: kl's slope there is at most the chord's to q;
    - with it, the right end, where the tangent reaches +1.25 margin: the
      tangent lies below the convex kl(p_hat, .). Else the right end is q.
    Each certificate asks its computed bound, with the slope term scaled by
    1 +- 1e-12 against its six roundings, to clear the margin tol + 1e-12,
    against a computed kl within about 1e-13 of the exact one (see
    _KL_CERTIFY_EPS): an end's exact residual then clears tol by 1e-13, and
    so does every point beyond it, as at an evaluated point.
    Near the root without a certified left end, steps aim at -2 margin for an
    evaluated one. Only certified points are kept, so a step that goes astray
    costs evaluations, never a different bisection. Without a certified point
    the bound stays outside [0, 1].
    """
    margin = KL_INVERSE_RESIDUAL_TOL + _KL_CERTIFY_EPS
    right = 2.0
    # The walk starts right of the root, at the root of kl = B + 2 margin
    # implied by Jensen's bound kl(p, q) >= (q - p)^2 / 2 m (1 - m), q >= p:
    # kl(p, q) integrates (t - p) / t (1 - t) over [p, q], 1 / t (1 - t) is
    # convex and m = p + 2 (q - p) / 3 is the mean of the weight t - p. As
    # m (1 - m) <= min(1/4, 1 - p, q), the bound exceeds Pinsker's and the
    # bounds (q - p)^2 / 2 (1 - p) and / 2q. In d = q - p the root solves
    # a d^2 - 2 h d - g = 0, taken in the form that does not cancel.
    b = B + 2.0 * margin
    h = b * (1.0 - 2.0 * p_hat) / 1.5
    a = 1.0 + b / 1.125
    g = 2.0 * b * p_hat * c
    root = sqrt(h * h + a * g)
    q = p_hat + ((h + root) / a if h > 0.0 else g / (root - h))
    if q > KL_INVERSE_TOP:
        q = KL_INVERSE_TOP
    # every step moves q left, so p_hat < q <= KL_INVERSE_TOP holds throughout,
    # where kl_bernoulli(p_hat, q) takes the operations of kl below: its
    # 0.0 + first term differs only in the sign of a zero, which r drops
    for _ in range(_KL_NEWTON_MAX_ITER):
        kl = (p_hat * log(p_hat / q) if p_hat > 0.0 else 0.0) + c * log(c / (1.0 - q))
        r = (0.0 if kl < 0.0 else kl) - B
        if r < -margin:
            return q, right
        near = r <= 3.0 * margin
        if r > margin:
            right = q
            slope = (q - p_hat) / (q * (1.0 - q))
            # left end, with kl's slope s(t) = (t - p_hat) / (t (1 - t)) at t:
            # t's exact residual <= r + 1e-13 - s(t) (q - t) < -tol - 1e-13
            t = q - (r + 1.25 * margin) / slope
            if t > p_hat and (t - p_hat) / (t * (1.0 - t)) * (q - t) * (1.0 - 1e-12) > r + margin:
                # right end: u's exact residual >= r - 1e-13 - slope (q - u) > tol + 1e-13
                u = q - (r - 1.25 * margin) / slope
                if p_hat < u < q and r - slope * (q - u) * (1.0 + 1e-12) > margin:
                    right = u
                return t, right
        # the Newton step in w and its second-order (Chebyshev) correction, by
        # the curvature p_hat (1 - q) / q^2; the third derivative is positive
        # too, so neither step overshoots
        step = (r - (-2.0 * margin if near else 1.5 * margin)) * q / (q - p_hat)
        step *= 1.0 + 0.5 * step * (1.0 - q) * (p_hat / q) / (q - p_hat)
        # w <= 0 keeps expm1 finite when the slope is tiny, and a step moves
        # at least one float where the floats are too coarse to aim
        w = log1p(-q) + step
        left = -expm1(0.0 if w > 0.0 else w)
        q = left if left < q else nextafter(q, 0.0)
        if not q > p_hat:
            break
    return -1.0, right


def kl_inverse_upper(p_hat: float, B: float) -> float:
    """The q in [p_hat, 1) with kl(p_hat, q) = B, or 1 if no root below 1.

    Bisection on [p_hat, KL_INVERSE_TOP] to residual 1e-10. The kl formula
    is evaluated only at midpoints inside a bracket around the root whose
    ends kl's tangents certify (_kl_certified_bracket); outside it the
    bisection's decision is known without it, so the returned midpoint is the
    plain bisection's, bit for bit. Whether kl(p_hat, KL_INVERSE_TOP) exceeds
    B is certified without evaluating it where a lower bound at the top
    clears B by 1e-12. kl is evaluated in line, with kl_bernoulli's
    operations on p_hat < q < 1, so each residual keeps its bits.
    """
    if not (0.0 <= p_hat <= 1.0):
        raise DomainError(f"p_hat must be in [0,1], got {p_hat}")
    if B < 0 or not isfinite(B):
        raise DomainError(f"B must be finite and nonnegative, got {B}")
    if B == 0.0:
        return p_hat
    # The loop below ends only in float64: a float32 p_hat leaves bracket ends
    # between adjacent lo and hi, and a float32 B rounds residuals past what
    # the bracket certifies.
    p_hat, B = float(p_hat), float(B)
    hi = KL_INVERSE_TOP
    if p_hat >= hi:
        return 1.0
    c = 1.0 - p_hat
    # For q >= p, kl(p, q) >= (q - p)^2 / 2 min(1/4, 1 - p) (Pinsker's bound and
    # its refinement near 1) and kl(p, q) >= (1 - p) ln(1 / (1 - q)) - ln 2, as
    # p ln(1 / q) >= 0 and the entropy of p is at most ln 2; at hi
    # ln(1 / (1 - hi)) > 34.5 and ln 2 < 0.7. Where either bound at hi
    # exceeds B + eps, the computed kl(p_hat, hi) exceeds B.
    if (not ((hi - p_hat) ** 2 > 2.0 * (c if c < 0.25 else 0.25) * (B + _KL_CERTIFY_EPS)
             or c * 34.5 - 0.7 > B + _KL_CERTIFY_EPS)
            and kl_bernoulli(p_hat, hi) <= B):
        return 1.0
    below, right = _kl_certified_bracket(p_hat, c, B)
    lo = p_hat
    # The loop needs no cap. lo < root < hi holds throughout: lo is p_hat,
    # whose residual is -B < 0, or computes a residual < -tol, and hi is the
    # top, whose kl exceeds B, or computes a residual > tol. With
    # below < root < right, a midpoint the bracket decides (mid < below or
    # mid > right) lies strictly between lo and hi, so each step narrows them
    # until they are adjacent floats; there mid is lo or hi and is returned,
    # as the plain bisection's remaining steps would return 0.5 (lo + hi). A
    # midpoint at a bracket end is evaluated, and kl decides it as the
    # bracket would.
    while True:
        mid = 0.5 * (lo + hi)
        if mid < below:
            lo = mid
        elif mid > right:
            hi = mid
        elif mid == lo or mid == hi:
            return mid
        else:
            kl = (p_hat * log(p_hat / mid) if p_hat > 0.0 else 0.0) + c * log(c / (1.0 - mid))
            r = (0.0 if kl < 0.0 else kl) - B
            if abs(r) <= KL_INVERSE_RESIDUAL_TOL:
                return mid
            if r < 0:
                lo = mid
            else:
                hi = mid


def gap_from_kl(L_hat: float, B: float) -> float:
    """Gap implied by a kl-form bound: sqrt(2 L_hat B) + 2 B."""
    # written so that a NaN, which fails every comparison, is rejected
    if not (L_hat >= 0.0 and B >= 0.0):
        raise DomainError(f"L_hat and B must be nonnegative, got {L_hat} and {B}")
    return math.sqrt(2.0 * L_hat * B) + 2.0 * B


INVERSION_CONSTANT = 3.0 + 2.0 * math.sqrt(2.0)


def inversion_lemma(L_hat: float, A: float) -> float:
    """Upper bound on any L with L <= L_hat + 2 sqrt(L A) + A.

    Completing the square gives sqrt(L) <= sqrt(L_hat + 2A) + sqrt(A), so the
    largest admissible L is (sqrt(L_hat + 2A) + sqrt(A))^2; the returned
    relaxation L_hat + 2 sqrt(L_hat A) + (3 + 2 sqrt(2)) A dominates it, with
    equality at L_hat = 0. No smaller constant than 3 + 2 sqrt(2) makes the
    implication true (L = 5.5, L_hat = 0, A = 1 is a counterexample at 5).
    """
    if not (L_hat >= 0.0 and A >= 0.0):
        raise DomainError(f"L_hat and A must be nonnegative, got {L_hat} and {A}")
    return L_hat + 2.0 * math.sqrt(L_hat * A) + INVERSION_CONSTANT * A


# ---------------------------------------------------------------------------
# bounded-difference and Bernstein-type certificates

def bound_bounded_differences(b: float, c: float, n: int, delta: float) -> Certificate:
    """Gap bound b (c + sqrt(ln(1/delta) / 2n)) for bounded-difference Hamiltonians."""
    if _outside(b <= 0, c < 0, n < 1):
        raise DomainError("need b > 0, c >= 0, n >= 1")
    ld = _check_delta(delta)
    value = b * (c + math.sqrt(ld / (2.0 * n)))
    return Certificate("bounded_differences", value, delta, JOINT_DRAW,
                       {"b": b, "c": c, "n": n, "delta": delta})


def bound_mgf_bounded_differences(b: float, c: float, n: int, lam: float) -> float:
    """(n/8)(lambda b / n + 2c)^2, bounding the mixed log-MGF at lambda."""
    # written so that a NaN, which fails every comparison, is rejected
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    if not (0.0 < b < math.inf and 0.0 <= c < math.inf and n >= 1):
        raise DomainError(f"need b > 0, c >= 0, n >= 1 with b and c finite, got {b}, {c}, {n}")
    value = (n / 8.0) * _square(lam * b / n + 2.0 * c)
    if value == math.inf:
        raise DomainError(f"the bound at b={b}, c={c}, n={n}, lambda={lam} overflows")
    return value


def bound_bernstein(v: float, b: float, c: float, n: int, delta: float) -> Certificate:
    """Variance-sensitive gap bound 2 sqrt(v t) + b t with t = c^2 + ln(1/delta)/n."""
    if _outside(v < 0, b <= 0, c < 0, n < 1):
        raise DomainError("need v >= 0, b > 0, c >= 0, n >= 1")
    ld = _check_delta(delta)
    t = _square(c) + ld / n
    value = 2.0 * np.sqrt(v * t) + b * t
    return Certificate("bernstein", value, delta, JOINT_DRAW,
                       {"v": v, "b": b, "c": c, "n": n, "delta": delta})


def bound_empirical_bernstein(L_hat: float, b: float, c: float, n: int, delta: float) -> Certificate:
    """Empirical-error form: 2 sqrt(L_hat b t) + 5 b t with t = c^2 + ln(1/delta)/n."""
    if _outside(b <= 0, c < 0, n < 1):
        raise DomainError("need b > 0, c >= 0, n >= 1")
    # written so that a NaN, which fails every comparison, is rejected
    if not np.all((0.0 <= L_hat) & (L_hat <= b + 1e-12)):
        raise DomainError(f"L_hat must be in [0, b], got {L_hat}")
    ld = _check_delta(delta)
    t = _square(c) + ld / n
    value = 2.0 * np.sqrt(L_hat * b * t) + 5.0 * b * t
    return Certificate("empirical_bernstein", value, delta, JOINT_DRAW,
                       {"L_hat": L_hat, "b": b, "c": c, "n": n, "delta": delta})


def bound_subgaussian(rho_sup: float, rho_h: float, sigma: float, n: int,
                      delta: float) -> tuple[Certificate, Certificate]:
    """Two gap bounds for subgaussian losses and subgaussian Hamiltonians.

    First: rho_sup (2 sigma + sqrt(2 ln(1/delta)/n)), uniform over the class.
    Second: rho_h (sqrt(32) sigma + sqrt(4 ln(1/delta)/n)), scaling with the
    drawn hypothesis' own parameter.
    """
    if _outside(rho_sup < 0, rho_h < 0, sigma < 0, n < 1):
        raise DomainError("parameters must be nonnegative, n >= 1")
    if _outside(rho_h > rho_sup + 1e-12):
        raise DomainError("rho_h cannot exceed rho_sup")
    ld = _check_delta(delta)
    v1 = rho_sup * (2.0 * sigma + math.sqrt(2.0 * ld / n))
    v2 = rho_h * (math.sqrt(32.0) * sigma + math.sqrt(4.0 * ld / n))
    inputs = {"rho_sup": rho_sup, "rho_h": rho_h, "sigma": sigma, "n": n, "delta": delta}
    return (Certificate("subgaussian_sup", v1, delta, JOINT_DRAW, dict(inputs)),
            Certificate("subgaussian_h", v2, delta, JOINT_DRAW, dict(inputs)))


# ---------------------------------------------------------------------------
# Gaussian randomization of stable algorithms

def check_stability(c_A: float, sigma: float, n: int) -> None:
    """Raise StabilityPreconditionError unless 12 n c_A^2 <= sigma^2, the
    precondition of every Gaussian-kernel certificate, and DomainError unless
    sigma^2, which they divide by, is a normal float."""
    lhs, sigma2 = 12.0 * n * _square(c_A), _square(sigma)
    # written so that a NaN, which fails every comparison, is rejected
    if not np.all(lhs <= sigma2):
        raise StabilityPreconditionError(
            f"stability precondition 12 n c_A^2 <= sigma^2 fails: "
            f"12 * {n} * {c_A}^2 = {lhs} > {sigma2}"
        )
    if not np.all((sys.float_info.min <= sigma2) & (sigma2 < math.inf)):
        raise DomainError(f"sigma^2 = {sigma2} at sigma = {sigma} is not a normal float")


def bound_gaussian_randomization(V: float, sigma: float, n: int, delta: float,
                                 variant: str, c_A: float,
                                 v_h: float | None = None) -> Certificate:
    """Certificates for the Gaussian-kernel randomization of a stable algorithm.

    variant 'mgf': bound on ln E E e^{(n/2) kl(L_hat, L)} (no delta semantics).
    variant 'kl_expectation': posterior-expected kl(L_hat, L) bound.
    variant 'gap_joint': single-draw gap bound.
    variant 'gap_bernstein': single-draw gap bound using the drawn
    hypothesis' variance v_h.
    """
    # written so that a NaN, which fails every comparison, is rejected: c_A
    # does not enter the value and an infinite sigma gives a finite one, so
    # the value's finiteness check catches neither
    if _outside(V < 0, n < 1) or not np.all((0 < sigma) & (sigma < math.inf) & (c_A >= 0)):
        raise DomainError("need V >= 0, finite sigma > 0, n >= 1, c_A >= 0")
    check_stability(c_A, sigma, n)
    base = 3.0 / sigma**2 * V
    inputs = {"V": V, "sigma": sigma, "n": n, "delta": delta, "variant": variant,
              "c_A": c_A}
    if variant == "mgf":
        if n <= 8:
            raise DomainError("the kl moment bound requires n > 8")
        _check_delta(delta)
        value = base + 0.5 * math.log(2.0 * math.sqrt(n))
        return Certificate("gaussian_mgf", value, delta, POSTERIOR_EXPECTATION, inputs,
                           notes="log-moment bound; delta recorded but unused")
    ld = _check_delta(delta)
    if variant == "kl_expectation":
        if n <= 8:
            raise DomainError("the expected-kl bound requires n > 8")
        value = (2.0 * base + math.log(2.0 * math.sqrt(n)) + 2.0 * ld) / n
        return Certificate("gaussian_kl_expectation", value, delta,
                           POSTERIOR_EXPECTATION, inputs,
                           notes="bound is on the posterior-expected kl(L_hat, L)")
    if variant == "gap_joint":
        value = np.sqrt((base + ld) / n)
        return Certificate("gaussian_gap", value, delta, JOINT_DRAW, inputs)
    if variant == "gap_bernstein":
        if v_h is None or _outside(v_h < 0):
            raise DomainError("gap_bernstein needs the drawn hypothesis' variance v_h >= 0")
        t = (base + ld) / n
        value = 2.0 * np.sqrt(v_h * t) + t
        inputs = dict(inputs, v_h=v_h)
        return Certificate("gaussian_gap_bernstein", value, delta, JOINT_DRAW, inputs)
    raise DomainError(f"unknown Gaussian randomization variant {variant!r}")


# ---------------------------------------------------------------------------
# published baselines quoted for comparison

class BaselineSet(NamedTuple):
    rivasplata_gibbs: float
    rivasplata_kl_gibbs: float


def baselines(beta: float, n: int, delta: float) -> BaselineSet:
    """The comparison bounds from the literature, evaluated in closed form."""
    # written so that a NaN, which fails every comparison, is rejected
    if not (0.0 <= beta < math.inf and n >= 1):
        raise DomainError(f"need beta >= 0 and n >= 1 with beta finite, got {beta}, {n}")
    _check_delta(delta)
    gibbs = 4.0 * beta / n + (2.0 + math.log((1.0 + math.sqrt(math.e)) / delta)) / math.sqrt(n)
    kl_gibbs = (2.0 * _square(beta) / n**2
                + math.sqrt(2.0 * math.log(3.0)) * beta / n**1.5
                + math.log(4.0 * math.sqrt(n) / delta) / n)
    if kl_gibbs == math.inf:
        raise DomainError(f"the kl baseline at beta={beta}, n={n} overflows")
    return BaselineSet(rivasplata_gibbs=gibbs, rivasplata_kl_gibbs=kl_gibbs)
