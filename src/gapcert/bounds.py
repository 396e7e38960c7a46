"""Closed-form generalization certificates, kl utilities and baselines.

Every bound is returned as a Certificate carrying the method tag, the
numeric value, the confidence level, the scope of the probabilistic
statement (a single joint draw of sample and hypothesis, or the posterior
expectation) and a snapshot of all inputs sufficient to recompute the value
bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

JOINT_DRAW = "joint_draw"
POSTERIOR_EXPECTATION = "posterior_expectation"

# floor applied to the KL term inside ln(2 KL / delta) of the model-selection
# gap bound, which is otherwise undefined at KL = 0
KL_FLOOR = 0.5


class DomainError(ValueError):
    """A certificate parameter is outside its stated domain."""


class StabilityPreconditionError(ValueError):
    """The kernel-randomization stability requirement 12 n c_A^2 <= sigma^2 fails."""


def _check_delta(delta: float) -> float:
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in the open interval (0,1), got {delta}")
    return math.log(1.0 / delta)


@dataclass(frozen=True)
class Certificate:
    method: str
    value: float
    delta: float
    scope: str
    inputs: dict
    notes: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"certificate value must be finite, got {self.value}")

    def serialize(self) -> str:
        """One line: method, value, delta, scope, then key=value input pairs."""
        parts = [self.method, repr(self.value), repr(self.delta), self.scope]
        for k in sorted(self.inputs):
            parts.append(f"{k}={self.inputs[k]!r}")
        if self.notes:
            parts.append(f"notes={self.notes!r}")
        return " ".join(parts)


def recompute(cert: Certificate) -> Certificate:
    """Re-run the certificate's method on its recorded inputs."""
    fn = _METHODS[cert.method]
    return fn(**cert.inputs)


# ---------------------------------------------------------------------------
# kl utilities

def kl_bernoulli(s: float, t: float) -> float:
    """Relative entropy of Bernoulli(s) from Bernoulli(t); 0 ln 0 = 0."""
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"s must be in [0,1], got {s}")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must be in [0,1], got {t}")
    if t in (0.0, 1.0):
        return 0.0 if s == t else math.inf
    out = 0.0
    if s > 0.0:
        out += s * math.log(s / t)
    if s < 1.0:
        out += (1.0 - s) * math.log((1.0 - s) / (1.0 - t))
    return max(out, 0.0)


KL_INVERSE_RESIDUAL_TOL = 1e-10
_KL_INVERSE_MAX_ITER = 200


def kl_inverse_upper(p_hat: float, B: float) -> float:
    """The q in [p_hat, 1) with kl(p_hat, q) = B, or 1 if no root below 1.

    Bisection on [p_hat, 1 - 1e-15] to residual 1e-10.
    """
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
    for _ in range(_KL_INVERSE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = kl_bernoulli(p_hat, mid) - B
        if abs(r) <= KL_INVERSE_RESIDUAL_TOL:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gap_from_kl(L_hat: float, B: float) -> float:
    """Gap implied by a kl-form bound: sqrt(2 L_hat B) + 2 B."""
    if B < 0:
        raise DomainError("B must be nonnegative")
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
    if L_hat < 0 or A < 0:
        raise DomainError("arguments must be nonnegative")
    return L_hat + 2.0 * math.sqrt(L_hat * A) + INVERSION_CONSTANT * A


# ---------------------------------------------------------------------------
# bounded-difference and Bernstein-type certificates

def bound_bounded_differences(b: float, c: float, n: int, delta: float) -> Certificate:
    """Gap bound b (c + sqrt(ln(1/delta) / 2n)) for bounded-difference Hamiltonians."""
    if b <= 0 or c < 0 or n < 1:
        raise DomainError("need b > 0, c >= 0, n >= 1")
    ld = _check_delta(delta)
    value = b * (c + math.sqrt(ld / (2.0 * n)))
    return Certificate("bounded_differences", value, delta, JOINT_DRAW,
                       {"b": b, "c": c, "n": n, "delta": delta})


def bound_mgf_bounded_differences(b: float, c: float, n: int, lam: float) -> float:
    """(n/8)(lambda b / n + 2c)^2, bounding the mixed log-MGF at lambda."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if b <= 0 or c < 0 or n < 1:
        raise DomainError("need b > 0, c >= 0, n >= 1")
    return (n / 8.0) * (lam * b / n + 2.0 * c) ** 2


def bound_bernstein(v: float, b: float, c: float, n: int, delta: float) -> Certificate:
    """Variance-sensitive gap bound 2 sqrt(v t) + b t with t = c^2 + ln(1/delta)/n."""
    if v < 0 or b <= 0 or c < 0 or n < 1:
        raise DomainError("need v >= 0, b > 0, c >= 0, n >= 1")
    ld = _check_delta(delta)
    t = c**2 + ld / n
    value = 2.0 * math.sqrt(v * t) + b * t
    return Certificate("bernstein", value, delta, JOINT_DRAW,
                       {"v": v, "b": b, "c": c, "n": n, "delta": delta})


def bound_empirical_bernstein(L_hat: float, b: float, c: float, n: int, delta: float) -> Certificate:
    """Empirical-error form: 2 sqrt(L_hat b t) + 5 b t with t = c^2 + ln(1/delta)/n."""
    if b <= 0 or c < 0 or n < 1:
        raise DomainError("need b > 0, c >= 0, n >= 1")
    if not (0.0 <= L_hat <= b + 1e-12):
        raise DomainError(f"L_hat must be in [0, b], got {L_hat}")
    ld = _check_delta(delta)
    t = c**2 + ld / n
    value = 2.0 * math.sqrt(L_hat * b * t) + 5.0 * b * t
    return Certificate("empirical_bernstein", value, delta, JOINT_DRAW,
                       {"L_hat": L_hat, "b": b, "c": c, "n": n, "delta": delta})


def bound_subgaussian(rho_sup: float, rho_h: float, sigma: float, n: int,
                      delta: float) -> tuple[Certificate, Certificate]:
    """Two gap bounds for subgaussian losses and subgaussian Hamiltonians.

    First: rho_sup (2 sigma + sqrt(2 ln(1/delta)/n)), uniform over the class.
    Second: rho_h (sqrt(32) sigma + sqrt(4 ln(1/delta)/n)), scaling with the
    drawn hypothesis' own parameter.
    """
    if rho_sup < 0 or rho_h < 0 or sigma < 0 or n < 1:
        raise DomainError("parameters must be nonnegative, n >= 1")
    if rho_h > rho_sup + 1e-12:
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
    precondition of every Gaussian-kernel certificate."""
    if 12.0 * n * c_A**2 > sigma**2:
        raise StabilityPreconditionError(
            f"stability precondition 12 n c_A^2 <= sigma^2 fails: "
            f"12 * {n} * {c_A}^2 = {12 * n * c_A**2} > {sigma**2}"
        )


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
    if V < 0 or sigma <= 0 or n < 1 or c_A < 0:
        raise DomainError("need V >= 0, sigma > 0, n >= 1, c_A >= 0")
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
        value = math.sqrt((base + ld) / n)
        return Certificate("gaussian_gap", value, delta, JOINT_DRAW, inputs)
    if variant == "gap_bernstein":
        if v_h is None or v_h < 0:
            raise DomainError("gap_bernstein needs the drawn hypothesis' variance v_h >= 0")
        t = (base + ld) / n
        value = 2.0 * math.sqrt(v_h * t) + t
        inputs = dict(inputs, v_h=v_h)
        return Certificate("gaussian_gap_bernstein", value, delta, JOINT_DRAW, inputs)
    raise DomainError(f"unknown Gaussian randomization variant {variant!r}")


# ---------------------------------------------------------------------------
# PAC-Bayes with the algorithm's posterior as data-dependent prior

def pac_bayes_transfer(kl_PQ: float, log_moment: float, delta: float) -> Certificate:
    """KL(P,Q) + log moment + ln(1/delta): the generic transfer to any P."""
    if kl_PQ < 0:
        raise DomainError("KL divergence must be nonnegative")
    ld = _check_delta(delta)
    value = kl_PQ + log_moment + ld
    return Certificate("pac_bayes_transfer", value, delta, POSTERIOR_EXPECTATION,
                       {"kl_PQ": kl_PQ, "log_moment": log_moment, "delta": delta},
                       notes="bounds E_P[F]; F and its scaling are the caller's")


def pac_bayes_gaussian_kl(kl_PQ: float, V: float, sigma: float, n: int, delta: float,
                          c_A: float) -> Certificate:
    """Expected-kl PAC-Bayes bound for the Gaussian-kernel prior."""
    if kl_PQ < 0:
        raise DomainError("KL divergence must be nonnegative")
    if V < 0 or sigma <= 0 or c_A < 0:
        raise DomainError("need V >= 0, sigma > 0, c_A >= 0")
    if n <= 8:
        raise DomainError("requires n > 8")
    check_stability(c_A, sigma, n)
    ld = _check_delta(delta)
    value = (2.0 * kl_PQ + 6.0 / sigma**2 * V + math.log(2.0 * math.sqrt(n)) + 2.0 * ld) / n
    return Certificate("pac_bayes_gaussian_kl", value, delta, POSTERIOR_EXPECTATION,
                       {"kl_PQ": kl_PQ, "V": V, "sigma": sigma, "n": n,
                        "delta": delta, "c_A": c_A},
                       notes="bound is on E_P[kl(L_hat, L)]")


def pac_bayes_model_selection(kl_PQ: float, V: float, sigma: float, n: int, delta: float,
                              variant: str, c_A: float, E_P_v: float | None = None,
                              b: float | None = None) -> Certificate:
    """Model-selection PAC-Bayes bounds valid simultaneously for all P.

    gap variant: sqrt(((3/sigma^2)V + 2 KL + ln(2 max(KL, 1/2)/delta)) / n).
    The KL floor of 1/2 keeps the log argument at least 1/delta and is
    recorded in the notes.

    variance variant: the Bernstein-flavored form with
    C = 2 KL + 1 + ln(2(KL+1) * 2(n E_P[v] + 1) / delta).
    """
    if kl_PQ < 0:
        raise DomainError("KL divergence must be nonnegative")
    if V < 0 or sigma <= 0 or n < 1 or c_A < 0:
        raise DomainError("need V >= 0, sigma > 0, n >= 1, c_A >= 0")
    check_stability(c_A, sigma, n)
    ld = _check_delta(delta)
    base = 3.0 / sigma**2 * V
    inputs = {"kl_PQ": kl_PQ, "V": V, "sigma": sigma, "n": n, "delta": delta,
              "variant": variant, "c_A": c_A}
    if variant == "gap":
        value = math.sqrt(
            (base + 2.0 * kl_PQ + math.log(2.0 * max(kl_PQ, KL_FLOOR) / delta)) / n
        )
        return Certificate("pac_bayes_selection_gap", value, delta,
                           POSTERIOR_EXPECTATION, inputs,
                           notes=f"KL floored at {KL_FLOOR} inside the logarithm")
    if variant == "variance":
        if E_P_v is None or E_P_v < 0:
            raise DomainError("variance variant needs E_P_v >= 0")
        C = 2.0 * kl_PQ + 1.0 + math.log(
            2.0 * (kl_PQ + 1.0) * 2.0 * (n * E_P_v + 1.0) / delta
        )
        t = (base + C) / n
        value = 2.0 * math.sqrt((2.0 * E_P_v + 1.0 / n) * t) + t
        inputs = dict(inputs, E_P_v=E_P_v)
        return Certificate("pac_bayes_selection_variance", value, delta,
                           POSTERIOR_EXPECTATION, inputs)
    raise DomainError(f"unknown model-selection variant {variant!r}")


# ---------------------------------------------------------------------------
# published baselines quoted for comparison

@dataclass(frozen=True)
class BaselineSet:
    rivasplata_gibbs: float
    rivasplata_kl_gibbs: float
    rivasplata_gaussian: float | None = None


def baselines(beta: float, n: int, delta: float,
              gauss_inputs: dict | None = None) -> BaselineSet:
    """The comparison bounds from the literature, evaluated in closed form.

    gauss_inputs, when given, must carry c_A and sigma for the Gaussian
    randomization baseline.
    """
    if beta < 0 or n < 1:
        raise DomainError("need beta >= 0 and n >= 1")
    _check_delta(delta)
    gibbs = 4.0 * beta / n + (2.0 + math.log((1.0 + math.sqrt(math.e)) / delta)) / math.sqrt(n)
    kl_gibbs = (2.0 * beta**2 / n**2
                + math.sqrt(2.0 * math.log(3.0)) * beta / n**1.5
                + math.log(4.0 * math.sqrt(n) / delta) / n)
    gaussian = None
    if gauss_inputs is not None:
        c_A, sigma = float(gauss_inputs["c_A"]), float(gauss_inputs["sigma"])
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        gaussian = (
            n * c_A**2 / (2.0 * sigma**2)
            * (1.0 + math.sqrt(0.5 * math.log(1.0 / delta))) ** 2
            + math.log(2.0 * math.sqrt(n) / delta)
        ) / n
    return BaselineSet(rivasplata_gibbs=gibbs, rivasplata_kl_gibbs=kl_gibbs,
                       rivasplata_gaussian=gaussian)


_METHODS = {
    "bounded_differences": bound_bounded_differences,
    "bernstein": bound_bernstein,
    "empirical_bernstein": bound_empirical_bernstein,
    "subgaussian_sup": lambda **kw: bound_subgaussian(**kw)[0],
    "subgaussian_h": lambda **kw: bound_subgaussian(**kw)[1],
    "gaussian_mgf": bound_gaussian_randomization,
    "gaussian_kl_expectation": bound_gaussian_randomization,
    "gaussian_gap": bound_gaussian_randomization,
    "gaussian_gap_bernstein": bound_gaussian_randomization,
    "pac_bayes_transfer": pac_bayes_transfer,
    "pac_bayes_gaussian_kl": pac_bayes_gaussian_kl,
    "pac_bayes_selection_gap": pac_bayes_model_selection,
    "pac_bayes_selection_variance": pac_bayes_model_selection,
}
