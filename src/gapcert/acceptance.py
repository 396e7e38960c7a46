"""The acceptance suite, shared by the CLI `accept` subcommand and the test
module. Each criterion is a check that returns (passed, detail) and one line
of ALL_CRITERIA that names it; its number is its place there, and
run_criterion times the check. A new criterion is one such check and one line.

Every criterion is oracle- or property-based with explicit margins; the two
directly checkable numeric comparisons are asserted at absolute tolerance
1e-3. All randomness is seeded, so reruns are bit-identical.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import bounds as bd
from . import hamiltonian as ham
from . import verify as vf
from .config import gaussian_kernel_instance, random_gibbs_instance
from .hamiltonian import Gibbs, mean_embedding_algorithm
from .model import FiniteDataSpace, PriorWeights, generalization_gap


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _gibbs_instances(betas, num_seeds=5):
    """The standard tiny Gibbs family, |X| = 3 and m = 4: seeds x beta grid."""
    out = []
    for seed in range(num_seeds):
        space, loss = random_gibbs_instance(seed, 3, 4)
        for beta in betas:
            out.append((space, loss, Gibbs(beta=beta), seed))
    return out


def _judge_reports(reports, worst_of=None) -> tuple[bool, str]:
    """Passed when every report passes by its own rule; the worst margin is
    over all reports, or over worst_of = (label, subset) if nonempty."""
    failures = sum(not rep.passed for rep in reports)
    label, shown = worst_of if worst_of and worst_of[1] else ("", reports)
    worst = min(shown, key=lambda rep: rep.margin)
    return failures == 0, (f"{len(reports)} checks, {failures} failures, "
                           f"worst margin {worst.margin:.3e} ({worst.name}){label}")


def _named(prefix, reports):
    """The reports, each name prefixed with the instance it was checked on."""
    return [rep._replace(name=prefix + rep.name) for rep in reports]


def _judge_rates(delta, labelled_stats) -> tuple[bool, str]:
    """Passed when every labelled MethodStats passes the gate."""
    return (all(stats.passed(delta) for _, stats in labelled_stats),
            "; ".join(label + stats.summary(delta) for label, stats in labelled_stats))


def criterion_mgf_vs_bounded_differences() -> tuple[bool, str]:
    """Enumerated mixed log-MGF against the bounded-difference MGF bound."""
    n = 5
    reports = []
    for space, loss, spec, seed in _gibbs_instances(betas=(0.0, 1.0, float(n), 2.0 * n)):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        c, _ = ham.bounded_difference_coefficient(spec, space, loss, n)
        for lam in (0.1 * n, 0.5 * n, float(n), 2.0 * n):
            reports.append(vf.MomentCheckReport(
                name=f"seed{seed}_beta{spec.beta:g}_lam{lam:g}",
                lhs=vf.exact_mixed_mgf(spec, space, loss, prior, n, lam),
                rhs=bd.bound_mgf_bounded_differences(loss.bound_b, c, n, lam),
                regime="exact_enumeration"))
    return _judge_reports(reports)


def criterion_main_proposition() -> tuple[bool, str]:
    """Mixed log-MGF <= sup_h psi_F for the gap MGF and the compensated
    Bernstein function; the unit-MGF lemma checked exactly per hypothesis."""
    n, delta = 5, 0.05
    reports = []
    for space, loss, spec, seed in _gibbs_instances(betas=(0.0, 1.0, float(n), 2.0 * n)):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        lam = float(n)
        c = spec.beta * loss.bound_b / n
        F = vf.bernstein_f_factory(space, loss, n, c, delta)
        reports += _named(f"seed{seed}_beta{spec.beta:g}_", [
            vf.check_proposition_main(
                spec, space, loss, prior, n,
                lambda h, s: lam * generalization_gap(h, s, space, loss)),
            vf.check_proposition_main(spec, space, loss, prior, n, F, name="bernstein_F"),
            *vf.check_bernstein_unit_mgf(space, loss, n, c, delta)])
    return _judge_reports(reports)


def criterion_martingale_suite() -> tuple[bool, str]:
    """100 seeded random functions per centered-MGF case, zero failures."""
    space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.35, 0.65]))
    reports = [rep for case in ("i", "ii", "iii") for n in (2, 3)
               for rep in _named(f"n{n}_", vf.check_martingale_mgf(
                   space, n, case, num_trials=50, seed=100 + n))]
    return _judge_reports(reports)


def criterion_log_partition_differences() -> tuple[bool, str]:
    """|D ln Z| <= c and |D H_Q| <= 2c on 20 seeded Gibbs instances. The
    checks at beta = 0 (c = 0) show only 0 <= 0; the worst margin omits them."""
    n = 3
    reports = []
    for space, loss, spec, seed in _gibbs_instances(betas=(0.0, 1.0, float(n), 2.0 * n)):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        reports += _named(f"seed{seed}_beta{spec.beta:g}_", vf.check_logZ_bounded_differences(
            spec, space, loss, prior, n))
    positive = [rep for rep in reports if rep.rhs > 0.0]
    return _judge_reports(reports, worst_of=(
        f" over the {len(positive)} with c > 0; {len(reports) - len(positive)} with c = 0",
        positive))


GIBBS_SUITE_METHODS = ("bounded_differences", "bernstein", "empirical_bernstein")


def criterion_gibbs_violation_rates() -> tuple[bool, str]:
    """Standard Gibbs suite: Clopper-Pearson 99.9% upper bound <= delta."""
    delta, trials = 0.05, 5000
    space, loss = random_gibbs_instance(7, 10, 16)
    labelled = []
    for n in (50, 100):
        for beta in (5.0, 20.0):
            rep = vf.violation_rate_gibbs(space, loss, PriorWeights.uniform(16),
                                          beta, n, delta, GIBBS_SUITE_METHODS,
                                          trials, master_seed=9000 + int(beta) + n)
            labelled += [(f"n={n} beta={beta} ", stats) for stats in rep.per_method.values()]
    return _judge_rates(delta, labelled)


def criterion_gaussian_randomization() -> tuple[bool, str]:
    """Gaussian-kernel certificates: joint-draw rates plus the posterior
    expected-kl statement checked against a posterior average, at d = 2 the
    232-node Gauss-Hermite rule."""
    n, delta = 100, 0.05
    trials, kl_trials, posterior_draws = 5000, 200, 10_000  # draws read only beyond d = 3
    # the instance of configs/gaussian_mean_embedding.txt
    space, loss, spec = gaussian_kernel_instance(21, 8, 2, n, 0.5, "mean_embedding")
    rep = vf.violation_rate_gaussian(space, loss, spec.algorithm, spec.sigma, n, delta,
                                     ("gaussian_gap", "gaussian_gap_bernstein"),
                                     trials, master_seed=4242, posterior_draws=posterior_draws)
    rep_kl = vf.violation_rate_gaussian(space, loss, spec.algorithm, spec.sigma, n, delta,
                                        ("gaussian_kl_expectation",), kl_trials,
                                        master_seed=4243, posterior_draws=posterior_draws)
    labelled = [("", stats) for r in (rep, rep_kl) for stats in r.per_method.values()]
    return _judge_rates(delta, labelled)


def criterion_tightness() -> tuple[bool, str]:
    """The simple Gibbs bound beats the quoted baseline on the whole grid;
    two spot values recomputed in closed form at 1e-3 absolute."""
    rows = vf.tightness_report()
    ok = all(r.improvement_holds for r in rows)
    spot = bd.bound_bounded_differences(1.0, 100.0 / 10_000, 10_000, 0.05).value
    spot_base = bd.baselines(100.0, 10_000, 0.05).rivasplata_gibbs
    spot_ok = abs(spot - 0.02224) <= 1e-3 and abs(spot_base - 0.0997) <= 1e-3
    chain = vf.tightness_report(ns=(1000,), betas_of_n=lambda n: [30.0], deltas=(0.05,))
    chain_ok = all(entry["improvement_holds"]
                   for r in chain for entry in r.kl_chain.values())
    return ok and spot_ok and chain_ok, (
        f"grid {len(rows)} points all improved={ok}; spot=({spot:.5f}, "
        f"{spot_base:.5f}) ok={spot_ok}; kl-chain ok={chain_ok}")


def criterion_gaussian_identity() -> tuple[bool, str]:
    """The Gaussian shift identity by quadrature over d x lam x |v - w|/sigma,
    v - w off every axis; the largest relative error and its case are named."""
    sigma = 0.5
    reports = []
    for d in (1, 2, 5):
        w = np.linspace(-0.3, 0.4, d)
        direction = np.arange(1.0, d + 1.0)
        direction /= np.linalg.norm(direction)
        for lam in (1.0, 1.5, 2.0, 3.0):
            for ratio in (0.0, 0.5, 1.0, 2.0):
                rep = vf.check_gaussian_identity(w, w + ratio * sigma * direction, sigma, lam)
                reports.append(rep._replace(name=f"d{d}_lam{lam:g}_ratio{ratio:g}"))
    failures = sum(not rep.passed for rep in reports)
    worst = max(reports, key=lambda rep: rep.details["relative_error"])
    return failures == 0, (f"{len(reports)} checks, {failures} failures, worst relative "
                           f"error {worst.details['relative_error']:.1e} ({worst.name})")


def criterion_kl_utilities() -> tuple[bool, str]:
    """Inverter residuals, inversion-rule domination, inversion-lemma scan."""
    # residual grid: roots stay representably far from 1 (p <= 0.9, B <= 0.5),
    # where the bisection's 1e-10 residual target is attainable in float64
    worst_resid = 0.0
    p_grid = np.linspace(0.0, 0.9, 100)
    B_grid = np.linspace(1e-6, 0.5, 100)
    for p in p_grid:
        for B in B_grid:
            q = bd.kl_inverse_upper(float(p), float(B))
            if q < 1.0:
                worst_resid = max(worst_resid, abs(bd.kl_bernoulli(float(p), q) - B))
            else:
                # no root below 1: the divergence never reaches B
                if bd.kl_bernoulli(float(p), bd.KL_INVERSE_TOP) > B + 1e-10:
                    worst_resid = math.inf
    resid_ok = worst_resid <= bd.KL_INVERSE_RESIDUAL_TOL

    dominate_ok = True
    for lh in np.linspace(0.0, 1.0, 60):
        for B in np.linspace(0.0, 1.5, 60):
            exact_gap = bd.kl_inverse_upper(float(lh), float(B)) - lh
            if bd.gap_from_kl(float(lh), float(B)) < exact_gap - 1e-12:
                dominate_ok = False

    lemma_ok = True
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(200):
        lh = float(rng.uniform(0, 2))
        A = float(rng.uniform(0, 1))
        ub = bd.inversion_lemma(lh, A)
        for L in np.linspace(0.0, lh + 10.0 * (A + 1.0), 400):
            if L <= lh + 2.0 * math.sqrt(L * A) + A and L > ub + 1e-9:
                lemma_ok = False
    return resid_ok and dominate_ok and lemma_ok, (
        f"worst inverse residual {worst_resid:.2e}; rule dominates={dominate_ok}; "
        f"lemma scan ok={lemma_ok}")


def criterion_self_bounding_and_phi() -> tuple[bool, str]:
    """Self-bounding MGF bound by enumeration and the phi-function checks."""
    n = 4
    space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.4, 0.6]))
    phi_feats = np.array([[0.0, 0.0], [1.0, 0.25]])
    algorithm = mean_embedding_algorithm(phi_feats, n)
    sb_ok = all(r.passed for r in vf.check_self_bounding(space, n, algorithm))
    phi_rep = vf.check_phi_lemma()
    phi_ok = phi_rep["monotone_ok"] and phi_rep["dominated_ok"]
    phi_vals_ok = (abs(vf.phi(1.0) - (math.e - 2.0)) < 1e-12
                   and abs(vf.phi(1e-9) - 0.5) < 1e-6)
    return sb_ok and phi_ok and phi_vals_ok, (
        f"self-bounding ok={sb_ok}; phi monotone/dominated ok={phi_ok}")


# The criteria in order: a criterion's number is its place here, from 1.
ALL_CRITERIA = (
    ("mixed MGF vs bounded-difference MGF bound", criterion_mgf_vs_bounded_differences),
    ("main proposition and Bernstein unit-MGF oracle", criterion_main_proposition),
    ("martingale MGF oracle suite", criterion_martingale_suite),
    ("log-partition bounded differences", criterion_log_partition_differences),
    ("Gibbs certificate violation rates", criterion_gibbs_violation_rates),
    ("Gaussian randomization certificates", criterion_gaussian_randomization),
    ("tightness vs quoted baselines", criterion_tightness),
    ("Gaussian moment identity (quadrature)", criterion_gaussian_identity),
    ("kl utilities", criterion_kl_utilities),
    ("self-bounding and phi-function checks", criterion_self_bounding_and_phi),
)


def run_criterion(number: int) -> CriterionResult:
    """Run criterion number (its place in ALL_CRITERIA) and time its check."""
    name, check = ALL_CRITERIA[number - 1]
    t0 = time.perf_counter()
    passed, detail = check()
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def run_all() -> list[CriterionResult]:
    """Run every criterion at its full budgets, in this process."""
    return [run_criterion(number) for number in range(1, len(ALL_CRITERIA) + 1)]
