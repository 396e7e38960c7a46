"""The acceptance suite: one function per criterion, shared by the CLI
`accept` subcommand and the test module.

Every criterion is oracle- or property-based with explicit margins; the two
directly checkable numeric comparisons are asserted at absolute tolerance
1e-3. All randomness is seeded, so reruns are bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import hamiltonian as ham
from . import verify as vf
from .config import cosine_parametric_loss, random_gibbs_instance
from .hamiltonian import Gibbs, mean_embedding_algorithm
from .model import FiniteDataSpace, PriorWeights, generalization_gap


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number, name, passed, detail, t0) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def _gibbs_instances(num_seeds=5, betas=(0.0, 1.0, 5.0, 5.0), num_points=3, n=5,
                     num_hypotheses=4):
    """The standard tiny Gibbs family: seeds x beta grid, beta = n included."""
    out = []
    for seed in range(num_seeds):
        space, loss = random_gibbs_instance(seed, num_points, num_hypotheses)
        for beta in betas:
            out.append((space, loss, Gibbs(beta=beta), seed))
    return out


def criterion_mgf_vs_bounded_differences() -> CriterionResult:
    """Enumerated mixed log-MGF against the bounded-difference MGF bound."""
    t0 = time.perf_counter()
    n = 5
    worst = math.inf
    for space, loss, spec, _ in _gibbs_instances(betas=(0.0, 1.0, 5.0, float(n))):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        c, regime = ham.bounded_difference_coefficient(spec, space, loss, n)
        assert regime == "exhaustive"
        for lam in (0.1 * n, 0.5 * n, float(n), 2.0 * n):
            lhs = vf.exact_mixed_mgf(spec, space, loss, prior, n, lam)
            rhs = bd.bound_mgf_bounded_differences(loss.bound_b, c, n, lam)
            worst = min(worst, rhs - lhs)
    return _result(1, "mixed MGF vs bounded-difference MGF bound",
                   worst >= vf.EXACT_MARGIN_TOL, f"worst margin {worst:.3e}", t0)


def criterion_main_proposition() -> CriterionResult:
    """Mixed log-MGF <= sup_h psi_F for the gap MGF and the compensated
    Bernstein function; the unit-MGF lemma checked exactly per hypothesis."""
    t0 = time.perf_counter()
    n, delta = 5, 0.05
    worst = math.inf
    for space, loss, spec, _ in _gibbs_instances(betas=(0.0, 1.0, 5.0, float(n))):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        lam = float(n)
        rep = vf.check_proposition_main(
            spec, space, loss, prior, n,
            lambda h, s: lam * generalization_gap(h, s, space, loss))
        worst = min(worst, rep.margin)
        c = spec.beta * loss.bound_b / n
        F = vf.bernstein_f_factory(space, loss, n, c, delta)
        rep = vf.check_proposition_main(spec, space, loss, prior, n, F,
                                        name="bernstein_F")
        worst = min(worst, rep.margin)
        for unit in vf.check_bernstein_unit_mgf(space, loss, n, c, delta):
            worst = min(worst, unit.margin)
    return _result(2, "main proposition and Bernstein unit-MGF oracle",
                   worst >= vf.EXACT_MARGIN_TOL, f"worst margin {worst:.3e}", t0)


def criterion_martingale_suite() -> CriterionResult:
    """100 seeded random functions per centered-MGF case, zero failures."""
    t0 = time.perf_counter()
    space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.35, 0.65]))
    failures = 0
    total = 0
    worst = math.inf
    for case in ("i", "ii", "iii"):
        for n in (2, 3):
            for rep in vf.check_martingale_mgf(space, n, case, num_trials=50,
                                               seed=100 + n):
                total += 1
                worst = min(worst, rep.margin)
                if not rep.passed:
                    failures += 1
    return _result(3, "martingale MGF oracle suite", failures == 0,
                   f"{total} checks, {failures} failures, worst margin {worst:.3e}", t0)


def criterion_log_partition_differences() -> CriterionResult:
    """|D ln Z| <= c and |D H_Q| <= 2c on 20 seeded Gibbs instances."""
    t0 = time.perf_counter()
    n = 3
    failures = 0
    for space, loss, spec, _ in _gibbs_instances(betas=(0.0, 1.0, float(n), 2.0 * n),
                                                 n=n):
        prior = PriorWeights.uniform(loss.num_hypotheses)
        for rep in vf.check_logZ_bounded_differences(spec, space, loss, prior, n):
            if not rep.passed:
                failures += 1
    return _result(4, "log-partition bounded differences", failures == 0,
                   f"{failures} failures over 20 instances", t0)


GIBBS_SUITE_METHODS = ("bounded_differences", "bernstein", "empirical_bernstein")


def criterion_gibbs_violation_rates(trials=5000) -> CriterionResult:
    """Standard Gibbs suite: Clopper-Pearson 99.9% upper bound <= delta."""
    t0 = time.perf_counter()
    delta = 0.05
    lines = []
    ok = True
    space, loss = random_gibbs_instance(7, 10, 16)
    for n in (50, 100):
        for beta in (5.0, 20.0):
            rep = vf.violation_rate_gibbs(space, loss, PriorWeights.uniform(16),
                                          beta, n, delta, GIBBS_SUITE_METHODS,
                                          trials, master_seed=9000 + int(beta) + n)
            for m, stats in rep.per_method.items():
                cp = stats.clopper_pearson_upper
                if cp > delta:
                    ok = False
                lines.append(f"n={n} beta={beta} {m}: viol={stats.violations}/{trials} "
                             f"cp={cp:.4f}")
    return _result(5, "Gibbs certificate violation rates", ok, "; ".join(lines), t0)


def _gaussian_scenario(n=100, num_points=8, dim=2, sigma=0.5, seed=21):
    rng = np.random.Generator(np.random.Philox(key=seed))
    probs = rng.dirichlet(np.ones(num_points))
    space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)),
                            probs=probs)
    phi = rng.uniform(-0.5, 0.5, size=(num_points, dim))
    algorithm = mean_embedding_algorithm(phi, n)
    feats = rng.uniform(-1.0, 1.0, size=(num_points, dim))
    loss = cosine_parametric_loss(feats)
    bd.check_stability(algorithm.declared_c_A, sigma, n)
    return space, loss, algorithm, sigma


def criterion_gaussian_randomization(trials=5000, kl_trials=200,
                                     posterior_draws=10_000) -> CriterionResult:
    """Gaussian-kernel certificates: joint-draw rates plus the posterior
    expected-kl statement checked against a posterior average."""
    t0 = time.perf_counter()
    n, delta = 100, 0.05
    space, loss, algorithm, sigma = _gaussian_scenario(n=n)
    rep = vf.violation_rate_gaussian(space, loss, algorithm, sigma, n, delta,
                                     ("gaussian_gap", "gaussian_gap_bernstein"),
                                     trials, master_seed=4242)
    lines = []
    ok = True
    for m, stats in rep.per_method.items():
        cp = stats.clopper_pearson_upper
        if cp > delta:
            ok = False
        lines.append(f"{m}: viol={stats.violations}/{trials} cp={cp:.4f}")
    rep2 = vf.violation_rate_gaussian(space, loss, algorithm, sigma, n, delta,
                                      ("gaussian_kl_expectation",), kl_trials,
                                      master_seed=4243, posterior_draws=posterior_draws)
    stats = rep2.per_method["gaussian_kl_expectation"]
    cp = stats.clopper_pearson_upper
    if cp > delta:
        ok = False
    lines.append(f"gaussian_kl_expectation: viol={stats.violations}/{kl_trials} "
                 f"cp={cp:.4f}")
    return _result(6, "Gaussian randomization certificates", ok, "; ".join(lines), t0)


def criterion_tightness() -> CriterionResult:
    """The simple Gibbs bound beats the quoted baseline on the whole grid;
    two spot values recomputed in closed form at 1e-3 absolute."""
    t0 = time.perf_counter()
    rows = vf.tightness_report(
        ns=(100, 1000, 10_000),
        betas_of_n=lambda n: [0.0, math.sqrt(n), n / 10.0],
        deltas=(0.5, 0.05, 0.01))
    ok = all(r.improvement_holds for r in rows)
    spot = bd.bound_bounded_differences(1.0, 100.0 / 10_000, 10_000, 0.05).value
    spot_base = bd.baselines(100.0, 10_000, 0.05).rivasplata_gibbs
    spot_ok = abs(spot - 0.02224) <= 1e-3 and abs(spot_base - 0.0997) <= 1e-3
    chain = vf.tightness_report(ns=(1000,), betas_of_n=lambda n: [30.0],
                                deltas=(0.05,), L_hats=(0.0, 0.1, 0.3))
    chain_ok = all(entry["improvement_holds"]
                   for r in chain for entry in r.kl_chain.values())
    passed = ok and spot_ok and chain_ok
    return _result(7, "tightness vs quoted baselines", passed,
                   f"grid {len(rows)} points all improved={ok}; spot=({spot:.5f}, "
                   f"{spot_base:.5f}) ok={spot_ok}; kl-chain ok={chain_ok}", t0)


def criterion_gaussian_identity(mc_samples=1_000_000) -> CriterionResult:
    """MC check of the Gaussian shift identity: 1% relative or 4 MC stderr."""
    t0 = time.perf_counter()
    ok = True
    lines = []
    for d in (1, 2, 5):
        for lam in (1.0, 1.5):
            for ratio in (0.0, 0.5, 1.0):
                sigma = 1.0
                w = np.zeros(d)
                v = np.zeros(d)
                if d > 0:
                    v[0] = ratio * sigma
                rep = vf.check_gaussian_identity(w, v, sigma, lam, mc_samples,
                                                 seed=int(1000 * lam) + 10 * d + int(10 * ratio))
                if not rep.passed:
                    ok = False
                    lines.append(f"d={d} lam={lam} ratio={ratio}: "
                                 f"rel={rep.details['relative_error']:.4f} "
                                 f"se={rep.stderr:.4f}")
    detail = "all within 1% or 4 se" if ok else "; ".join(lines)
    return _result(8, "Gaussian moment identity (MC)", ok, detail, t0)


def criterion_kl_utilities() -> CriterionResult:
    """Inverter residuals, inversion-rule domination, inversion-lemma scan."""
    t0 = time.perf_counter()
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
                if bd.kl_bernoulli(float(p), 1.0 - 1e-15) > B + 1e-10:
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
    passed = resid_ok and dominate_ok and lemma_ok
    return _result(9, "kl utilities",
                   passed,
                   f"worst inverse residual {worst_resid:.2e}; rule dominates={dominate_ok}; "
                   f"lemma scan ok={lemma_ok}", t0)


def criterion_self_bounding_and_phi() -> CriterionResult:
    """Self-bounding MGF bound by enumeration and the phi-function checks."""
    t0 = time.perf_counter()
    n = 4
    space = FiniteDataSpace(points=("a", "b"), probs=np.array([0.4, 0.6]))
    phi_feats = np.array([[0.0, 0.0], [1.0, 0.25]])
    algorithm = mean_embedding_algorithm(phi_feats, n)
    reports = vf.check_self_bounding(space, n, algorithm,
                                     lam_fractions=(0.05, 0.1, 0.25, 0.5, 0.9))
    sb_ok = all(r.passed for r in reports)
    phi_rep = vf.check_phi_lemma()
    phi_ok = phi_rep["monotone_ok"] and phi_rep["dominated_ok"]
    phi_vals_ok = (abs(vf.phi(1.0) - (math.e - 2.0)) < 1e-12
                   and abs(vf.phi(1e-9) - 0.5) < 1e-6)
    passed = sb_ok and phi_ok and phi_vals_ok
    return _result(10, "self-bounding and phi-function checks", passed,
                   f"self-bounding ok={sb_ok}; phi monotone/dominated ok={phi_ok}", t0)


ALL_CRITERIA = (
    criterion_mgf_vs_bounded_differences,
    criterion_main_proposition,
    criterion_martingale_suite,
    criterion_log_partition_differences,
    criterion_gibbs_violation_rates,
    criterion_gaussian_randomization,
    criterion_tightness,
    criterion_gaussian_identity,
    criterion_kl_utilities,
    criterion_self_bounding_and_phi,
)


def run_all(jobs: int = 1) -> list[CriterionResult]:
    """Run every criterion at its full budgets. All randomness is seeded per
    criterion, so jobs > 1 changes nothing but wall-clock time."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(fn) for fn in ALL_CRITERIA]
            return [f.result() for f in futures]
    return [fn() for fn in ALL_CRITERIA]
