"""The array-based trial runs against a per-trial loop reference.

The reference below draws and scores one trial at a time, the way the
violation rates are defined: per trial t, the substream (master_seed, t),
n uniforms for X and one for h ~ Q_X, each certificate built from that one
draw, and running sums in trial order. Its Gibbs draw shares no code with
GibbsRun.draws; the reports must be equal, float for float.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from gapcert import bounds as bd
from gapcert import verify as vf
from gapcert.config import cosine_parametric_loss, random_gibbs_instance
from gapcert.hamiltonian import mean_embedding_algorithm
from gapcert.model import FiniteDataSpace, PriorWeights

GIBBS_METHODS = ("bounded_differences", "bernstein", "empirical_bernstein",
                 "subgaussian_sup", "subgaussian_h")
GAUSSIAN_METHODS = ("gaussian_gap", "gaussian_gap_bernstein", "gaussian_kl_expectation")


# ---------------------------------------------------------------------------
# per-trial reference

def ref_gibbs_draw(run, rng):
    """One Gibbs trial: n uniforms for X by inverse CDF, the posterior from
    the column-major gather's mean, then one uniform for h."""
    cdf = np.cumsum(run.space.probs)
    idx = np.searchsorted(cdf, rng.random(run.n), side="right").clip(0, run.space.size - 1)
    L_hat = run.table[:, idx].mean(axis=1)
    logw = -run.beta * L_hat + run.log_prior
    logw -= logsumexp(logw)
    w = np.exp(logw)
    w /= w.sum()
    h = int(np.searchsorted(np.cumsum(w), rng.random(), side="right").clip(0, len(w) - 1))
    return vf.Draw(idx, h, float(L_hat[h]), float(run.true_L[h]), float(run.variances[h]),
                   rho=float(run.rho[h]))


def ref_violation_rates(run, methods, trials, master_seed):
    chosen = [vf.SCENARIO_METHODS[m] for m in methods]
    counts = dict.fromkeys(methods, 0)
    bound_sums = dict.fromkeys(methods, 0.0)
    slack_sums = dict.fromkeys(methods, 0.0)
    gap_sum = 0.0
    for t in range(trials):
        rng = vf.substream(master_seed, t)
        draw = ref_gibbs_draw(run, rng) if isinstance(run, vf.GibbsRun) else run.draw(rng)
        built = [method.build(run, draw) for method in chosen]
        gap = draw.L - draw.L_hat
        gap_sum += gap
        for m, method, cert in zip(methods, chosen, built):
            target = gap if method.target == vf.GAP else run.posterior_kl(draw, rng)
            bound_sums[m] += cert.value
            slack_sums[m] += cert.value - target
            if target > cert.value:
                counts[m] += 1
    per_method = {m: vf.MethodStats(m, counts[m], trials, bound_sums[m] / trials,
                                    slack_sums[m] / trials) for m in methods}
    return vf.TrialReport(trials=trials, seed=master_seed, mean_gap=gap_sum / trials,
                          per_method=per_method)


def gibbs_case(seed, num_points, m, beta, n, probs=None, weights=None):
    space, loss = random_gibbs_instance(seed, num_points, m)
    if probs is not None:
        space = FiniteDataSpace(points=space.points, probs=np.array(probs))
    prior = PriorWeights(np.ones(m) if weights is None else np.array(weights, dtype=float))
    return space, loss, prior, beta, n


def assert_same_report(space, loss, prior, beta, n, trials, master_seed):
    run = vf.GibbsRun(space, loss, prior, beta, n, 0.05)
    got = vf.violation_rate_gibbs(space, loss, prior, beta, n, 0.05, GIBBS_METHODS,
                                  trials, master_seed)
    assert got == ref_violation_rates(run, GIBBS_METHODS, trials, master_seed)
    assert all(type(s.mean_bound) is float and type(s.violations) is int
               for s in got.per_method.values())


# ---------------------------------------------------------------------------
# Gibbs runs

class TestGibbsRuns:
    @pytest.mark.parametrize("n,beta,trials,master_seed", [
        (7, 1.0, 500, 0), (50, 5.0, 500, 9055), (100, 20.0, 300, 3),
        (7, 20.0, 2000, 2**64 - 1), (50, 1.0, 300, 2**63 + 1),
    ])
    def test_random_instances(self, n, beta, trials, master_seed):
        assert_same_report(*gibbs_case(41, 10, 16, beta, n), trials, master_seed)

    def test_zero_probability_point(self):
        case = gibbs_case(5, 4, 6, 5.0, 9, probs=[0.3, 0.0, 0.5, 0.2])
        assert_same_report(*case, trials=300, master_seed=1)

    def test_zero_prior_weight(self):
        case = gibbs_case(6, 5, 4, 8.0, 10, weights=[1.0, 0.0, 2.0, 0.0])
        assert_same_report(*case, trials=300, master_seed=2)

    def test_beta_zero_n_one(self):
        assert_same_report(*gibbs_case(7, 3, 5, 0.0, 1), trials=200, master_seed=3)

    def test_one_trial(self):
        assert_same_report(*gibbs_case(8, 6, 8, 5.0, 20), trials=1, master_seed=4)

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_one_hypothesis(self, n):
        """A one-row gather is contiguous, and numpy sums its mean pairwise."""
        assert_same_report(*gibbs_case(9, 5, 1, 2.0, n), trials=100, master_seed=5)

    def test_many_chunks(self, monkeypatch):
        """Sums carried across chunks add the trials in the loop's order."""
        monkeypatch.setattr(vf, "TRIAL_CHUNK", 7)
        assert_same_report(*gibbs_case(11, 10, 16, 5.0, 30), trials=100, master_seed=7)

    def test_draw_is_row_zero(self):
        """Consecutive draws from one generator each read n + 1 uniforms."""
        space, loss, prior, beta, n = gibbs_case(12, 6, 5, 4.0, 9)
        run = vf.GibbsRun(space, loss, prior, beta, n, 0.05)
        rng_a = np.random.Generator(np.random.Philox(key=13))
        rng_b = np.random.Generator(np.random.Philox(key=13))
        for _ in range(50):
            a, b = run.draw(rng_a), ref_gibbs_draw(run, rng_b)
            assert np.array_equal(a.idx, b.idx)
            assert (a.h, a.L_hat, a.L, a.v, a.rho) == (b.h, b.L_hat, b.L, b.v, b.rho)


class TestGaussianRuns:
    def test_matches_loop_across_chunks(self, monkeypatch):
        monkeypatch.setattr(vf, "TRIAL_CHUNK", 4)
        rng = np.random.Generator(np.random.Philox(key=21))
        phi_table = rng.uniform(-0.5, 0.5, size=(6, 2))
        space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(6)),
                                probs=np.full(6, 1.0 / 6))
        loss = cosine_parametric_loss(phi_table)
        algo = mean_embedding_algorithm(phi_table, 100)
        run = vf.GaussianRun(space, loss, algo, 0.5, 100, 0.05, posterior_draws=50)
        got = vf.violation_rate_gaussian(space, loss, algo, 0.5, 100, 0.05,
                                         GAUSSIAN_METHODS, 10, 8, posterior_draws=50)
        assert got == ref_violation_rates(run, GAUSSIAN_METHODS, 10, 8)


# ---------------------------------------------------------------------------
# certify: trial 0 as Python floats

class TestCertificates:
    def test_trial_zero_as_floats(self):
        space, loss, prior, beta, n = gibbs_case(14, 10, 16, 5.0, 50)
        run = vf.GibbsRun(space, loss, prior, beta, n, 0.05)
        certs = vf.certificates(run, GIBBS_METHODS, 9055)
        draw = ref_gibbs_draw(run, vf.substream(9055, 0))
        want = [vf.SCENARIO_METHODS[m].build(run, draw) for m in GIBBS_METHODS]
        assert certs == want
        for cert in certs:
            assert type(cert.value) is float
            assert all(not isinstance(v, np.generic) for v in cert.inputs.values())
            assert "np." not in cert.serialize()
            assert bd.recompute(cert) == cert


# ---------------------------------------------------------------------------
# the builders see bd at call time

def test_bound_lookup_traced(monkeypatch):
    """A replaced bd.bound_bernstein sees the run's calls."""
    calls = []
    original = bd.bound_bernstein

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bd, "bound_bernstein", record)
    space, loss, prior, beta, n = gibbs_case(15, 4, 3, 2.0, 5)
    vf.violation_rate_gibbs(space, loss, prior, beta, n, 0.05, ("bernstein",), 20, 0)
    assert calls
