"""The array-based trial runs against a per-trial loop reference.

The reference below draws and scores one trial at a time, the way the
violation rates are defined: per trial t, the substream (master_seed, t),
then for a Gibbs trial n uniforms for X and one for h ~ Q_X, for a
Gaussian-kernel trial n uniforms for X and d normals for h, and its
posterior-expected kl by the run's fixed rule (a tensor Gauss-Hermite rule at
d <= 3, built here node by node, and posterior_draws normals of a PCG64
generator seeded 0 beyond, built here on their own), the cosine losses of its
points summed by angle addition on the trial alone; each certificate built
from that one draw, and running sums in trial order. Its draws share no code
with GibbsRun and GaussianRun; the reports must be equal, float for float.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import logsumexp

from gapcert import bounds as bd
from gapcert import verify as vf
from gapcert.config import gaussian_kernel_instance, random_gibbs_instance
from gapcert.hamiltonian import constant_algorithm, mean_embedding_algorithm
from gapcert.model import CosineLoss, FiniteDataSpace, PriorWeights, row_products

GIBBS_METHODS = ("bounded_differences", "bernstein", "empirical_bernstein",
                 "subgaussian_sup", "subgaussian_h")
GAUSSIAN_METHODS = ("gaussian_gap", "gaussian_gap_bernstein", "gaussian_kl_expectation")
# the nodes the posterior-expected kl's tensor rule keeps, by dimension
RULE_POINTS = {1: 18, 2: 232, 3: 2632}


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


def ref_kl_rule(d, floor=None):
    """The tensor rule of the posterior-expected kl at d <= 3, node by node:
    the rule vf.KL_NODES, vf.KL_WEIGHTS on each axis in itertools.product
    order, each node's product of weights, and the nodes that weigh at least
    floor (by default vf.KL_NODE_FLOOR) of the total, with their weights
    normalized to sum 1."""
    floor = vf.KL_NODE_FLOOR if floor is None else floor
    nodes = np.array(list(itertools.product(vf.KL_NODES, repeat=d)))
    mass = np.array([math.prod(w) for w in itertools.product(vf.KL_WEIGHTS, repeat=d)])
    keep = mass >= floor * mass.sum()
    return nodes[keep], mass[keep] / mass[keep].sum()


def patch_rule(monkeypatch, **constants):
    """Set the tensor rule's module constants (KL_NODES, KL_WEIGHTS,
    KL_NODE_FLOOR) until monkeypatch.undo(), the rule being built from them
    at each call, not taken from the process's cache of the rule of the
    module's own constants."""
    for name, value in constants.items():
        monkeypatch.setattr(vf, name, value)
    monkeypatch.setattr(vf, "_tensor_kl_rule", vf._tensor_kl_rule.__wrapped__)


def ref_draws_rule(draws, d):
    """The posterior-expected kl's rule beyond d = 3: `draws` standard
    normals, row by row, of a PCG64 generator seeded 0, each of weight
    1/draws."""
    z = np.random.Generator(np.random.PCG64(0)).normal(0.0, 1.0, size=(draws, d))
    return z, np.full(draws, 1.0 / draws)


def ref_gaussian_draw(run, features, rng, posterior_kl):
    """One Gaussian-kernel trial: n uniforms for X by inverse CDF, A on that
    one row, d normals for h, h's cosine loss at each point on its own, and
    h's L and L_hat, its losses' dot products with mu and with the sample's
    point frequencies. Then, with posterior_kl, the weighted kl sum over the
    posterior points c + sigma z_j of the rule (the tensor rule's nodes at
    d <= 3, posterior_draws fixed draws beyond), each point's w-weighted
    loss sum, for w = mu and the frequencies, taken by angle addition:
    0.5 (sum w + [w cos a, -w sin a] . [cos b_j, sin b_j]) with a = <c, phi_x>
    and b_j = sigma <z_j, phi_x>, the trial's one row against the rule's
    (points, 2|X|) table; L_hat clipped to [0, 1] and L to the normal floats
    below 1."""
    cdf = np.cumsum(run.space.probs)
    idx = np.searchsorted(cdf, rng.random(run.n), side="right").clip(0, run.space.size - 1)
    freq = np.bincount(idx, minlength=run.space.size) / run.n
    center = run.algorithm(idx)
    h = center + run.sigma * rng.standard_normal(run.algorithm.dim_d)
    pl = np.array([0.5 * (1.0 + math.cos(float(h @ f))) for f in features])
    L = float(pl @ run.space.probs)
    draw = vf.Draw(idx, h, float(np.vecdot(pl, freq)), L,
                   float(run.space.probs @ (pl - L) ** 2), center=center)
    if not posterior_kl:
        return draw
    d = len(center)
    z, weights = ref_kl_rule(d) if d <= 3 else ref_draws_rule(run.posterior_draws, d)
    a = row_products(center[None, :], features)[0]
    b = row_products(run.sigma * z, features)
    nodes = np.concatenate([np.cos(b), np.sin(b)], axis=1)
    L, L_hat = (0.5 * (w.sum() + row_products(
        np.concatenate([w * np.cos(a), -(w * np.sin(a))])[None, :], nodes)[0])
        for w in (run.space.probs, freq))
    kl = vf.kl_bernoulli_vec(np.clip(L_hat, 0.0, 1.0),
                             np.clip(L, np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
    return draw._replace(kl=float(np.vecdot(kl, weights)))


def ref_violation_rates(run, methods, trials, master_seed, features=None):
    chosen = [vf.SCENARIO_METHODS[m] for m in methods]
    posterior_kl = any(method.target == vf.POSTERIOR_KL for method in chosen)
    counts = dict.fromkeys(methods, 0)
    bound_sums = dict.fromkeys(methods, 0.0)
    slack_sums = dict.fromkeys(methods, 0.0)
    gap_sum = 0.0
    for t in range(trials):
        rng = vf.substream(master_seed, t)
        draw = (ref_gibbs_draw(run, rng) if isinstance(run, vf.GibbsRun)
                else ref_gaussian_draw(run, features, rng, posterior_kl))
        built = [method.build(run, draw) for method in chosen]
        gap = draw.L - draw.L_hat
        gap_sum += gap
        for m, method, cert in zip(methods, chosen, built):
            target = gap if method.target == vf.GAP else draw.kl
            bound_sums[m] += cert.value
            slack_sums[m] += cert.value - target
            if target > cert.value:
                counts[m] += 1
    per_method = {m: vf.MethodStats(m, counts[m], trials, bound_sums[m] / trials,
                                    slack_sums[m] / trials) for m in methods}
    return vf.TrialReport(trials=trials, mean_gap=gap_sum / trials, per_method=per_method)


def row(draws, t):
    """Trial t's entry of each field of the draws of a run of trials."""
    return vf.Draw(*(None if f is None else f[t] for f in draws))


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

    def test_hundred_points_zero_probability(self):
        """Past CDF_COUNT_POINTS the draw takes searchsorted, as the loop does."""
        probs = np.linspace(1.0, 2.0, 100)
        probs[37] = 0.0
        case = gibbs_case(13, 100, 8, 5.0, 50, probs=probs / probs.sum())
        assert_same_report(*case, trials=300, master_seed=6)

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
        """Sums carried across chunks of 7 trials, of n + 1 + m elements
        each, add the trials in the loop's order."""
        monkeypatch.setattr(vf, "CHUNK_ELEMENTS", 7 * (30 + 1 + 16))
        assert_same_report(*gibbs_case(11, 10, 16, 5.0, 30), trials=100, master_seed=7)

    def test_chunk_memory_bounded(self):
        """A run holds a chunk of trials x width elements at a time, not all
        its trials: 4000 trials at n = 1000 take 92 MiB in one chunk."""
        space, loss, prior, beta, n = gibbs_case(16, 10, 16, 5.0, 1000)
        tracemalloc.start()
        try:
            vf.violation_rate_gibbs(space, loss, prior, beta, n, 0.05, GIBBS_METHODS, 4000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_draw_is_row_zero(self):
        """Consecutive draws from one generator each read n + 1 uniforms."""
        space, loss, prior, beta, n = gibbs_case(12, 6, 5, 4.0, 9)
        run = vf.GibbsRun(space, loss, prior, beta, n, 0.05)
        rng_a = np.random.Generator(np.random.Philox(key=13))
        rng_b = np.random.Generator(np.random.Philox(key=13))
        for _ in range(50):
            a, b = row(run.draws(rng_a.random((1, n + 1))), 0), ref_gibbs_draw(run, rng_b)
            assert np.array_equal(a.idx, b.idx)
            assert (a.h, a.L_hat, a.L, a.v, a.rho) == (b.h, b.L_hat, b.L, b.v, b.rho)


def gaussian_case(seed, n=100, sigma=0.5, draws=50, num_points=6, d=2, probs=None,
                  algorithm="mean_embedding"):
    """A Gaussian-kernel run on a cosine loss, and the loss's feature table."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if probs is None:
        probs = rng.dirichlet(np.ones(num_points))
    space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)),
                            probs=np.array(probs))
    features = rng.uniform(-1.0, 1.0, size=(num_points, d))
    phi = rng.uniform(-0.5, 0.5, size=(num_points, d))
    algo = (mean_embedding_algorithm(phi, n) if algorithm == "mean_embedding"
            else constant_algorithm(phi[0]))
    run = vf.GaussianRun(space, CosineLoss(features), algo, sigma, n, 0.05,
                         posterior_draws=draws)
    return run, features


def assert_same_gaussian_report(run, features, methods, trials, master_seed):
    got = vf.violation_rate_gaussian(run.space, run.loss, run.algorithm, run.sigma, run.n,
                                     run.delta, methods, trials, master_seed,
                                     posterior_draws=run.posterior_draws)
    assert got == ref_violation_rates(run, methods, trials, master_seed, features)
    assert all(type(s.mean_bound) is float and type(s.violations) is int
               for s in got.per_method.values())


def assert_same_draws(run, features, master_seed, start, stop, posterior_kl=True):
    """Every field of the draws of trials start..stop-1, bit for bit."""
    got = run.trials(master_seed, start, stop, posterior_kl)
    for t in range(start, stop):
        want = ref_gaussian_draw(run, features, vf.substream(master_seed, t), posterior_kl)
        row_t = row(got, t - start)
        assert np.array_equal(row_t.idx, want.idx)
        assert np.array_equal(row_t.h, want.h) and np.array_equal(row_t.center, want.center)
        assert (row_t.L_hat, row_t.L, row_t.v, row_t.kl) == (want.L_hat, want.L, want.v, want.kl)
    assert got.rho is None and (got.kl is None) == (not posterior_kl)


class TestGaussianRuns:
    def test_matches_loop_across_chunks(self, monkeypatch):
        """Several chunks of 7 trials, of n + |X| + d elements each, and kl
        blocks of 3 trials of the 232-node rule, neither dividing 20."""
        monkeypatch.setattr(vf, "CHUNK_ELEMENTS", 7 * (100 + 6 + 2))
        monkeypatch.setattr(vf, "KL_SLAB", 3 * 6 * RULE_POINTS[2])
        run, features = gaussian_case(21)
        assert run.kl_block == 3
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 20, 8)

    def test_draws_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(vf, "KL_SLAB", 8 * 6 * RULE_POINTS[2])
        run, features = gaussian_case(22, draws=40)
        assert run.kl_block == 8
        assert_same_draws(run, features, 4242, 0, 11)
        assert_same_draws(run, features, 2**64 - 1, 5, 16)
        assert_same_draws(run, features, 9, 3, 10, posterior_kl=False)

    def test_default_block(self, monkeypatch):
        """At the default KL_SLAB a block of 232-node estimates at |X| = 6
        holds 47 trials, and 50 trials end in a part block; one of 2632-node
        estimates at d = 3 holds 4 trials, and 9 trials end in a part block;
        one of 2000-draw estimates at d = 4 holds 5 trials, and 11 trials end
        in a part block."""
        blocks, expected_kl = [], vf.GaussianRun.expected_kl
        monkeypatch.setattr(vf.GaussianRun, "expected_kl", lambda run, freq, angles: (
            blocks.append(len(angles)) or expected_kl(run, freq, angles)))
        for d, block, trials, part in ((2, 47, 50, 3), (3, 4, 9, 1), (4, 5, 11, 1)):
            run, features = gaussian_case(23, draws=2000, d=d)
            assert run.kl_block == block
            blocks.clear()
            assert_same_draws(run, features, 4242, 0, trials)
            assert blocks == [block] * (trials // block) + [part]

    @pytest.mark.parametrize("num_points, n, draws, slabs", [
        (8, 1000, 2000, 31), (8, 10_000, 30, 5), (10, 10_000, 30, 5), (8, 3000, 45, 3),
        (6, 10_000, 31, 6), (6, 100_000, 10, 5),
    ])
    def test_many_points_and_narrow_slabs(self, monkeypatch, num_points, n, draws, slabs):
        """At |X| >= 8, where a matrix-vector product's rows depend on the
        rows that come with them, at large n, and with the rule's draws
        (d = 4) scored in `slabs` steps of a few draws, each trial's kl is
        that of the loop."""
        monkeypatch.setattr(vf, "KL_SLAB", num_points * -(-draws // slabs))
        run, features = gaussian_case(34, n=n, draws=draws, num_points=num_points, d=4)
        assert run.kl_block == 1
        assert_same_draws(run, features, 11, 0, 8)

    def test_kl_independent_of_slab_split(self, monkeypatch):
        """At |X| = 8 and d = 4, blocks of 1 to 136 trials of 60 draws, the
        one-trial blocks in two steps, give the same kl values."""
        kls, blocks = [], set()
        for kl_slab in (1 << 8, 1 << 10, 3 * 8 * 80, 1 << 12, 1 << 14, 1 << 16):
            monkeypatch.setattr(vf, "KL_SLAB", kl_slab)
            run, _ = gaussian_case(35, n=80, draws=60, num_points=8, d=4)
            blocks.add(run.kl_block)
            kls.append(run.trials(7, 0, 20, posterior_kl=True).kl)
        assert blocks == {1, 2, 4, 8, 34, 136}
        assert all(np.array_equal(kl, kls[0]) for kl in kls)

    @pytest.mark.parametrize("num_points", [1, 2, 3, 6, 8, 13, 20, 100, 1000, 2**16, 2**16 + 1])
    def test_step_slices_equal_block_coupled_step(self, num_points):
        """The step rule max(1, KL_SLAB // |X|) cuts every rule into the
        slices of the block-coupled max(1, KL_SLAB // (block |X|)): a block
        of several trials takes one step, a one-trial block the same steps."""
        run, _ = gaussian_case(42, num_points=num_points, d=1, algorithm="constant")
        size = run.space.size

        def slices(points, step):
            return [(lo, min(lo + step, points)) for lo in range(0, points, step)]

        for points in (1, 2, 18, 232, 2000, 2632, 3277, 8192, 10_000, 2**16 + 3):
            fresh = vf.GaussianRun(run.space, run.loss, run.algorithm, run.sigma, run.n,
                                   run.delta, points)
            fresh.rule = np.zeros((points, 1)), np.full(points, 1.0 / points)
            block = max(1, vf.KL_SLAB // (size * points))
            assert fresh.kl_block == block
            assert (slices(points, fresh.kl_step)
                    == slices(points, max(1, vf.KL_SLAB // (block * size)))), points

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_frequency_L_hat_is_the_gather_mean(self, n):
        """The dot product of a draw's losses with the point frequencies, the
        L_hat of every Gaussian-kernel draw, is within 4 ulp of 1 of the mean
        of the n gathered losses, the same estimator summed another way."""
        run, _ = gaussian_case(36, n=n, num_points=8)
        rng = np.random.Generator(np.random.Philox(key=n))
        pl = run.loss.values(rng.normal(0.0, 2.0, size=(500, 2)))
        for row in pl:
            idx = rng.choice(8, size=n, p=run.space.probs)
            freq = np.bincount(idx, minlength=8) / n
            assert abs(np.vecdot(row, freq) - row[idx].mean()) <= 4 * np.finfo(float).eps

    def test_constant_algorithm(self):
        run, features = gaussian_case(24, algorithm="constant")
        assert_same_draws(run, features, 1, 0, 9)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 30, 1)

    def test_zero_probability_point(self):
        run, features = gaussian_case(25, probs=[0.3, 0.0, 0.25, 0.25, 0.0, 0.2])
        assert_same_draws(run, features, 2, 0, 9)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 30, 2)

    def test_one_posterior_draw(self):
        run, features = gaussian_case(26, draws=1, d=4)
        assert_same_draws(run, features, 3, 0, 9)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 40, 3)

    def test_one_trial(self):
        run, features = gaussian_case(27)
        assert_same_draws(run, features, 4, 0, 1)
        assert_same_draws(run, features, 4, 0, 1, posterior_kl=False)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 1, 4)

    def test_gap_methods_draw_no_kl(self, monkeypatch):
        """Without a kl method no posterior draw is made or estimated."""
        run, features = gaussian_case(28, d=3, num_points=5)
        monkeypatch.setattr(vf.GaussianRun, "expected_kl", None)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS[:2], 30, 5)

    @pytest.mark.parametrize("d", [2, 4])
    def test_gap_methods_build_no_rule(self, monkeypatch, d):
        """A run builds its kl rule on first use: certify's trial 0 and the
        gap methods' rates never ask for it."""
        def refused(d, draws):
            raise AssertionError("kl rule built")

        monkeypatch.setattr(vf, "kl_rule", refused)
        run, features = gaussian_case(28, d=d, draws=10_000)
        assert len(vf.certificates(run, GAUSSIAN_METHODS, 9055)) == 3
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS[:2], 30, 5)
        with pytest.raises(AssertionError, match="kl rule built"):
            run.trials(5, 0, 1, posterior_kl=True)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rule_draws_no_posterior_normals(self, monkeypatch, d):
        """At every d a kl trial's stream yields its n uniforms and d normals
        only, so its X and h are those of the run without the kl method."""
        run, _ = gaussian_case(29, d=d)
        calls, streams = [], vf.trial_streams

        class Recorded:
            def __init__(self, rng):
                self.rng = rng

            def random(self, out):
                calls.append(("random", out.size))
                self.rng.random(out=out)

            def standard_normal(self, out):
                calls.append(("standard_normal", out.size))
                self.rng.standard_normal(out=out)

        monkeypatch.setattr(vf, "trial_streams", lambda *args: map(Recorded, streams(*args)))
        with_kl = run.trials(3, 0, 12, posterior_kl=True)
        assert sorted(calls) == sorted([("random", run.n), ("standard_normal", d)] * 12)
        without = run.trials(3, 0, 12, posterior_kl=False)
        assert np.array_equal(with_kl.idx, without.idx)
        assert np.array_equal(with_kl.h, without.h)
        assert np.array_equal(with_kl.L_hat, without.L_hat)

    @pytest.mark.parametrize("n", [10, 100, 1000, 100_000])
    @pytest.mark.parametrize("draws", [1, 2, 3, 7, 10, 100, 2000, 10_000])
    def test_block_shape(self, monkeypatch, n, draws):
        """At every d a block holds max(1, KL_SLAB // (|X| points)) trials,
        whatever n, points being the rule's: its kept nodes at d <= 3,
        whatever posterior_draws, and its posterior_draws draws beyond. The
        points are scored in steps of one width, the last maybe narrower, the
        widest with trials x step x |X| within KL_SLAB, or one point; a block
        of several trials takes one step."""
        shapes, kl_vec = [], vf.kl_bernoulli_vec
        monkeypatch.setattr(vf, "kl_bernoulli_vec",
                            lambda s, t: shapes.append(s.shape) or kl_vec(s, t))
        for d in (1, 2, 3, 4):
            run, _ = gaussian_case(33, n=n, draws=draws, num_points=8, d=d)
            points, block = RULE_POINTS.get(d, draws), run.kl_block
            nodes, weights = run.rule
            assert len(nodes) == len(weights) == points
            assert block == max(1, vf.KL_SLAB // (8 * points))
            shapes.clear()
            run.expected_kl(np.full((block, 8), 0.125), run.loss.angles(np.zeros((block, d))))
            widths = [width for trials, width in shapes]
            assert {trials for trials, width in shapes} == {block} and sum(widths) == points
            assert set(widths[:-1]) <= {widths[0]} and widths[-1] <= widths[0]
            assert block * 8 * widths[0] <= vf.KL_SLAB or widths[0] == 1
            assert block * 8 * (widths[0] + 1) > vf.KL_SLAB or len(widths) == 1
            assert block == 1 or len(widths) == 1

    @pytest.mark.parametrize("master_seed, trials", [(4242, 500), (4243, 200)],
                             ids=["config", "criterion_6"])
    def test_rule_near_finer_rule(self, monkeypatch, master_seed, trials):
        """On the instance of configs/gaussian_mean_embedding.txt, over its
        trials and over those of acceptance criterion 6, the 20-node rule's
        kl is within 2e-5 of an 80-node rule's, both pruned, on every trial
        (at most 7.6e-6 measured), and its 232 kept nodes are within 1e-10
        of all 400 (at most 2.1e-11 measured)."""
        space, loss, spec = gaussian_kernel_instance(21, 8, 2, 100, 0.5, "mean_embedding")

        def kl(points):
            run = vf.GaussianRun(space, loss, spec.algorithm, spec.sigma, 100, 0.05,
                                 posterior_draws=1)
            assert len(run.rule[0]) == points
            return run.trials(master_seed, 0, trials, posterior_kl=True).kl

        rule = kl(RULE_POINTS[2])
        patch_rule(monkeypatch, KL_NODE_FLOOR=0.0)
        assert np.abs(rule - kl(400)).max() <= 1e-10
        monkeypatch.undo()
        patch_rule(monkeypatch, KL_NODES=hermegauss(80)[0], KL_WEIGHTS=hermegauss(80)[1])
        # the 80-node rule keeps 944 of its 6,400 nodes
        assert np.abs(rule - kl(944)).max() <= 2e-5

    @pytest.mark.parametrize("d, dropped", [(1, 2.5e-13), (2, 1.1e-9), (3, 1.5e-8)])
    def test_rule_pruned(self, d, dropped):
        """The rule keeps the nodes that weigh at least KL_NODE_FLOOR of the
        total, RULE_POINTS[d] of 20^d, which drop about `dropped` of the mass,
        and normalizes their weights to sum 1, as ref_kl_rule does node by
        node."""
        nodes, weights = vf.kl_rule(d, 10_000)
        assert nodes.shape == (RULE_POINTS[d], d)
        want_nodes, want_weights = ref_kl_rule(d)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert abs(weights.sum() - 1.0) <= 1e-15
        _, full = ref_kl_rule(d, floor=0.0)
        below = full < vf.KL_NODE_FLOOR
        assert len(full) == 20**d and np.count_nonzero(~below) == RULE_POINTS[d]
        assert math.isclose(full[below].sum(), dropped, rel_tol=0.1)
        # posterior_draws is not read at d <= 3
        assert all(np.array_equal(a, b) for a, b in zip(vf.kl_rule(d, 1), (nodes, weights)))

    @pytest.mark.parametrize("d, draws", [(4, 1), (4, 2000), (5, 37), (8, 10_000)])
    def test_draws_rule(self, d, draws):
        """Beyond d = 3 the rule is `draws` standard normals of a PCG64
        generator seeded 0, each of weight 1/draws, as ref_draws_rule builds
        them, and the same on every call."""
        nodes, weights = vf.kl_rule(d, draws)
        want_nodes, want_weights = ref_draws_rule(draws, d)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        again = vf.kl_rule(d, draws)
        assert np.array_equal(again[0], nodes) and np.array_equal(again[1], weights)

    def test_rule_near_finer_rule_at_d3(self, monkeypatch):
        """At d = 3, on the instance of configs/gaussian_mean_embedding.txt
        in three dimensions, 40 trials on each of seeds 0, 1 and 7, the
        2632-node rule's kl is within 1e-5 of a pruned 36-node rule's on
        every trial (1.6e-6 measured), and the fixed rule of 10,000 Monte
        Carlo draws, as used beyond d = 3, is farther off on each seed (up
        to 2.4e-5 measured)."""
        space, loss, spec = gaussian_kernel_instance(21, 8, 3, 100, 0.5, "mean_embedding")

        def kl(master_seed, draws=1):
            run = vf.GaussianRun(space, loss, spec.algorithm, spec.sigma, 100, 0.05,
                                 posterior_draws=draws)
            return run.trials(master_seed, 0, 40, posterior_kl=True).kl

        for master_seed in (0, 1, 7):
            rule = kl(master_seed)
            monkeypatch.setattr(vf, "kl_rule", lambda d, draws: ref_draws_rule(draws, d))
            draws = kl(master_seed, draws=10_000)
            monkeypatch.undo()
            patch_rule(monkeypatch, KL_NODES=hermegauss(36)[0], KL_WEIGHTS=hermegauss(36)[1])
            finer = kl(master_seed)
            monkeypatch.undo()
            assert np.abs(rule - finer).max() <= 1e-5
            assert np.abs(draws - finer).max() > np.abs(rule - finer).max()

    def test_draws_near_tensor_rule_at_d4(self, monkeypatch):
        """At d = 4, on the instance of configs/gaussian_mean_embedding.txt
        in four dimensions with sigma = 0.75, which meets the stability
        precondition, 40 trials on each of seeds 0, 1 and 7, the fixed rule
        of 10,000 draws is within 1e-4 of the pruned 20-node tensor rule's
        23,936 nodes on every trial (3.6e-5 measured)."""
        space, loss, spec = gaussian_kernel_instance(21, 8, 4, 100, 0.75, "mean_embedding")

        def kl(master_seed):
            run = vf.GaussianRun(space, loss, spec.algorithm, spec.sigma, 100, 0.05,
                                 posterior_draws=10_000)
            return len(run.rule[0]), run.trials(master_seed, 0, 40, posterior_kl=True).kl

        for master_seed in (0, 1, 7):
            points, fixed = kl(master_seed)
            monkeypatch.setattr(vf, "kl_rule", lambda d, draws: ref_kl_rule(d))
            nodes, tensor = kl(master_seed)
            monkeypatch.undo()
            assert (points, nodes) == (10_000, 23_936)
            assert np.abs(fixed - tensor).max() <= 1e-4

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rule_read_only(self, d):
        """The tensor rule, which every run of the process shares, is
        read-only: writing to its nodes or its weights raises."""
        nodes, weights = vf.kl_rule(d, 10_000)
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_rule_built_once_per_d(self, monkeypatch):
        """At d <= 3 a process builds the tensor rule once per d: two runs
        and kl_estimator take the same arrays and build it no second time."""
        built, tensor = [], vf.tensor_rule
        monkeypatch.setattr(vf, "tensor_rule",
                            lambda nodes, weights, d: built.append(d) or tensor(nodes, weights, d))
        vf._tensor_kl_rule.cache_clear()
        for d in (1, 2, 3):
            first, second = (gaussian_case(seed, d=d)[0] for seed in (60, 61))
            (nodes, weights), (nodes2, weights2) = first.rule, second.rule
            assert nodes is nodes2 and weights is weights2
            assert vf.kl_estimator(d, 10_000) == f"Gauss-Hermite, {RULE_POINTS[d]} nodes"
            assert vf.kl_rule(d, 1)[0] is nodes
        assert built == [1, 2, 3]

    def test_rule_is_hermegauss(self):
        """The rule's written-out nodes and weights are numpy's 20-node
        probabilists' Gauss-Hermite rule, within 2 ulp, and symmetric."""
        nodes, weights = hermegauss(20)
        for got, want in ((vf.KL_NODES, nodes), (vf.KL_WEIGHTS, weights)):
            assert got.shape == (20,)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.array_equal(vf.KL_NODES, -vf.KL_NODES[::-1])
        assert np.array_equal(vf.KL_WEIGHTS, vf.KL_WEIGHTS[::-1])

    @pytest.mark.parametrize("draws, kl_slab, block",
                             [(1, 18, 3), (45, 42, 1), (2, 60, 5)],
                             ids=["one_draw", "uneven_slabs", "two_draws"])
    def test_block_split_changes_nothing(self, monkeypatch, draws, kl_slab, block):
        """Blocks of 3 or 5 trials, the last a part block, and (at 45 draws)
        one-trial blocks in six steps of 7 draws and one of 3 give the
        per-trial loop's reports and draws at d = 4."""
        monkeypatch.setattr(vf, "KL_SLAB", kl_slab)
        run, features = gaussian_case(31, draws=draws, d=4)
        assert run.kl_block == block
        assert_same_draws(run, features, 6, 0, 10)
        assert_same_draws(run, features, 6, 4, 12, posterior_kl=False)
        assert_same_gaussian_report(run, features, GAUSSIAN_METHODS, 20, 6)

    def test_kl_memory_bounded(self):
        """A block's posterior points are scored a step at a time, so 8 kl
        trials at d = 4, n = 1000 and 10,000 draws hold the run's rule, their
        kl values and a few step arrays, not an n x posterior_draws gather per
        trial (78 MiB); and at |X| = 500, n = 100, not the (posterior_draws,
        |X|) losses of a trial (77.6 MiB when unstepped)."""
        for num_points, n in ((6, 1000), (500, 100)):
            run, features = gaussian_case(32, n=n, sigma=0.6, draws=10_000,
                                          num_points=num_points, d=4)
            tracemalloc.start()
            try:
                vf.violation_rate_gaussian(run.space, run.loss, run.algorithm, run.sigma,
                                           run.n, run.delta, GAUSSIAN_METHODS, 8, 0,
                                           posterior_draws=run.posterior_draws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (num_points, n, peak)

    @pytest.mark.parametrize("num_points", [8, 20])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_angle_addition_near_point_by_point(self, d, num_points):
        """The cosine loss's kl, its sums taken by angle addition, is within
        1e-15 of the kl of the same rule with each posterior point's loss at
        each point taken by math.cos on its own and dotted with the weights,
        at |X| = 20 too, where a product's 2|X| = 40 columns take three
        16-column blocks."""
        run, features = gaussian_case(38, draws=300, num_points=num_points, d=d)
        draws = run.trials(5, 0, 40, posterior_kl=True)
        cos = np.frompyfunc(math.cos, 1, 1)
        want, (nodes, weights) = [], run.rule
        for idx, center in zip(draws.idx, draws.center):
            freq = np.bincount(idx, minlength=num_points) / run.n
            pl = 0.5 * (1.0 + cos((center + run.sigma * nodes) @ features.T).astype(float))
            kl = vf.kl_bernoulli_vec(np.clip(pl @ freq, 0.0, 1.0),
                                     np.clip(pl @ run.space.probs, np.finfo(float).tiny,
                                             np.nextafter(1.0, 0.0)))
            want.append(kl @ weights)
        assert np.all(np.array(want) > 0) and np.abs(draws.kl - want).max() <= 1e-15

    @pytest.mark.parametrize("center", [math.pi, 0.0])
    def test_kl_finite_at_loss_0_and_1(self, center):
        """Around a center where every point's cosine loss is 0 (c = pi) or 1
        (c = 0), at sigma = 1e-9, the sums by angle addition land on 0 or 1
        and a rounding off it. With L and L_hat both clipped to [0, 1] some
        kl is infinite (an L of 0 or 1 beside an L_hat off it); with L_hat
        clipped to [0, 1] and L to the normal floats below 1, every kl is
        finite and below 1e-14, and that of the loop."""
        space = FiniteDataSpace(points=tuple("abcd"), probs=np.array([0.1, 0.2, 0.3, 0.4]))
        features = np.array([[1.0], [3.0], [-5.0], [7.0]])
        run = vf.GaussianRun(space, CosineLoss(features),
                             constant_algorithm([center]), 1e-9, 10, 0.05, posterior_draws=1)
        draws = run.trials(1, 0, 200, posterior_kl=True)
        L, L_hat = run.loss.weighted_sums(run.sigma * run.rule[0])(
            run.loss.angles(draws.center), space.probs,
            np.array([np.bincount(i, minlength=4) / 10 for i in draws.idx]))
        edge = 0.0 if center else 1.0
        assert np.any(L == edge) and np.any(L_hat != L)
        unit = [bd.kl_bernoulli(s, t) for s, t in zip(np.clip(L_hat, 0.0, 1.0).ravel(),
                                                      np.clip(L, 0.0, 1.0).ravel())]
        assert not np.all(np.isfinite(unit))
        assert np.all(np.isfinite(draws.kl)) and draws.kl.max() < 1e-14
        assert_same_draws(run, features, 1, 0, 200)

    def test_node_tables_kept_or_per_step(self):
        """A run keeps its steps' node tables where 2 |X| points <= 4 KL_SLAB
        (the 10,000 draws of d = 4 at |X| = 8, not at |X| = 20) and else
        builds them for each block, a step at a time; the kl values are the
        same either way."""
        for num_points, kept in ((8, True), (20, False)):
            run, _ = gaussian_case(39, draws=10_000, num_points=num_points, d=4)
            assert (run.kl_sums is not None) == kept
        run, features = gaussian_case(39, draws=10_000, num_points=8, d=4)
        kl = run.trials(2, 0, 6, posterior_kl=True).kl
        run.kl_sums = None
        assert np.array_equal(run.trials(2, 0, 6, posterior_kl=True).kl, kl)
        assert_same_draws(run, features, 2, 0, 6)

    @pytest.mark.parametrize("cols", [1, 2, 15, 16, 17, 40])
    def test_row_products_entries_alone(self, cols):
        """Each entry of row_products(a, b), a @ b.T, is bit for bit that of
        its row of a against its row of b alone, whatever rows come with
        them: lone rows and lone columns, and contractions past 16 columns."""
        rng = np.random.Generator(np.random.Philox(key=40 + cols))
        a, b = rng.normal(size=(9, cols)), rng.normal(size=(13, cols))
        full = row_products(a, b)
        assert full.shape == (9, 13)
        assert np.allclose(full, a @ b.T, rtol=1e-12, atol=1e-12)
        for i, j in itertools.product(range(9), range(13)):
            assert row_products(a[i:i + 1], b[j:j + 1])[0, 0] == full[i, j]
        assert np.array_equal(row_products(a[2:3], b), full[2:3])
        assert np.array_equal(row_products(a, b[4:5]), full[:, 4:5])
        assert np.array_equal(row_products(a[3:7], b[5:12]), full[3:7, 5:12])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 32, 64])
    def test_cosine_loss_rows_alone(self, d):
        """A row's cosine losses are, bit for bit, those of the row alone,
        whatever batch the row comes in, and for d < 16 those of each point
        on its own."""
        rng = np.random.Generator(np.random.Philox(key=30 + d))
        features = rng.uniform(-1.0, 1.0, size=(7, d))
        hs = rng.normal(0.0, 2.0, size=(60, d))
        loss = CosineLoss(features)
        batch = loss.values(hs)
        alone = np.array([loss.values(h[None, :])[0] for h in hs])
        assert np.array_equal(batch, alone)
        assert np.array_equal(loss.values(hs[:2]), batch[:2])
        if d < 16:
            points = np.array([[0.5 * (1.0 + math.cos(float(h @ f))) for f in features]
                               for h in hs])
            assert np.array_equal(batch, points)

    @pytest.mark.parametrize("num_points", [8, 20])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_angle_table_slices_equal_trials_alone(self, d, num_points):
        """The weighted sums from one chunk-wide angle table, sliced into
        blocks of 3 trials (the last a part block), are bit for bit each
        trial's sums from the angle table of its center alone, and a slice
        of the table is the table of its centers."""
        rng = np.random.Generator(np.random.Philox(key=50 + 10 * d + num_points))
        loss = CosineLoss(rng.uniform(-0.5, 0.5, size=(num_points, d)))
        centers = rng.uniform(-0.5, 0.5, size=(11, d))
        mu = rng.dirichlet(np.ones(num_points))
        freq = rng.multinomial(100, mu, size=11) / 100
        sums = loss.weighted_sums(0.5 * rng.normal(size=(37, d)))
        table = loss.angles(centers)
        assert table.shape == (11, 2 * num_points)
        blocks = [sums(table[lo:lo + 3], mu, freq[lo:lo + 3]) for lo in range(0, 11, 3)]
        L, L_hat = (np.concatenate(parts) for parts in zip(*blocks))
        for t in range(11):
            alone = loss.angles(centers[t:t + 1])
            assert np.array_equal(alone[0], table[t])
            L_t, L_hat_t = sums(alone, mu, freq[t:t + 1])
            assert np.array_equal(L_t[0], L[t]) and np.array_equal(L_hat_t[0], L_hat[t])
        assert np.array_equal(loss.angles(centers[4:9]), table[4:9])


# ---------------------------------------------------------------------------
# the inverse CDF

def searchsorted_cdf(probs, u):
    return np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1)


def edge_uniforms(probs):
    """Each threshold of cumsum(probs) and its two float neighbours, 0, the
    largest double below 1, and uniforms between."""
    cdf = np.cumsum(probs)
    return np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                           [0.0, np.nextafter(1.0, 0.0)],
                           np.random.default_rng(len(probs)).random(200)])


def space_of(probs):
    return FiniteDataSpace(points=tuple(range(len(probs))), probs=np.asarray(probs, dtype=float))


def random_probs(size, zero=None):
    probs = np.random.default_rng(size).random(size)
    if zero is not None:
        probs[zero] = 0.0
    return probs / probs.sum()


class TestInverseCdf:
    @pytest.mark.parametrize("probs", [
        random_probs(10), [0.0, 0.3, 0.7], [0.3, 0.0, 0.7], [0.3, 0.7, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.5, 0.0], [1.0], [0.1] * 10,
        [0.25, 0.25, 0.25, 0.25 - 5e-13], [0.25, 0.25, 0.25, 0.25 + 5e-13],
        random_probs(vf.CDF_COUNT_POINTS, zero=5), random_probs(vf.CDF_COUNT_POINTS + 1, zero=5),
    ], ids=["ten", "zero_first", "zero_middle", "zero_last", "zeros", "one_point",
            "tenths", "cdf_below_1", "cdf_above_1", "count_rule_limit", "past_count_rule"])
    def test_same_as_searchsorted(self, probs):
        space = space_of(probs)
        u = edge_uniforms(space.probs)
        got = vf.inverse_cdf(space, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, searchsorted_cdf(space.probs, u))

    @pytest.mark.parametrize("size", [10, vf.CDF_COUNT_POINTS, vf.CDF_COUNT_POINTS + 1])
    def test_two_d_and_strided(self, size):
        """The Gibbs draw reads the first n of each row's n + 1 uniforms."""
        space = space_of(random_probs(size, zero=size // 2))
        edges = edge_uniforms(space.probs)
        uniforms = np.resize(edges, (len(edges) // 8, 9))
        for u in (uniforms, uniforms[:, :-1], uniforms[::2, 1::3]):
            got = vf.inverse_cdf(space, u)
            assert got.dtype == np.intp and got.shape == u.shape
            assert np.array_equal(got, searchsorted_cdf(space.probs, u))


# ---------------------------------------------------------------------------
# the trial streams

class TestTrialStreams:
    @pytest.mark.parametrize("master_seed", [0, 4242, 2**63 + 1, 2**64 - 1])
    @pytest.mark.parametrize("start,stop", [(0, 4), (3, 8), (1000, 1003)])
    def test_same_as_substream(self, master_seed, start, stop):
        got = [(rng.random(7), rng.standard_normal(5), rng.standard_normal((3, 2)))
               for rng in vf.trial_streams(master_seed, start, stop)]
        assert len(got) == stop - start
        for t, arrays in zip(range(start, stop), got):
            rng = vf.substream(master_seed, t)
            want = (rng.random(7), rng.standard_normal(5), rng.standard_normal((3, 2)))
            assert all(np.array_equal(a, b) for a, b in zip(arrays, want))

    def test_buffered_bits_do_not_carry_over(self):
        """A stream left with half a 64-bit word buffered hands the next
        trial a fresh stream."""
        streams = vf.trial_streams(5, 0, 2)
        next(streams).integers(0, 10, size=3, dtype=np.uint32)
        assert np.array_equal(next(streams).random(4), vf.substream(5, 1).random(4))

    def test_seed_past_64_bits_raises(self):
        with pytest.raises(OverflowError):
            next(vf.trial_streams(2**64, 0, 1))


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
            assert vf.recompute(cert) == cert


@pytest.mark.parametrize("method", list(vf.SCENARIO_METHODS))
def test_registry_entry(method):
    """An entry's certificate carries the entry's name and records exactly
    the inputs the entry gives its bound, from which recompute rebuilds it."""
    entry = vf.SCENARIO_METHODS[method]
    if entry.variant == "gibbs":
        space, loss, prior, beta, n = gibbs_case(14, 10, 16, 5.0, 50)
        run = vf.GibbsRun(space, loss, prior, beta, n, 0.05)
    else:
        run, _ = gaussian_case(16)
    cert, = vf.certificates(run, (method,), 9055)
    assert cert.method == method
    assert set(cert.inputs) == set(entry.inputs(run, run.trials(9055, 0, 1, False)))
    assert vf.recompute(cert) == cert


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
