"""The array-based exact engine against per-sample loop references.

The reference functions below walk X^n one sample at a time, the way the
oracles are defined. They use only the scalar Hamiltonian ref_hamiltonian
and itertools.product, so they share no code with the engine they check.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from gapcert import verify as vf
from gapcert.config import random_gibbs_instance
from gapcert.hamiltonian import (
    Gibbs,
    bounded_difference_coefficient,
    mean_embedding_algorithm,
    output_sensitivity,
)
from gapcert.model import (
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    empirical_loss,
    enumerate_indices,
    generalization_gap,
    loss_variance,
    max_fibre_range,
    product_rows,
)


# ---------------------------------------------------------------------------
# per-sample references

def ref_enumeration(space, n):
    log_probs = np.log(np.where(space.probs > 0, space.probs, 1.0))
    out = []
    for combo in itertools.product(range(space.size), repeat=n):
        if all(space.probs[i] > 0 for i in combo):
            out.append((np.array(combo), math.exp(sum(log_probs[i] for i in combo))))
    return out


def substitute(row, k, y):
    """The sample row with coordinate k replaced by point index y."""
    out = row.copy()
    out[k] = y
    return out


def ref_hamiltonian(spec, h, sample, loss):
    """H(h, sample) = -beta L_hat(h, sample) of one hypothesis on one sample."""
    return -spec.beta * empirical_loss(h, sample, loss)


def ref_log_weights(spec, sample, loss, prior):
    return np.array([ref_hamiltonian(spec, h, sample, loss) + math.log(p) if p > 0
                     else -np.inf for h, p in enumerate(prior.weights)])


def ref_log_z(spec, sample, loss, prior):
    return float(logsumexp(ref_log_weights(spec, sample, loss, prior)))


def ref_posterior(spec, sample, loss, prior):
    lw = ref_log_weights(spec, sample, loss, prior)
    w = np.exp(lw - logsumexp(lw))
    return w / w.sum()


def ref_mixed_log_mgf(spec, space, loss, prior, n, F):
    terms = []
    for sample, w in ref_enumeration(space, n):
        q = ref_posterior(spec, sample, loss, prior)
        for h in range(loss.num_hypotheses):
            if q[h] > 0:
                terms.append(math.log(w) + math.log(q[h]) + F(h, sample))
    return float(logsumexp(terms))


def ref_psi(spec, space, loss, prior, n, F):
    pairs = ref_enumeration(space, n)
    w = np.array([p for _, p in pairs])
    psi = []
    for h in range(loss.num_hypotheses):
        hq = np.array([ref_hamiltonian(spec, h, s, loss) - ref_log_z(spec, s, loss, prior)
                       for s, _ in pairs])
        exps = np.array([F(h, s) for s, _ in pairs]) + hq - float(w @ hq)
        psi.append(float(logsumexp(exps, b=w)))
    return psi


def ref_bernstein_unit(space, loss, n, c, delta):
    b = loss.bound_b
    root = math.sqrt(n * c**2 + math.log(1.0 / delta))
    pairs = ref_enumeration(space, n)
    w = np.array([p for _, p in pairs])
    out = []
    for h in range(loss.num_hypotheses):
        v = loss_variance(h, space, loss)
        lam = root / ((b / n) * root + math.sqrt(v / n))
        comp = lam**2 / (1.0 - b * lam / n) * v / n
        vals = np.array([2.0 * (lam * generalization_gap(h, s, space, loss) - comp)
                         for s, _ in pairs])
        out.append(float(logsumexp(vals, b=w)))
    return out


def ref_brute_force_c(spec, space, loss, n):
    c = 0.0
    for s, _ in ref_enumeration(space, n):
        for k in range(n):
            for h in range(loss.num_hypotheses):
                vals = [ref_hamiltonian(spec, h, substitute(s, k, y), loss)
                        for y in range(space.size)]
                c = max(c, max(vals) - min(vals))
    return c


def ref_logz_differences(spec, space, loss, prior, n):
    max_dlnz = max_dhq = 0.0
    for s, _ in ref_enumeration(space, n):
        for k in range(n):
            subs = [substitute(s, k, y) for y in range(space.size)]
            lz = [ref_log_z(spec, x, loss, prior) for x in subs]
            max_dlnz = max(max_dlnz, max(lz) - min(lz))
            for h in range(loss.num_hypotheses):
                hq = [ref_hamiltonian(spec, h, x, loss) - z for x, z in zip(subs, lz)]
                max_dhq = max(max_dhq, max(hq) - min(hq))
    return max_dlnz, max_dhq


def ref_sensitivity(algorithm, space, n):
    """max ||A(S_y^k x) - A(S_y'^k x)|| over base samples x in the support,
    coordinates k and every pair of points y, y'."""
    c = 0.0
    for s, _ in ref_enumeration(space, n):
        for k in range(n):
            outs = [algorithm(substitute(s, k, y)) for y in range(space.size)]
            for y, y2 in itertools.combinations(range(space.size), 2):
                c = max(c, float(np.linalg.norm(outs[y] - outs[y2])))
    return c


def ref_martingale_constants(space, n, table):
    """(max partial difference, max one-sided excess, coordinate variances,
    subgaussian step constant) of the table, per base sample and coordinate."""
    powers = space.size ** np.arange(n - 1, -1, -1)

    def f(sample):
        return float(table[int(np.dot(powers, sample))])

    c, b, r2, vks = 0.0, -math.inf, 0.0, [0.0] * n
    for s, _ in ref_enumeration(space, n):
        for k in range(n):
            vals = np.array([f(substitute(s, k, y)) for y in range(space.size)])
            mean = float(space.probs @ vals)
            c = max(c, float(vals.max() - vals.min()))
            b = max(b, f(s) - mean)
            vks[k] = max(vks[k], float(space.probs @ (vals - mean) ** 2))
            r2 = max(r2, float(logsumexp(vals - mean, b=space.probs)))
    return c, b, vks, r2


def ref_centered_mgf(space, n, table):
    pairs = ref_enumeration(space, n)
    powers = space.size ** np.arange(n - 1, -1, -1)
    w = np.array([p for _, p in pairs])
    vals = np.array([table[int(np.dot(powers, s))] for s, _ in pairs])
    return float(logsumexp(vals - float(w @ vals), b=w))


# ---------------------------------------------------------------------------
# a small seeded grid of instances

def with_zero_point(space, loss):
    """The instance with one more point, of probability zero."""
    probs = np.append(space.probs, 0.0)
    values = np.column_stack([loss.values, np.linspace(0.0, 1.0, loss.num_hypotheses)])
    return (FiniteDataSpace(points=space.points + ("zero",), probs=probs),
            FiniteTable(values=values, bound_b=loss.bound_b))


def instances():
    """(id, spec, space, loss, prior, n): three and nine hypotheses (nine sums
    past numpy's eight-way unrolled reduction), a zero-probability point, a
    prior with a zero weight, and samples of n = 8, whose means numpy sums
    pairwise on a contiguous row but left to right on a strided one."""
    out = []
    for seed, (points, m, n) in enumerate([(3, 4, 3), (2, 9, 4), (3, 3, 2), (4, 4, 2)]):
        space, loss = random_gibbs_instance(seed, points, m)
        for beta in (0.0, 1.5, float(n)):
            out.append((f"s{seed}-b{beta}", Gibbs(beta), space, loss,
                        PriorWeights.uniform(m), n))
    space, loss = random_gibbs_instance(5, 3, 4)
    zspace, zloss = with_zero_point(space, loss)
    out.append(("zero-point", Gibbs(2.0), zspace, zloss, PriorWeights.uniform(4), 3))
    out.append(("zero-prior", Gibbs(3.0), space, loss,
                PriorWeights(weights=np.array([0.5, 0.0, 2.0, 1.0])), 3))
    out.append(("n8", Gibbs(8.0), *random_gibbs_instance(6, 2, 4), PriorWeights.uniform(4), 8))
    return out


INSTANCES = instances()
IDS = [i[0] for i in INSTANCES]


class TestEnumerateIndices:
    @pytest.mark.parametrize("probs", [[0.2, 0.5, 0.3], [0.4, 0.0, 0.6]])
    def test_matches_itertools_product_and_math_exp(self, probs):
        space = FiniteDataSpace(points=("a", "b", "c"), probs=np.array(probs))
        grid, keep, w = enumerate_indices(space, 4)
        ref = ref_enumeration(space, 4)
        assert grid.tolist() == [list(c) for c in itertools.product(range(3), repeat=4)]
        assert grid[keep].tolist() == [s.tolist() for s, _ in ref]
        assert w.tolist() == [p for _, p in ref]


class TestBruteForceCoefficient:
    @pytest.mark.parametrize("seed", range(4))
    def test_gibbs_closed_form(self, seed):
        """For Gibbs, D^k H = -(beta/n)(l(h, y) - l(h, y')) at every base
        sample, so the exhaustive search finds (beta/n) max_h range(l_h)."""
        space, loss = random_gibbs_instance(seed, 3, 5)
        n, beta = 4, 2.5
        c, regime = bounded_difference_coefficient(Gibbs(beta), space, loss, n)
        assert regime == "exhaustive"
        closed = beta / n * float((loss.values.max(axis=1) - loss.values.min(axis=1)).max())
        assert c == pytest.approx(closed, abs=1e-12)

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_matches_loop(self, inst):
        _, spec, space, loss, _, n = inst
        c, _ = bounded_difference_coefficient(spec, space, loss, n)
        assert c == ref_brute_force_c(spec, space, loss, n)


class TestSensitivity:
    @pytest.mark.parametrize("probs,n,d", [([0.3, 0.0, 0.2, 0.5], 3, 2),
                                           ([0.6, 0.4, 0.0], 4, 5),
                                           ([0.25, 0.25, 0.5], 3, 9)])
    def test_matches_loop(self, probs, n, d):
        """Bit for bit, on spaces with a zero-probability point and with
        d-vectors past numpy's eight-way unrolled reduction."""
        space = FiniteDataSpace(points=tuple(range(len(probs))), probs=np.array(probs))
        phi = vf.substream(7, d).uniform(-0.5, 0.5, size=(space.size, d))
        algorithm = mean_embedding_algorithm(phi, n)
        got = output_sensitivity(algorithm, space, n, algorithm(product_rows(space, n)))
        assert got == ref_sensitivity(algorithm, space, n)


class TestOraclesMatchLoops:
    """check_proposition_main and check_logZ_bounded_differences reach CSVs
    and must agree bit for bit; the other oracles within 1e-12."""

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_proposition_main_bit_identical(self, inst):
        _, spec, space, loss, prior, n = inst
        for F in (lambda h, s: float(n) * generalization_gap(h, s, space, loss),
                  vf.bernstein_f_factory(space, loss, n, 0.3, 0.05)):
            rep = vf.check_proposition_main(spec, space, loss, prior, n, F)
            psi = ref_psi(spec, space, loss, prior, n, F)
            assert rep.lhs == ref_mixed_log_mgf(spec, space, loss, prior, n, F)
            assert rep.details["psi_per_hypothesis"] == psi
            assert rep.rhs == max(psi)

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_logz_differences_bit_identical(self, inst):
        _, spec, space, loss, prior, n = inst
        reports = vf.check_logZ_bounded_differences(spec, space, loss, prior, n)
        dlnz, dhq = ref_logz_differences(spec, space, loss, prior, n)
        c = ref_brute_force_c(spec, space, loss, n)
        assert [(r.lhs, r.rhs) for r in reports] == [(dlnz, c), (dhq, 2.0 * c)]

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_mixed_mgf(self, inst):
        _, spec, space, loss, prior, n = inst
        for lam in (0.5, 3.0):
            got = vf.exact_mixed_mgf(spec, space, loss, prior, n, lam)
            want = ref_mixed_log_mgf(spec, space, loss, prior, n,
                                     lambda h, s: lam * generalization_gap(h, s, space, loss))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_bernstein_unit_mgf(self, inst):
        _, _, space, loss, _, n = inst
        got = [r.lhs for r in vf.check_bernstein_unit_mgf(space, loss, n, 0.2, 0.1)]
        assert got == pytest.approx(ref_bernstein_unit(space, loss, n, 0.2, 0.1), abs=1e-12)

    @pytest.mark.parametrize("probs,n", [([0.35, 0.65], 3), ([0.2, 0.0, 0.5, 0.3], 3),
                                         ([0.3, 0.3, 0.4], 2)])
    def test_martingale_helpers(self, probs, n):
        space = FiniteDataSpace(points=tuple(range(len(probs))), probs=np.array(probs))
        _, keep, w = enumerate_indices(space, n)
        for t in range(3):
            table = vf.substream(11, t).uniform(-1.0, 1.0, size=space.size**n)
            c, b, vks, r2 = ref_martingale_constants(space, n, table)
            assert max_fibre_range(space, n, table) == pytest.approx(c, abs=1e-12)
            assert vf._max_one_sided_excess(space, n, table) == pytest.approx(b, abs=1e-12)
            assert vf._coordinate_variances(space, n, table) == pytest.approx(vks, abs=1e-12)
            assert vf._subgaussian_step_constant(space, n, table) == pytest.approx(r2, abs=1e-12)
            assert vf._exact_centered_mgf(table[keep], w) == pytest.approx(
                ref_centered_mgf(space, n, table), abs=1e-12)


class TestMemory:
    def test_substitution_oracles_stay_blocked(self):
        """At |X|=2, n=16, m=4 the two searches reduce the (m, 2^16) values
        of H and ln Z over X^n along one axis at a time. Every one-coordinate
        substitution of every sample as one index array would take
        2^16 * 16 * 2 * 16 * 8 bytes, about 268 MB; the oracles peak far below."""
        space, loss = random_gibbs_instance(1, 2, 4)
        spec, prior, n = Gibbs(3.0), PriorWeights.uniform(4), 16
        tracemalloc.start()
        try:
            bounded_difference_coefficient(spec, space, loss, n)
            vf.check_logZ_bounded_differences(spec, space, loss, prior, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
