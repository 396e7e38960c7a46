"""Seeded inputs, rounds, checks and layer probes of the three workloads.

A workload is built from a workload seed into a work directory. Its round is
one fixed amount of work on inputs of its own: `prepare(index)` makes the
inputs of round `index` from (seed, index), outside any timing, so no two
rounds of a run see the same inputs and nothing the program might keep
between calls is reused. `execute(inputs, step)` runs a round and times
each call into the program inside a `step(key)` context; `outputs` reads
what the program produced, feeds the gate and returns the outputs compared
against the stored reference. The reference is rounds 0 to
`reference_rounds - 1` of DEFAULT_SEED; timed rounds start after them.

Import this module only after the program's `src` directory is on sys.path.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import time
from pathlib import Path

import numpy as np

from gapcert import bounds as bd
from gapcert import cli
from gapcert import hamiltonian as ham
from gapcert import verify as vf
from gapcert.config import parse_config, random_gibbs_instance
from gapcert.model import FiniteDataSpace, PriorWeights, enumerate_samples, generalization_gap

DEFAULT_SEED = 0
PROGRAM = Path(cli.__file__).resolve().parent
PROBE_SECONDS = 0.25


def round_seed(seed: int, index: int) -> int:
    """The seed of round `index` of workload seed `seed`, below 2**32."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rate(fn) -> float:
    """Units per second of fn(), which returns the units it did; fn is
    repeated until PROBE_SECONDS have passed."""
    units = 0
    start = time.perf_counter()
    while True:
        units += fn()
        elapsed = time.perf_counter() - start
        if elapsed >= PROBE_SECONDS:
            return units / elapsed


class ExactOracles:
    """A tiny Gibbs instance (|X|=3, m=4, n=5) through every exact oracle.

    Round i draws its own instance and martingale tables, takes
    beta = betas[i % 4] (the acceptance family, beta = n included) and
    scans a quarter-size random grid over criterion 9's kl-inverse domain.
    """

    name = "exact_oracles"
    n = 5
    logz_n = 3
    num_points = 3
    num_hypotheses = 4
    betas = (0.0, 1.0, 5.0, float(n))
    delta = 0.05
    martingale_ns = (2, 3)
    martingale_cases = ("i", "ii", "iii")
    martingale_trials = 2
    kl_p_points = 25
    kl_B_points = 100
    reference_rounds = len(betas)
    work_unit = "states"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.prior = PriorWeights.uniform(self.num_hypotheses)
        self.martingale_space = FiniteDataSpace(points=("a", "b"),
                                                probs=np.array([0.35, 0.65]))
        x, m = self.num_points, self.num_hypotheses
        # per round: the brute-force coefficient, four mixed MGFs, two main
        # propositions and the unit-MGF lemma at n, log Z at logz_n, and
        # one enumeration per martingale call
        martingale_samples = len(self.martingale_cases) * sum(2**k for k in self.martingale_ns)
        self.samples_per_round = 8 * x**self.n + x**self.logz_n + martingale_samples
        self.work_per_round = (8 * x**self.n * m + x**self.logz_n * m
                               + martingale_samples * self.martingale_trials)

    def prepare(self, index: int) -> dict:
        seed = round_seed(self.seed, index)
        rng = np.random.default_rng(seed)
        space, loss = random_gibbs_instance(seed, self.num_points, self.num_hypotheses)
        return {
            "index": index, "seed": seed, "space": space, "loss": loss,
            "beta": self.betas[index % len(self.betas)],
            "p_grid": np.sort(rng.uniform(0.0, 0.9, self.kl_p_points)),
            "B_grid": np.sort(rng.uniform(1e-6, 0.5, self.kl_B_points)),
        }

    def execute(self, inputs: dict, step) -> dict[str, float]:
        n, prior, beta = self.n, self.prior, inputs["beta"]
        space, loss = inputs["space"], inputs["loss"]
        spec = ham.Gibbs(beta=beta)
        tag = f"round{inputs['index']}"
        margins = {}
        with step("bounded_difference_coefficient"):
            c, _ = ham.bounded_difference_coefficient(spec, space, loss, n, mode="brute_force")
        for lam in (0.1 * n, 0.5 * n, float(n), 2.0 * n):
            with step(f"exact_mixed_mgf lam={lam!r}"):
                lhs = vf.exact_mixed_mgf(spec, space, loss, prior, n, lam)
            rhs = bd.bound_mgf_bounded_differences(loss.bound_b, c, n, lam)
            margins[f"{tag}/mixed_mgf/lam={lam!r}"] = rhs - lhs
        with step("check_proposition_main gap"):
            rep = vf.check_proposition_main(
                spec, space, loss, prior, n,
                lambda h, s: float(n) * generalization_gap(h, s, space, loss))
        margins[f"{tag}/{rep.name}/gap"] = rep.margin
        c_analytic = beta * loss.bound_b / n
        F = vf.bernstein_f_factory(space, loss, n, c_analytic, self.delta)
        with step("check_proposition_main bernstein"):
            rep = vf.check_proposition_main(spec, space, loss, prior, n, F, name="bernstein_F")
        margins[f"{tag}/{rep.name}"] = rep.margin
        with step("check_bernstein_unit_mgf"):
            reports = vf.check_bernstein_unit_mgf(space, loss, n, c_analytic, self.delta)
        with step("check_logZ_bounded_differences"):
            reports += vf.check_logZ_bounded_differences(spec, space, loss, prior, self.logz_n)
        for rep in reports:
            margins[f"{tag}/{rep.name}"] = rep.margin
        for case, mn in itertools.product(self.martingale_cases, self.martingale_ns):
            with step(f"check_martingale_mgf {case} n={mn}"):
                reports = vf.check_martingale_mgf(self.martingale_space, mn, case,
                                                  self.martingale_trials,
                                                  seed=inputs["seed"] + mn)
            for rep in reports:
                margins[f"{tag}/n={mn}/{rep.name}"] = rep.margin
        with step("kl_inverse_upper grid"):
            residual = self.kl_worst_residual(inputs["p_grid"], inputs["B_grid"])
        margins[f"{tag}/kl_inverse_residual"] = bd.KL_INVERSE_RESIDUAL_TOL - residual
        return margins

    @staticmethod
    def kl_worst_residual(p_grid, B_grid) -> float:
        """Criterion 9's residual scan over the grid p_grid x B_grid."""
        worst = 0.0
        for p in p_grid:
            for B in B_grid:
                q = bd.kl_inverse_upper(float(p), float(B))
                if q < 1.0:
                    worst = max(worst, abs(bd.kl_bernoulli(float(p), q) - B))
                elif bd.kl_bernoulli(float(p), 1.0 - 1e-15) > B + 1e-10:
                    worst = math.inf
        return worst

    def outputs(self, margins: dict[str, float], gate) -> dict[str, float]:
        for name, value in margins.items():
            gate.margin(f"{self.name} seed {self.seed} {name}", value)
        return margins

    def instrument(self, tracer, recorded: list) -> None:
        tracer.wrap(ham, "bounded_difference_coefficient",
                    "hamiltonian.bounded_difference_coefficient")
        for fn in ("exact_mixed_mgf", "check_proposition_main", "check_bernstein_unit_mgf",
                   "check_logZ_bounded_differences", "check_martingale_mgf"):
            tracer.wrap(vf, fn, f"verify.{fn}")
        tracer.wrap(self, "kl_worst_residual", "bounds.kl_inverse_upper.grid")

    def probes(self, inputs: dict, recorded: list) -> dict[str, float]:
        """Layer rates on the inputs of one round; the kl probe scans
        criterion 9's own 100 x 100 grid."""
        space = inputs["space"]
        samples = [s for s, _ in enumerate_samples(space, self.n)]
        spec = ham.Gibbs(beta=self.betas[-1])
        args = (inputs["loss"], self.prior)
        p_grid = np.linspace(0.0, 0.9, 100)
        B_grid = np.linspace(1e-6, 0.5, 100)

        def kl_grid() -> int:
            for p in p_grid:
                for B in B_grid:
                    bd.kl_inverse_upper(float(p), float(B))
            return p_grid.size * B_grid.size

        return {
            "model.enumerate_samples.states": self.samples_per_round,
            "model.enumerate_samples.states_per_s": rate(
                lambda: sum(1 for _ in enumerate_samples(space, self.n))),
            "hamiltonian.log_partition.calls_per_s": rate(
                lambda: len([ham.log_partition(spec, s, *args) for s in samples])),
            "hamiltonian.posterior.calls_per_s": rate(
                lambda: len([ham.posterior(spec, s, *args) for s in samples])),
            "bounds.kl_inverse_upper.calls_per_s": rate(kl_grid),
        }


class TrialWorkload:
    """`gapcert verify`, called in-process through cli.main, on generated
    scenario files; a round writes its own files, with instance.seed and
    master_seed drawn from the round's seed, and verifies each once."""

    reference_rounds = 1
    work_unit = "trials"
    trials: int
    bound_functions = ("bound_bounded_differences", "bound_bernstein",
                       "bound_empirical_bernstein", "bound_subgaussian",
                       "bound_gaussian_randomization")
    record_limit = 20_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out_dir = workdir / "out"
        self.in_dir = workdir / "inputs"
        self.in_dir.mkdir(parents=True, exist_ok=True)
        self.work_per_round = self.trials * len(self.scenarios(0))

    def scenarios(self, seed: int) -> list[tuple[str, str]]:
        raise NotImplementedError

    def prepare(self, index: int) -> list[tuple]:
        """Write round `index`'s scenario files and parse them:
        (scenario_id, path, parsed config) per file."""
        configs = []
        for scenario_id, text in self.scenarios(round_seed(self.seed, index)):
            path = self.in_dir / f"{scenario_id}.txt"
            path.write_text(text)
            configs.append((scenario_id, path, parse_config(path)))
        return configs

    def execute(self, configs: list[tuple], step) -> list[tuple[str, int]]:
        codes = []
        for scenario_id, path, _ in configs:
            with step(scenario_id), contextlib.redirect_stdout(io.StringIO()):
                codes.append((scenario_id, cli.main(["verify", "--config", str(path),
                                                     "--out", str(self.out_dir)])))
        return codes

    def csv_path(self, scenario_id: str) -> Path:
        return self.out_dir / f"{scenario_id}_verify.csv"

    def outputs(self, codes: list[tuple[str, int]], gate) -> dict[str, str]:
        digests = {}
        for scenario_id, code in codes:
            label = f"{self.name} seed {self.seed} {scenario_id}"
            gate.exit_code(label, code)
            data = self.csv_path(scenario_id).read_bytes()
            digests[f"{scenario_id}_verify.csv"] = hashlib.sha256(data).hexdigest()
            for row in csv.DictReader(io.StringIO(data.decode())):
                if row["phase"] == "verify_trials":
                    gate.confidence(f"{label} {row['method']}", float(row["cp_upper"]),
                                    float(row["delta"]))
        return digests

    def csv_bytes(self, configs: list[tuple]) -> int:
        return sum(self.csv_path(sid).stat().st_size for sid, _, _ in configs)

    def instrument(self, tracer, recorded: list) -> None:
        tracer.wrap(cli, "parse_config", "config.parse_config")
        tracer.wrap(cli, "cmd_verify", "cli.verify")
        tracer.wrap(vf, self.trial_function, f"verify.{self.trial_function}")
        for fn_name in self.bound_functions:
            tracer.patch(bd, fn_name, self._recorder(getattr(bd, fn_name), recorded))

    def _recorder(self, fn, recorded: list):
        """Call fn and keep its arguments, for the replay probe."""
        def record(*args, **kwargs):
            if len(recorded) < self.record_limit:
                recorded.append((fn, args, kwargs))
            return fn(*args, **kwargs)
        return record

    def probes(self, configs: list[tuple], recorded: list) -> dict[str, float]:
        """The recorded bound calls replayed, and the CSV bytes of the round
        on `configs`, which must be the last round run."""
        if not recorded:
            raise RuntimeError("no closed-form bound call was recorded in the traced run")
        return {
            "bounds.certificates.calls_per_s": rate(
                lambda: len([fn(*a, **k) for fn, a, k in recorded])),
            "cli.csv.bytes": self.csv_bytes(configs),
        }


GIBBS_SCENARIO = """\
scenario_id = {scenario_id}
n = {n}
instance.seed = {seed}
instance.num_points = 10
instance.num_hypotheses = 16
hamiltonian.beta = {beta!r}
methods = bounded_differences,bernstein,empirical_bernstein,subgaussian_sup,subgaussian_h
trials = {trials}
delta = 0.05
master_seed = {master_seed}
verify.exact = auto
"""


class GibbsTrials(TrialWorkload):
    """|X|=10, m=16, n in {50, 100}, beta in {5, 20}, all five Gibbs methods.
    The state space is far over the enumeration budget, so `auto` skips the
    exact oracles and only the trial loop runs."""

    name = "gibbs_trials"
    trials = 500
    trial_function = "violation_rate_gibbs"

    def scenarios(self, seed):
        out = []
        for index, (n, beta) in enumerate(itertools.product((50, 100), (5.0, 20.0))):
            scenario_id = f"gibbs_n{n}_beta{int(beta)}"
            out.append((scenario_id, GIBBS_SCENARIO.format(
                scenario_id=scenario_id, n=n, seed=seed, beta=beta, trials=self.trials,
                master_seed=seed + index)))
        return out


GAUSSIAN_SCENARIO = """\
scenario_id = gaussian_mean_embedding
hamiltonian.variant = gaussian_kernel
hamiltonian.sigma = 0.5
hamiltonian.algorithm = mean_embedding
n = 100
instance.seed = {seed}
instance.num_points = 8
instance.dim = 2
methods = gaussian_gap,gaussian_gap_bernstein,gaussian_kl_expectation
trials = {trials}
posterior_draws = {draws}
delta = 0.05
master_seed = {master_seed}
"""


class GaussianTrials(TrialWorkload):
    """Mean-embedding randomization, |X|=8, d=2, n=100, sigma=0.5. Features
    lie in [-0.5, 0.5]^2, so 12 n c_A^2 <= 24/n <= sigma^2 for every seed."""

    name = "gaussian_trials"
    trials = 400
    posterior_draws = 2000
    trial_function = "violation_rate_gaussian"
    gap_methods = ("gaussian_gap", "gaussian_gap_bernstein")
    kl_methods = ("gaussian_kl_expectation",)

    def scenarios(self, seed):
        return [("gaussian_mean_embedding", GAUSSIAN_SCENARIO.format(
            seed=seed, trials=self.trials, draws=self.posterior_draws,
            master_seed=seed))]

    def probes(self, configs, recorded):
        cfg = configs[0][2]

        def trials_of(methods):
            def run() -> int:
                vf.violation_rate_gaussian(cfg.space, cfg.loss, cfg.spec.algorithm,
                                           cfg.spec.sigma, cfg.n, cfg.delta, methods,
                                           self.trials, cfg.master_seed,
                                           posterior_draws=cfg.posterior_draws)
                return self.trials
            return run

        return {
            **super().probes(configs, recorded),
            "verify.violation_rate_gaussian.trials_per_s": rate(trials_of(self.gap_methods)),
            "verify.violation_rate_gaussian.kl_trials_per_s": rate(trials_of(self.kl_methods)),
            "verify.violation_rate_gaussian.posterior_draws": self.posterior_draws,
        }


WORKLOADS = {w.name: w for w in (ExactOracles, GibbsTrials, GaussianTrials)}


def untimed_step(key: str):
    return contextlib.nullcontext()


def reference_outputs(name: str, workdir: Path, gate) -> dict:
    """Outputs of the reference rounds of workload `name` on the default
    seed, untimed."""
    workload = WORKLOADS[name](DEFAULT_SEED, workdir)
    outputs = {}
    for index in range(workload.reference_rounds):
        raw = workload.execute(workload.prepare(index), untimed_step)
        outputs.update(workload.outputs(raw, gate))
    return outputs
