"""Scenario configuration: plain-text key/value tree parsing and validation.

One file per scenario. The format is line oriented:

    # comment
    key.subkey = value

Values are scalars or comma-separated lists. Unknown keys are an error (no
silent ignoring) and validation reports every problem at once, not just the
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hamiltonian import GaussianKernel, Gibbs, HamiltonianSpec, builtin_algorithm
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteDataSpace,
    FiniteTable,
    ParametricLoss,
    PriorWeights,
    load_loss_table,
)
from .verify import SCENARIO_METHODS


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_KNOWN_KEYS = {
    "scenario_id",
    "instance.file", "instance.generator", "instance.seed",
    "instance.num_points", "instance.num_hypotheses", "instance.dim",
    "hamiltonian.variant", "hamiltonian.beta", "hamiltonian.sigma",
    "hamiltonian.algorithm",
    "n", "delta", "methods", "trials", "master_seed", "enumeration_budget",
    "posterior_draws", "out", "verify.exact",
    "compare.ns", "compare.betas", "compare.deltas", "compare.l_hats",
}

# keys that a variant never reads: naming one is an error, as an unknown key is
_VARIANT_IGNORES = {
    "gibbs": ("hamiltonian.sigma", "hamiltonian.algorithm", "instance.dim"),
    "gaussian_kernel": ("instance.file", "hamiltonian.beta", "instance.num_hypotheses",
                        "instance.generator"),
}
# the random-instance keys, which an instance.file replaces
_FILE_IGNORES = ("instance.generator", "instance.seed", "instance.num_points",
                 "instance.num_hypotheses")

_DEFAULTS = {
    "instance.generator": "gibbs_random",
    "instance.seed": "0",
    "instance.num_points": "10",
    "instance.num_hypotheses": "16",
    "instance.dim": "2",
    "hamiltonian.variant": "gibbs",
    "hamiltonian.beta": "5.0",
    "hamiltonian.sigma": "0.5",
    "hamiltonian.algorithm": "mean_embedding",
    "delta": "0.05",
    "trials": "1000",
    "master_seed": "0",
    "enumeration_budget": str(DEFAULT_ENUMERATION_BUDGET),
    "posterior_draws": "10000",
    "out": "out",
    "verify.exact": "auto",
    "compare.ns": "100,1000,10000",
    "compare.betas": "0,sqrt_n,n_over_10",
    "compare.deltas": "0.5,0.05,0.01",
    "compare.l_hats": "0,0.1,0.3",
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    space: FiniteDataSpace
    loss: FiniteTable | ParametricLoss
    prior: PriorWeights | None  # None for the Gaussian kernel, which reads none
    spec: HamiltonianSpec
    n: int
    delta: float
    methods: tuple[str, ...]
    trials: int
    master_seed: int
    enumeration_budget: int
    posterior_draws: int
    out_dir: str
    verify_exact: str
    compare_ns: tuple[int, ...]
    compare_betas: tuple[str, ...]
    compare_deltas: tuple[float, ...]
    compare_l_hats: tuple[float, ...]

    def beta_grid(self, n: int) -> list[float]:
        out = []
        for tag in self.compare_betas:
            if tag == "sqrt_n":
                out.append(math.sqrt(n))
            elif tag == "n_over_10":
                out.append(n / 10.0)
            else:
                out.append(float(tag))
        return out


def _read_kv(path) -> dict:
    kv = {}
    errors = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in kv:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        kv[key] = value
    if errors:
        raise ConfigError(errors)
    return kv


def random_gibbs_instance(seed: int, num_points: int, num_hypotheses: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    probs = rng.dirichlet(np.ones(num_points))
    values = rng.uniform(0.0, 1.0, size=(num_hypotheses, num_points))
    space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)), probs=probs)
    return space, FiniteTable(values=values, bound_b=1.0)


def cosine_parametric_loss(features: np.ndarray) -> ParametricLoss:
    """Bounded smooth loss (1 + cos<h, phi(x)>)/2 over per-point features."""
    phi = np.asarray(features, dtype=float)

    def ev(h: np.ndarray, i: int) -> float:
        return 0.5 * (1.0 + math.cos(float(h @ phi[i])))

    return ParametricLoss(dim_d=phi.shape[1], evaluator=ev,
                          batch_evaluator=lambda hs: 0.5 * (1.0 + np.cos(hs @ phi.T)),
                          bound_b=1.0)


def _gaussian_instance(seed: int, num_points: int, dim: int, n: int, algorithm_name: str):
    rng = np.random.Generator(np.random.Philox(key=seed))
    probs = rng.dirichlet(np.ones(num_points))
    space = FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)), probs=probs)
    algorithm = builtin_algorithm(algorithm_name, space, n, dim_d=dim, seed=seed)
    feats = rng.uniform(-1.0, 1.0, size=(num_points, dim))
    return space, cosine_parametric_loss(feats), algorithm


def parse_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario file; raises ConfigError listing
    every problem found."""
    kv = _read_kv(path)
    merged = dict(_DEFAULTS)
    merged.update(kv)
    errors = []

    def get_float(key, lo=None, hi=None, open_interval=False):
        try:
            v = float(merged[key])
        except ValueError:
            errors.append(f"{key}: not a number ({merged[key]!r})")
            return None
        if lo is not None and (v <= lo if open_interval else v < lo):
            errors.append(f"{key}: {v} below domain")
        if hi is not None and (v >= hi if open_interval else v > hi):
            errors.append(f"{key}: {v} above domain")
        return v

    def get_int(key, lo=None):
        try:
            v = int(merged[key])
        except ValueError:
            errors.append(f"{key}: not an integer ({merged[key]!r})")
            return None
        if lo is not None and v < lo:
            errors.append(f"{key}: {v} below {lo}")
        return v

    if "n" not in merged:
        errors.append("n: required")
        n = None
    else:
        n = get_int("n", lo=1)
    delta = get_float("delta", lo=0.0, hi=1.0, open_interval=True)
    trials = get_int("trials", lo=1)
    master_seed = get_int("master_seed", lo=0)
    budget = get_int("enumeration_budget", lo=1)
    posterior_draws = get_int("posterior_draws", lo=1)
    seed = get_int("instance.seed", lo=0)
    num_points = get_int("instance.num_points", lo=1)
    num_hyp = get_int("instance.num_hypotheses", lo=1)
    dim = get_int("instance.dim", lo=1)

    verify_exact = merged["verify.exact"]
    if verify_exact not in ("auto", "require", "skip"):
        errors.append(f"verify.exact: must be auto, require or skip, got {verify_exact!r}")

    variant = merged["hamiltonian.variant"]
    if variant not in _VARIANT_IGNORES:
        errors.append(f"hamiltonian.variant: unknown variant {variant!r}")
    for key in _VARIANT_IGNORES.get(variant, ()):
        if key in kv:
            errors.append(f"{key}: not used by hamiltonian.variant={variant!r}")
    if "instance.file" in kv:
        for key in _FILE_IGNORES:
            if key in kv:
                errors.append(f"{key}: not used next to instance.file")

    methods = tuple(m.strip() for m in merged.get("methods", "").split(",") if m.strip())
    if not methods:
        # the default is the variant's first method in the registry
        methods = tuple(m for m, s in SCENARIO_METHODS.items() if s.variant == variant)[:1]
    for m in methods:
        if m not in SCENARIO_METHODS:
            errors.append(f"methods: unknown method {m!r}")
        elif SCENARIO_METHODS[m].variant != variant:
            errors.append(
                f"methods: {m!r} is incompatible with hamiltonian.variant={variant!r}")

    space = loss = prior = spec = None
    if not errors and n is not None:
        if variant == "gibbs":
            if "instance.file" in merged:
                try:
                    space, loss = load_loss_table(merged["instance.file"])
                except (OSError, ValueError) as exc:
                    errors.append(f"instance.file: {exc}")
            else:
                gen = merged["instance.generator"]
                if gen != "gibbs_random":
                    errors.append(f"instance.generator: unknown generator {gen!r} for gibbs")
                else:
                    space, loss = random_gibbs_instance(seed, num_points, num_hyp)
            if loss is not None:
                prior = PriorWeights.uniform(loss.num_hypotheses)
                beta = get_float("hamiltonian.beta", lo=0.0)
                if beta is not None:
                    spec = Gibbs(beta=beta)
        else:
            sigma = get_float("hamiltonian.sigma", lo=0.0, open_interval=True)
            try:
                space, loss, algorithm = _gaussian_instance(
                    seed, num_points, dim, n, merged["hamiltonian.algorithm"])
            except KeyError as exc:
                errors.append(f"hamiltonian.algorithm: {exc.args[0]}")
            else:
                if sigma is not None:
                    spec = GaussianKernel(sigma=sigma, algorithm=algorithm)
                    c_A = algorithm.declared_c_A
                    if 12.0 * n * c_A**2 > sigma**2:
                        errors.append(
                            "hamiltonian.sigma: stability precondition 12 n c_A^2 <= "
                            f"sigma^2 fails (c_A={c_A}, sigma={sigma}, n={n})")

    def get_list(key, convert):
        try:
            return tuple(convert(x.strip()) for x in merged[key].split(","))
        except ValueError:
            errors.append(f"{key}: malformed list {merged[key]!r}")
            return ()

    def beta_tag(tag):
        if tag not in ("sqrt_n", "n_over_10"):
            float(tag)  # a malformed tag fails here rather than in `compare`
        return tag

    compare_ns = get_list("compare.ns", int)
    compare_betas = get_list("compare.betas", beta_tag)
    compare_deltas = get_list("compare.deltas", float)
    compare_l_hats = get_list("compare.l_hats", float)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario_id=merged.get("scenario_id", Path(path).stem),
        space=space, loss=loss, prior=prior, spec=spec,
        n=n, delta=delta, methods=methods, trials=trials,
        master_seed=master_seed, enumeration_budget=budget,
        posterior_draws=posterior_draws, out_dir=merged["out"],
        verify_exact=verify_exact,
        compare_ns=compare_ns, compare_betas=compare_betas,
        compare_deltas=compare_deltas, compare_l_hats=compare_l_hats)
