"""Scenario configuration: plain-text key/value tree parsing and validation.

One file per scenario. The format is line oriented:

    # comment
    key.subkey = value

Values are scalars or comma-separated lists. `_KEYS` holds each key's
default, the parser that checks its domain and the kinds of scenario that
read it. A key that is unknown, or that the scenario's kind never reads, is
an error (no silent ignoring); validation reports every problem at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bounds import StabilityPreconditionError, check_stability
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


# The kinds of scenario. A file's kind is worked out from its own keys, and
# decides which keys it may name.
RANDOM = "random Gibbs"
FILE = "instance.file Gibbs"
GAUSSIAN = "gaussian_kernel"
GIBBS = (RANDOM, FILE)
ALL = (RANDOM, FILE, GAUSSIAN)


def number_in(convert, lo: float, hi: float = math.inf, strict: bool = False):
    """A parser: a number that `convert` (int or float) reads from the text,
    finite and in [lo, hi], or in (lo, hi) if strict."""

    def number(text: str):
        value = convert(text)
        if not (-math.inf < value < math.inf
                and (lo < value < hi if strict else lo <= value <= hi)):
            domain = f"({lo}, {hi})" if strict else f"[{lo}, {hi}]"
            raise ValueError(f"{text!r} is not a finite number in {domain}")
        return value

    return number


def _one_of(*choices: str):
    def choice(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text
    return choice


def _list_of(parse):
    """A parser: a comma-separated list of items that `parse` accepts."""
    return lambda text: tuple(parse(item.strip()) for item in text.split(","))


def _beta_tag(text: str) -> str | float:
    """A compare.betas entry: the tag sqrt_n or n_over_10, or a beta >= 0."""
    return text if text in ("sqrt_n", "n_over_10") else number_in(float, 0.0)(text)


def _file_stem(text: str) -> str:
    """A scenario_id, which names the output files."""
    if not text or "/" in text or "\\" in text:
        raise ValueError(f"{text!r} is empty or holds a path separator")
    return text


def _methods(text: str) -> tuple[str, ...]:
    """Names in verify.SCENARIO_METHODS, each once; empty for the default."""
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in SCENARIO_METHODS:
            raise ValueError(f"unknown method {m!r}")
        if methods.count(m) > 1:
            raise ValueError(f"{m!r} is listed more than once")
    return methods


class Key(NamedTuple):
    default: str | None
    parse: Callable[[str], Any]  # raises ValueError on a value outside the domain
    kinds: tuple[str, ...] = ALL  # the kinds of scenario that read the key


_KEYS = {
    "scenario_id": Key(None, _file_stem),  # default: the file's stem
    "instance.file": Key(None, load_loss_table, (FILE,)),
    "instance.seed": Key("0", number_in(int, 0), (RANDOM, GAUSSIAN)),
    "instance.num_points": Key("10", number_in(int, 1), (RANDOM, GAUSSIAN)),
    "instance.num_hypotheses": Key("16", number_in(int, 1), (RANDOM,)),
    "instance.dim": Key("2", number_in(int, 1), (GAUSSIAN,)),
    "hamiltonian.variant": Key("gibbs", _one_of("gibbs", "gaussian_kernel")),
    "hamiltonian.beta": Key("5.0", number_in(float, 0.0), GIBBS),
    "hamiltonian.sigma": Key("0.5", number_in(float, 0.0, strict=True), (GAUSSIAN,)),
    # a name hamiltonian.builtin_algorithm knows, checked as the instance is built
    "hamiltonian.algorithm": Key("mean_embedding", str, (GAUSSIAN,)),
    "n": Key(None, number_in(int, 1)),  # required
    "delta": Key("0.05", number_in(float, 0.0, 1.0, strict=True)),
    "methods": Key(None, _methods),  # default: the variant's first method
    "trials": Key("1000", number_in(int, 1)),
    "master_seed": Key("0", number_in(int, 0)),
    "enumeration_budget": Key(str(DEFAULT_ENUMERATION_BUDGET), number_in(int, 1), GIBBS),
    "posterior_draws": Key("10000", number_in(int, 1), (GAUSSIAN,)),
    "out": Key("out", str),
    "verify.exact": Key("auto", _one_of("auto", "require", "skip"), GIBBS),
    "compare.ns": Key("100,1000,10000", _list_of(number_in(int, 1))),
    "compare.betas": Key("0,sqrt_n,n_over_10", _list_of(_beta_tag)),
    "compare.deltas": Key("0.5,0.05,0.01", _list_of(number_in(float, 0.0, 1.0, strict=True))),
    # the tightness grid takes the loss bound b = 1
    "compare.l_hats": Key("0,0.1,0.3", _list_of(number_in(float, 0.0, 1.0))),
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
    enumeration_budget: int | None  # None for the Gaussian kernel, which reads none
    posterior_draws: int | None  # None for Gibbs scenarios, which read none
    out_dir: str
    verify_exact: str | None  # None for the Gaussian kernel, which has no exact regime
    compare_ns: tuple[int, ...]
    compare_betas: tuple[str | float, ...]
    compare_deltas: tuple[float, ...]
    compare_l_hats: tuple[float, ...]

    def beta_grid(self, n: int) -> list[float]:
        tags = {"sqrt_n": math.sqrt(n), "n_over_10": n / 10.0}
        return [tags.get(beta, beta) for beta in self.compare_betas]


def _read_kv(path) -> dict:
    kv = {}
    errors = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            errors.append(f"line {lineno}: expected 'key = value'")
        elif key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
        elif key in kv:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        else:
            kv[key] = value
    if errors:
        raise ConfigError(errors)
    return kv


def _random_space(rng: np.random.Generator, num_points: int) -> FiniteDataSpace:
    probs = rng.dirichlet(np.ones(num_points))
    return FiniteDataSpace(points=tuple(f"x{i}" for i in range(num_points)), probs=probs)


def random_gibbs_instance(seed: int, num_points: int, num_hypotheses: int):
    rng = np.random.Generator(np.random.Philox(key=seed))
    space = _random_space(rng, num_points)
    values = rng.uniform(0.0, 1.0, size=(num_hypotheses, num_points))
    return space, FiniteTable(values=values, bound_b=1.0)


def cosine_parametric_loss(features: np.ndarray) -> ParametricLoss:
    """Bounded smooth loss (1 + cos<h, phi(x)>)/2 over per-point features."""
    phi = np.asarray(features, dtype=float)

    def ev(h: np.ndarray, i: int) -> float:
        return 0.5 * (1.0 + math.cos(float(h @ phi[i])))

    return ParametricLoss(dim_d=phi.shape[1], evaluator=ev,
                          batch_evaluator=lambda hs: 0.5 * (1.0 + np.cos(hs @ phi.T)),
                          bound_b=1.0)


def _instance(kind: str, v: dict):
    """(space, loss, prior, spec) of a scenario whose keys all parsed; the
    ValueError names the key at fault."""
    if kind != GAUSSIAN:
        space, loss = v["instance.file"] if kind == FILE else random_gibbs_instance(
            v["instance.seed"], v["instance.num_points"], v["instance.num_hypotheses"])
        return space, loss, PriorWeights.uniform(loss.num_hypotheses), Gibbs(
            beta=v["hamiltonian.beta"])
    seed, num_points, dim, n = (v[k] for k in ("instance.seed", "instance.num_points",
                                               "instance.dim", "n"))
    rng = np.random.Generator(np.random.Philox(key=seed))
    space = _random_space(rng, num_points)
    try:
        algorithm = builtin_algorithm(v["hamiltonian.algorithm"], space, n, dim_d=dim,
                                      seed=seed)
    except KeyError as exc:
        raise ValueError(f"hamiltonian.algorithm: {exc.args[0]}") from None
    sigma, c_A = v["hamiltonian.sigma"], algorithm.declared_c_A
    try:
        check_stability(c_A, sigma, n)
    except StabilityPreconditionError as exc:
        raise ValueError(f"hamiltonian.sigma: {exc}") from None
    loss = cosine_parametric_loss(rng.uniform(-1.0, 1.0, size=(num_points, dim)))
    return space, loss, None, GaussianKernel(sigma=sigma, algorithm=algorithm)


def parse_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario file; raises ConfigError listing
    every problem found."""
    kv = _read_kv(path)
    kv.setdefault("scenario_id", Path(path).stem)
    if "instance.file" in kv:  # relative to the scenario file, which may be moved with it
        kv["instance.file"] = str(Path(path).parent / kv["instance.file"])
    kind = (GAUSSIAN if kv.get("hamiltonian.variant") == "gaussian_kernel"
            else FILE if "instance.file" in kv else RANDOM)
    errors = [f"{key}: not read by {kind} scenarios"
              for key in kv if kind not in _KEYS[key].kinds]
    if "n" not in kv:
        errors.append("n: required")
    values = dict.fromkeys(_KEYS)
    for key, (default, parse, kinds) in _KEYS.items():
        text = kv.get(key, default)
        if kind in kinds and text is not None:
            try:
                values[key] = parse(text)
            except (OSError, ValueError) as exc:  # OSError: an unreadable instance.file
                errors.append(f"{key}: {exc}")

    variant = "gaussian_kernel" if kind == GAUSSIAN else "gibbs"
    methods = values["methods"] or tuple(
        m for m, s in SCENARIO_METHODS.items() if s.variant == variant)[:1]
    errors += [f"methods: {m!r} is incompatible with hamiltonian.variant={variant!r}"
               for m in methods if SCENARIO_METHODS[m].variant != variant]

    if not errors:
        try:
            space, loss, prior, spec = _instance(kind, values)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario_id=values["scenario_id"], space=space, loss=loss, prior=prior, spec=spec,
        n=values["n"], delta=values["delta"], methods=methods, trials=values["trials"],
        master_seed=values["master_seed"], enumeration_budget=values["enumeration_budget"],
        posterior_draws=values["posterior_draws"], out_dir=values["out"],
        verify_exact=values["verify.exact"], compare_ns=values["compare.ns"],
        compare_betas=values["compare.betas"], compare_deltas=values["compare.deltas"],
        compare_l_hats=values["compare.l_hats"])
