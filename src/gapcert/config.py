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
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bounds import DomainError, StabilityPreconditionError, _square, check_stability
from .hamiltonian import GaussianKernel, Gibbs, HamiltonianSpec, builtin_algorithm
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    CosineLoss,
    FiniteDataSpace,
    FiniteTable,
    PriorWeights,
    load_loss_table,
)
from .verify import SCENARIO_METHODS, kl_draws


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
    # a Philox key: one 128-bit integer, or with the trial index one 64-bit word
    "instance.seed": Key("0", number_in(int, 0, 2**128 - 1), (RANDOM, GAUSSIAN)),
    "instance.num_points": Key("10", number_in(int, 1), (RANDOM, GAUSSIAN)),
    "instance.num_hypotheses": Key("16", number_in(int, 1), (RANDOM,)),
    "instance.dim": Key("2", number_in(int, 1), (GAUSSIAN,)),
    "hamiltonian.variant": Key("gibbs", _one_of("gibbs", "gaussian_kernel")),
    "hamiltonian.beta": Key("5.0", number_in(float, 0.0), GIBBS),
    # its square, which the bounds divide by, is checked as the instance is built
    "hamiltonian.sigma": Key("0.5", number_in(float, 0.0, strict=True), (GAUSSIAN,)),
    # a name hamiltonian.builtin_algorithm knows, checked as the instance is built
    "hamiltonian.algorithm": Key("mean_embedding", str, (GAUSSIAN,)),
    # required; a trial's n + 1 uniforms must lie within numpy's index range
    # in bytes, so that a trial too large to run fails to allocate (MemoryError)
    "n": Key(None, number_in(int, 1, np.iinfo(np.intp).max // 8 - 1)),
    "delta": Key("0.05", number_in(float, 0.0, 1.0, strict=True)),
    "methods": Key(None, _methods),  # default: the variant's first method
    "trials": Key("1000", number_in(int, 1)),
    "master_seed": Key("0", number_in(int, 0, 2**64 - 1)),
    "enumeration_budget": Key(str(DEFAULT_ENUMERATION_BUDGET), number_in(int, 1), GIBBS),
    # read only where verify.kl_draws(instance.dim), where the posterior-expected
    # kl is a mean over this many normals drawn once per run, whose
    # posterior_draws x d floats must lie within numpy's index range in bytes,
    # as n's do; elsewhere it is a Gauss-Hermite rule with no draws, and the
    # key is accepted and not read
    "posterior_draws": Key("10000", number_in(int, 1), (GAUSSIAN,)),
    "verify.exact": Key("auto", _one_of("auto", "require"), GIBBS),
}


class ScenarioConfig(NamedTuple):
    scenario_id: str
    space: FiniteDataSpace
    loss: FiniteTable | CosineLoss
    prior: PriorWeights | None  # None for the Gaussian kernel, which reads none
    spec: HamiltonianSpec
    n: int
    delta: float
    methods: tuple[str, ...]
    trials: int
    master_seed: int
    enumeration_budget: int | None  # None for the Gaussian kernel, which reads none
    posterior_draws: int | None  # None for Gibbs scenarios, which read none
    verify_exact: str | None  # None for the Gaussian kernel, which has no exact regime


def _read_kv(path) -> dict:
    kv = {}
    errors = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a BOM is not a key
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


def gaussian_kernel_instance(seed: int, num_points: int, dim: int, n: int, sigma: float,
                             algorithm: str):
    """(space, loss, spec) of a Gaussian-kernel scenario: a random space,
    the built-in stable algorithm of that name and a cosine loss. The space
    and then the loss's features are drawn from one Philox keyed on the seed;
    the algorithm draws its own from a second Philox on the same key
    (hamiltonian.builtin_algorithm), so the mean embedding's features reuse
    the words of the space's Dirichlet draw. Raises KeyError for an unknown
    algorithm, StabilityPreconditionError if sigma is too small and
    DomainError if its square is not a normal float."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    space = _random_space(rng, num_points)
    stable = builtin_algorithm(algorithm, space, n, dim_d=dim, seed=seed)
    check_stability(stable.declared_c_A, sigma, n)
    loss = CosineLoss(rng.uniform(-1.0, 1.0, size=(num_points, dim)))
    return space, loss, GaussianKernel(sigma=sigma, algorithm=stable)


def _instance(kind: str, v: dict):
    """(space, loss, prior, spec) of a scenario whose keys all parsed. A
    ConfigError names the key at fault; any other ValueError is numpy's, for
    an array past its index range, as a MemoryError is for one past memory."""
    if kind != GAUSSIAN:
        space, loss = v["instance.file"] if kind == FILE else random_gibbs_instance(
            v["instance.seed"], v["instance.num_points"], v["instance.num_hypotheses"])
        # the Bernstein bounds and the ln Z oracle square c = beta b / n
        c = v["hamiltonian.beta"] * loss.bound_b / v["n"]
        if _square(c) == math.inf:
            raise ConfigError([f"hamiltonian.beta: the coefficient beta b / n = {c!r} "
                               f"squares past the largest float"])
        return space, loss, PriorWeights.uniform(loss.num_hypotheses), Gibbs(
            beta=v["hamiltonian.beta"])
    try:
        space, loss, spec = gaussian_kernel_instance(*(v[k] for k in (
            "instance.seed", "instance.num_points", "instance.dim", "n", "hamiltonian.sigma",
            "hamiltonian.algorithm")))
    except KeyError as exc:
        raise ConfigError([f"hamiltonian.algorithm: {exc.args[0]}"]) from None
    except (StabilityPreconditionError, DomainError) as exc:
        raise ConfigError([f"hamiltonian.sigma: {exc}"]) from None
    return space, loss, None, spec


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
    dim, draws = values["instance.dim"], values["posterior_draws"]
    if dim and draws and kl_draws(dim) and 8 * draws * dim > np.iinfo(np.intp).max:
        errors.append(f"posterior_draws: {draws} normals of dimension {dim} pass numpy's "
                      f"index range in bytes")

    variant = "gaussian_kernel" if kind == GAUSSIAN else "gibbs"
    methods = values["methods"] or tuple(
        m for m, s in SCENARIO_METHODS.items() if s.variant == variant)[:1]
    errors += [f"methods: {m!r} is incompatible with hamiltonian.variant={variant!r}"
               for m in methods if SCENARIO_METHODS[m].variant != variant]

    if not errors:
        try:
            space, loss, prior, spec = _instance(kind, values)
        except ConfigError as exc:
            errors += exc.errors
        except (MemoryError, ValueError):  # numpy's, for a table past memory or index range
            sizes = [k for k in ("instance.num_points", "instance.num_hypotheses", "instance.dim")
                     if kind in _KEYS[k].kinds]
            errors.append(f"{', '.join(sizes)}: the instance is too large to allocate")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario_id=values["scenario_id"], space=space, loss=loss, prior=prior, spec=spec,
        n=values["n"], delta=values["delta"], methods=methods, trials=values["trials"],
        master_seed=values["master_seed"], enumeration_budget=values["enumeration_budget"],
        posterior_draws=values["posterior_draws"], verify_exact=values["verify.exact"])
