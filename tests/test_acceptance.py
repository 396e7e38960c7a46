"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion's check pins its own tolerances, seeds, and budgets and
returns (passed, detail); its number is its place in ALL_CRITERIA. This
module runs them through acceptance.run_criterion and reports. Run with -s to
see the lines as they complete.
"""

import functools
import hashlib
import inspect
import math
import re

import pytest

from gapcert import acceptance
from gapcert import bounds as bd
from gapcert import verify as vf
from gapcert.acceptance import ALL_CRITERIA, run_criterion
from gapcert.config import gaussian_kernel_instance, random_gibbs_instance
from gapcert.model import PriorWeights


NUMBERS = range(1, len(ALL_CRITERIA) + 1)


@pytest.mark.parametrize("number", NUMBERS, ids=[f"criterion_{i}" for i in NUMBERS])
def test_criterion(number):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.name} "
          f"({result.seconds:.1f}s) -- {result.detail}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


# the (number, name) of every criterion, as `gapcert accept` writes them in
# the criterion_<number> rows of acceptance.csv
CRITERIA = (
    (1, "mixed MGF vs bounded-difference MGF bound"),
    (2, "main proposition and Bernstein unit-MGF oracle"),
    (3, "martingale MGF oracle suite"),
    (4, "log-partition bounded differences"),
    (5, "Gibbs certificate violation rates"),
    (6, "Gaussian randomization certificates"),
    (7, "tightness vs quoted baselines"),
    (8, "Gaussian moment identity (quadrature)"),
    (9, "kl utilities"),
    (10, "self-bounding and phi-function checks"),
)


def test_criteria_table():
    """The criteria table gives each criterion its number, by its place, and
    its name; read without running a check."""
    assert tuple((number, name) for number, (name, _) in enumerate(ALL_CRITERIA, 1)) == CRITERIA


# sha256 prefixes of the repr of the (name, lhs, rhs) triples of the exact
# reports that criteria 1-4 judge, as CSV_SHA256 pins the CSVs; no change may
# move a bit of them
EXACT_REPORTS_SHA256 = {1: "ac36df6f", 2: "0540ee7a", 3: "74d57382", 4: "28ae039d"}


def test_exact_reports_bit_identical(monkeypatch):
    """Every bit of the exact reports behind criteria 1-4, captured as each
    criterion judges them: the engine's tests compare the mixed MGF, the
    Bernstein unit MGF and the martingale constants only to within 1e-12."""
    judged, judge = [], acceptance._judge_reports

    def capture(reports, *args, **kwargs):
        judged.append([(rep.name, float(rep.lhs), float(rep.rhs)) for rep in reports])
        return judge(reports, *args, **kwargs)

    monkeypatch.setattr(acceptance, "_judge_reports", capture)
    for number in (1, 2, 3, 4):
        run_criterion(number)
    got = {number: hashlib.sha256(repr(triples).encode()).hexdigest()[:8]
           for number, triples in enumerate(judged, 1)}
    assert got == EXACT_REPORTS_SHA256


def test_margin_criteria_use_the_oracle_tolerance(monkeypatch):
    """Negative controls: every criterion that judges reports does so by the
    report's own rule, so an unattainable exact tolerance fails criteria 1-4,
    a Clopper-Pearson level of 1 (every bound 1.0) fails criteria 5 and 6,
    and the closed form with lam^2 + lam in place of lam^2 - lam fails
    criterion 8. A wrong kl inverter, inversion rule or inversion lemma
    fails criterion 9."""
    instances = acceptance._gibbs_instances
    monkeypatch.setattr(acceptance, "_gibbs_instances",
                        lambda betas, **kw: instances(num_seeds=1, betas=betas[:1], **kw))
    controls = [
        (vf, {"EXACT_MARGIN_TOL": 1e6}, (1, 2, 3, 4)),
        (vf, {"CP_LEVEL": 1.0}, (5, 6)),
        (vf, {"gaussian_shift_moment": lambda r, lam: math.exp((lam * lam + lam) * r * r / 2)},
         (8,)),
        (bd, {"kl_inverse_upper": lambda p_hat, B: 1.0}, (9,)),
        (bd, {"gap_from_kl": lambda L_hat, B: 0.0}, (9,)),
        (bd, {"inversion_lemma": lambda L_hat, A: L_hat}, (9,)),
    ]
    for module, patch, numbers in controls:
        with monkeypatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(module, name, value)
            for number in numbers:
                result = run_criterion(number)
                assert not result.passed, (patch, number, result.detail)
    # the controls leave the rules as they were
    assert run_criterion(1).passed


def test_worst_margins_name_their_instance():
    """Criteria 2-4 name the instance of their worst margin, and criterion 4
    takes it over the checks with c > 0, counting those with c = 0 apart.
    Criterion 8 names the case of its largest relative error, which is below
    1e-14 on its 48 cases."""
    assert re.search(r"\(seed\d_beta[\d.]+_\w+\)$", run_criterion(2).detail)
    assert re.search(r"\(n\d_\w+\)$", run_criterion(3).detail)
    detail = run_criterion(4).detail
    assert detail.startswith("40 checks, 0 failures, worst margin ")
    assert "worst margin 0.000e+00" not in detail
    assert "(seed" in detail and detail.endswith(" over the 30 with c > 0; 10 with c = 0")
    assert re.fullmatch(r"48 checks, 0 failures, worst relative error \d\.\de-(1[5-9]|[2-9]\d) "
                        r"\(d\d_lam[\d.]+_ratio[\d.]+\)",
                        run_criterion(8).detail)



# The ledger of `bounds`: what runs each public function.
# A path is "method <name>", an entry of verify.SCENARIO_METHODS, which
# `certify` and `verify` run; "criterion <number>", an acceptance criterion;
# or "compare", the grid of `gapcert compare`. A function with no path is
# "unreached", with the ROADMAP direction that would reach it. Each variant
# of bound_gaussian_randomization has a line of its own.
LEDGER = {
    "kl_bernoulli": ("criterion 9",),
    "kl_inverse_upper": ("criterion 9",),
    "gap_from_kl": ("compare", "criterion 7", "criterion 9"),
    "inversion_lemma": ("criterion 9",),
    "bound_bounded_differences": ("method bounded_differences", "compare", "criterion 7"),
    "bound_mgf_bounded_differences": ("criterion 1",),
    "bound_bernstein": ("method bernstein",),
    "bound_empirical_bernstein": ("method empirical_bernstein", "compare", "criterion 7"),
    "bound_subgaussian": ("method subgaussian_sup", "method subgaussian_h"),
    "check_stability": ("method gaussian_gap", "method gaussian_gap_bernstein",
                        "method gaussian_kl_expectation"),
    "bound_gaussian_randomization variant=gap_joint": ("method gaussian_gap",),
    "bound_gaussian_randomization variant=gap_bernstein": ("method gaussian_gap_bernstein",),
    "bound_gaussian_randomization variant=kl_expectation": ("method gaussian_kl_expectation",),
    "bound_gaussian_randomization variant=mgf": ("unreached: direction 2",),
    "baselines": ("compare", "criterion 7"),
}


def _bounds_functions() -> dict:
    return {name: fn for name, fn in vars(bd).items() if not name.startswith("_")
            and inspect.isfunction(fn) and fn.__module__ == bd.__name__}


def _run_path(path: str) -> None:
    kind, _, name = path.partition(" ")
    if kind == "criterion":
        assert run_criterion(int(name)).passed
    elif kind == "compare":
        vf.tightness_report()
    elif vf.SCENARIO_METHODS[name].variant == "gibbs":
        space, loss = random_gibbs_instance(0, 3, 4)
        vf.certificates(vf.GibbsRun(space, loss, PriorWeights.uniform(4), 5.0, 20, 0.05),
                        (name,), 0)
    else:
        space, loss, spec = gaussian_kernel_instance(0, 6, 2, 100, 0.5, "mean_embedding")
        vf.certificates(vf.GaussianRun(space, loss, spec.algorithm, spec.sigma, 100, 0.05, 10),
                        (name,), 0)


def test_bounds_ledger(monkeypatch):
    """Every public function of `bounds` has a ledger line and every line a
    function; every registry method and registry bound is on a line; and each
    path calls exactly the lines that name it, so no unreached line."""
    functions = _bounds_functions()
    assert {line.split(" ")[0] for line in LEDGER} == set(functions)
    paths = {path for line in LEDGER.values() for path in line}
    assert {f"method {m}" for m in vf.SCENARIO_METHODS} <= paths
    assert {method.bound for method in vf.SCENARIO_METHODS.values()} <= set(functions)
    called = set()

    def recording(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            called.add(name)
            if "variant" in kwargs:
                called.add(f"{name} variant={kwargs['variant']}")
            return fn(*args, **kwargs)
        return call

    for name, fn in functions.items():
        monkeypatch.setattr(bd, name, recording(name, fn))
    for path in sorted(p for p in paths if not p.startswith("unreached")):
        called.clear()
        _run_path(path)
        assert called & set(LEDGER) == {line for line, on in LEDGER.items() if path in on}, path
