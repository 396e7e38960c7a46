"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion function pins its own tolerances, seeds, and budgets; this
module only runs them and reports. Run with -s to see the lines as they
complete.
"""

import pytest

from gapcert import acceptance
from gapcert import verify as vf
from gapcert.acceptance import ALL_CRITERIA


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA,
    ids=[f"criterion_{i}" for i in range(1, len(ALL_CRITERIA) + 1)])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.name} "
          f"({result.seconds:.1f}s) -- {result.detail}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_margin_criteria_use_the_oracle_tolerance(monkeypatch):
    """Criterion 1 judges its worst margin by verify.EXACT_MARGIN_TOL, the
    rule of every exact-regime report: an unattainable tolerance fails it."""
    instances = acceptance._gibbs_instances
    monkeypatch.setattr(acceptance, "_gibbs_instances",
                        lambda betas, **kw: instances(num_seeds=1, betas=betas[:1], **kw))
    monkeypatch.setattr(vf, "EXACT_MARGIN_TOL", 1e6)
    assert not acceptance.criterion_mgf_vs_bounded_differences().passed
