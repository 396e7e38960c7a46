"""The benchmark's correctness gate.

A check is one of: an exact-regime margin below -1e-9, a Clopper-Pearson
upper bound above delta, a nonzero exit code, an output that differs from
the stored reference (a CSV digest that is not byte-identical, or a margin
more than 1e-12 away), or a repeated round whose outputs differ from the
first time the same inputs ran. Every check is counted; failures are kept
with a description so that a run can say what went wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

EXACT_MARGIN_TOL = -1e-9
REFERENCE_MARGIN_TOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_margin: float | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def margin(self, name: str, value: float) -> None:
        if self.worst_margin is None or value < self.worst_margin:
            self.worst_margin = value
        self.check(value >= EXACT_MARGIN_TOL, f"{name}: margin {value!r} below {EXACT_MARGIN_TOL}")

    def exit_code(self, name: str, code: int) -> None:
        self.check(code == 0, f"{name}: exit code {code}")

    def confidence(self, name: str, cp_upper: float, delta: float) -> None:
        self.check(cp_upper <= delta,
                   f"{name}: Clopper-Pearson upper bound {cp_upper!r} above delta {delta!r}")

    def compare(self, label: str, observed: dict, reference: dict) -> None:
        """One check per reference key: floats (margins) within
        REFERENCE_MARGIN_TOL, strings (sha256 digests) equal. Keys only one
        side has also fail."""
        for key in sorted(set(observed) | set(reference)):
            if key not in observed or key not in reference:
                self.check(False, f"{label} {key}: present on one side only")
                continue
            got, want = observed[key], reference[key]
            if isinstance(want, float):
                ok = isinstance(got, float) and abs(got - want) <= REFERENCE_MARGIN_TOL
            else:
                ok = got == want
            self.check(ok, f"{label} {key}: {got!r} != reference {want!r}")


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]
