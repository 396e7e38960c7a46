"""Write reference.json: the outputs of every workload on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's outputs; the gate
otherwise requires byte-identical CSVs and margins within 1e-12 of these.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        workdir = ROOT / ".perfbench_out" / f"reference-{name}"
        g = gate.Gate()
        try:
            outputs = workloads.reference_outputs(name, workdir, g)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if g.failures:
            print("\n".join(g.failures), file=sys.stderr)
            return 1
        reference[name] = dict(sorted(outputs.items()))
        print(f"{name}: {len(outputs)} outputs, {g.attempted} checks passed")
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
