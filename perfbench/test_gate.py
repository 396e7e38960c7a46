"""Negative controls for the benchmark's gate, and the tracer's self time.

    python3 -m pytest perfbench

The gate must report a CSV that differs by one byte, a Clopper-Pearson
upper bound above delta, and an exact margin 1e-9 away from its reference.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture()
def gibbs(tmp_path):
    w = workloads.GibbsTrials(workloads.DEFAULT_SEED, tmp_path)
    codes = w.execute(w.prepare(0), workloads.untimed_step)
    return w, codes


def test_default_seed_csvs_pass_the_gate(gibbs):
    w, codes = gibbs
    g = gate.Gate()
    g.compare("reference", w.outputs(codes, g), gate.load_reference(w.name))
    assert g.failures == []
    assert g.attempted > len(codes)


def test_flipped_csv_byte_is_reported(gibbs):
    w, codes = gibbs
    path = w.csv_path(codes[0][0])
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01  # "schema" -> "rchema": the rows still parse
    path.write_bytes(bytes(data))
    g = gate.Gate()
    g.compare("reference", w.outputs(codes, g), gate.load_reference(w.name))
    assert len(g.failures) == 1
    assert path.name in g.failures[0]


def test_confidence_bound_above_delta_is_reported(gibbs):
    w, codes = gibbs
    path = w.csv_path(codes[0][0])
    text = path.read_text()
    cp = text.splitlines()[1].split(",")[8]
    assert float(cp) <= 0.05
    path.write_text(text.replace(cp, "0.0625", 1))
    g = gate.Gate()
    g.compare("reference", w.outputs(codes, g), gate.load_reference(w.name))
    assert any("above delta" in f for f in g.failures)
    assert any(path.name in f for f in g.failures)


def test_margin_moved_by_1e_9_is_reported(tmp_path):
    w = workloads.ExactOracles(workloads.DEFAULT_SEED, tmp_path)
    g = gate.Gate()
    margins = w.outputs(w.execute(w.prepare(0), workloads.untimed_step), g)
    reference = {k: v for k, v in gate.load_reference(w.name).items()
                 if k.startswith("round0/")}
    g.compare("reference", margins, reference)
    assert g.failures == []

    name = sorted(margins)[0]
    shifted = dict(margins, **{name: margins[name] + 1e-9})
    g = gate.Gate()
    g.compare("reference", shifted, reference)
    assert g.failed == 1 and name in g.failures[0]


def test_negative_margin_is_reported():
    g = gate.Gate()
    g.margin("ok", -1e-10)
    g.margin("broken", -2e-9)
    assert g.attempted == 2 and g.failed == 1 and "broken" in g.failures[0]


def test_rounds_get_distinct_inputs(tmp_path):
    w = workloads.GibbsTrials(3, tmp_path)
    texts = []
    for index in range(3):
        texts.append([path.read_text() for _, path, _ in w.prepare(index)])
    assert len({tuple(t) for t in texts}) == 3
    assert texts[0] == [path.read_text() for _, path, _ in w.prepare(0)]
    e = workloads.ExactOracles(3, tmp_path)
    first, second = e.prepare(4), e.prepare(8)
    assert first["beta"] == second["beta"]
    assert not (first["loss"].values == second["loss"].values).all()


def test_self_time_excludes_child_spans():
    tracer = Tracer("test")
    with tracer.span("parent"):
        time.sleep(0.02)
        with tracer.span("child"):
            time.sleep(0.03)
    busy = tracer.busy_seconds()
    own = tracer.self_seconds()
    assert own["child"] == pytest.approx(busy["child"])
    assert own["parent"] == pytest.approx(busy["parent"] - busy["child"])
    assert own["parent"] < busy["parent"]


def test_benchmark_json_lists_the_metrics_the_run_emits():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
