"""Smoke test of the benchmark at toy sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Checks that every workload runs, passes its own output checks, reports
exactly the metrics BENCHMARK.json declares with their units, and gives the
same fingerprint twice for one seed.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from measure import measure_layers, measure_plain  # noqa: E402
from tracing import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "target-train": {"updates": 1, "horizon": 256},
    "setup-train": {"budget": 3000, "horizon": 64},
    "bridged-eval": {"seeds_per_instance": 1, "episodes": 2},
}


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_its_metrics_and_repeats_its_fingerprint(name, tmp_path):
    def make():
        return WORKLOADS[name](7, tmp_path, **TINY[name])

    plain = measure_plain(make, 0)
    traced = measure_layers(make, 0)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["notes"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    assert plain["metrics"]["ticks_per_s"]["value"] > 0
    assert traced["metrics"]["terrainsim.step.calls"]["value"] > 0
    assert traced["digest"] == plain["digest"] == measure_layers(make, 0)["digest"]


def test_missing_trace_target_is_reported_not_fatal():
    tracer = Tracer([Target("gone", "gaitbridge.diffcore.tape:GradientTape.removed"),
                     Target("gone2", "gaitbridge.nosuchmodule:fn")])
    tracer.install()
    tracer.uninstall()
    assert [t.span for t in tracer.absent] == ["gone", "gone2"]
    assert tracer.summary()["gone"]["calls"] == 0

