"""Tests of the benchmark itself: seeded inputs, metric names, the spec.

The fast tests run with the repository suite. The end-to-end check runs
the real command on ``rest-mixed`` and is opt-in::

    PERFBENCH_E2E=1 PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from perfbench import inputs
from perfbench.common import FAST_PROBE_S, speed_adjusted
from perfbench.ledger import Ledger
from perfbench.library import Loop, _end_to_end, _layer_metrics
from perfbench import calibrate
from perfbench.common import BenchmarkError
from perfbench.rest import (
    Calibrator,
    Sent,
    Step,
    Templates,
    _calibrated,
    _layer_metrics as rest_layer_metrics,
)
from perfbench.run import ROOT, load_spec, result_metrics

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def _names(spec, section):
    return [entry["name"] for entry in spec[section]]


# -- seeded inputs -----------------------------------------------------------------


def test_same_seed_gives_same_inputs():
    steps = [(10, 10.0), (30, 2.5), (90, 2.5)]
    assert inputs.demo_pool(7) == inputs.demo_pool(7)
    assert inputs.zipf_plan(7, 50) == inputs.zipf_plan(7, 50)
    assert inputs.rest_schedule(7, steps) == inputs.rest_schedule(7, steps)
    assert inputs.write_document(7, 3) == inputs.write_document(7, 3)


def test_seed_changes_order_not_mix():
    first, second = inputs.demo_pool(1), inputs.demo_pool(2)
    assert first != second
    assert Counter(i for i in first if isinstance(i, inputs.Explain)) == Counter(
        i for i in second if isinstance(i, inputs.Explain)
    )
    steps = [(10, 10.0)]
    one, two = inputs.rest_schedule(1, steps)[0], inputs.rest_schedule(2, steps)[0]
    assert [op.kind for op in one] != [op.kind for op in two]
    reads = [
        Counter((op.kind, op.ref) for op in ops if op.kind not in ("add", "delete"))
        for ops in (one, two)
    ]
    assert reads[0] == reads[1]


def test_zipf_plan_fixes_the_pairs_and_seeds_the_order():
    one, two = inputs.zipf_plan(1, 48), inputs.zipf_plan(2, 48)
    assert one != two and Counter(one) == Counter(two)
    pairs = {(item.query, item.rank) for item in one}
    assert sorted(query for query, _ in pairs) == list(range(48))


def test_rest_reads_follow_the_four_view_ratio():
    ops = inputs.rest_schedule(4, [(10, 100.0)])[0]
    kinds = Counter(op.kind for op in ops)
    assert kinds["add"] + kinds["delete"] == 50
    assert kinds["explain"] == 3 * kinds["rank"] == 3 * kinds["rerank"]


def test_speed_adjustment_rescales_to_the_fast_state():
    fast = FAST_PROBE_S
    adjusted, slowdown = speed_adjusted([0.010, 0.010], [fast, 2 * fast])
    assert adjusted == pytest.approx([0.010, 0.005])
    assert slowdown == pytest.approx(1.5)


def test_rest_latencies_scale_by_the_median_calibration():
    fast = Calibrator.FAST_S
    records = [Sent("explain", n, due=0.0, done=0.010) for n in range(3)]
    records[0].calibrations = [2 * fast]
    records[1].calibrations = [2 * fast]
    records[2].calibrations = [40 * fast]  # a preempted round trip
    latencies, slowdown, trips = _calibrated(records)
    assert slowdown == pytest.approx(2.0)
    assert latencies == pytest.approx([0.005] * 3)
    assert len(trips) == 3
    with pytest.raises(BenchmarkError):
        _calibrated([Sent("rank", 0, due=0.0, done=0.010)])


def test_calibration_work_is_fixed():
    assert calibrate.answer() == calibrate.answer()
    size = int.from_bytes(calibrate.answer()[:4], "big")
    assert len(json.loads(calibrate.answer()[4:])) == 2 and size > 0


def test_every_delete_follows_its_add_within_a_step():
    for ops in inputs.rest_schedule(3, [(10, 10.0), (30, 2.5), (90, 2.5)]):
        added = set()
        for op in ops:
            if op.kind == "add":
                added.add(op.ref)
            elif op.kind == "delete":
                assert op.ref in added
                added.remove(op.ref)
        assert not added


def test_write_documents_avoid_demo_vocabulary():
    from repro.datasets.covid import covid_corpus
    from repro.text.analyzer import default_analyzer

    analyzer = default_analyzer()
    corpus_terms = {
        term for document in covid_corpus() for term in analyzer.analyze(document.body)
    }
    written = set(analyzer.analyze(inputs.write_document(5, 0)["body"]))
    assert written and not written & corpus_terms


# -- the spec and the printed names ----------------------------------------------------


def test_spec_follows_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += _names(spec, "end_to_end") + _names(spec, "per_layer")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()


def test_end_to_end_names_are_the_spec(spec):
    latencies = [0.001 * (i + 1) for i in range(200)]
    probes = [0.0002 * (1 + i % 3) for i in range(200)]
    loop = Loop(latencies=latencies, probes=probes, explains=200, with_cf=150, wall=1.0)
    measured, _ = _end_to_end([(1.0, 0.9), (1.1, 1.0)], 0.2, loop, 0.99)
    printed = result_metrics(spec, measured, trace=False)
    assert list(printed) == _names(spec, "end_to_end")


def test_per_layer_names_are_in_the_spec(spec):
    library = _layer_metrics(Ledger())
    record = Sent("explain", 0, 0.0, send=0.001, done=0.006, status=200)
    record.body = b'{"explanations": []}'
    trace = {
        "duration_ms": 3.0,
        "spans": [{"name": "store/lookup", "parent_id": None, "duration_ms": 0.1}],
    }
    templates = Templates(
        explain=[{"query": "q", "doc_id": "d", "strategy": "instance/cosine"}],
        rank=[],
        rerank=[],
        requests=[],
    )
    delta = dict(hits=1, misses=1, requests_shed=0)
    delta.update(requests_rate_limited=0, deadline_exceeded=0)
    rest = rest_layer_metrics([(record, trace)], [Step(10, [record])], templates, delta)
    printed = result_metrics(spec, {**library, **rest}, trace=True)
    assert list(printed) == _names(spec, "per_layer")


@pytest.mark.skipif(
    os.environ.get("PERFBENCH_E2E") != "1", reason="set PERFBENCH_E2E=1"
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_spec_metrics(spec, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rest-mixed", "--seed", "1",
         "--seconds", "3", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == _names(spec, section)
