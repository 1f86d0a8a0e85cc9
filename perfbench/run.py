"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload demo-neural --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with per-layer spans and prints the
per-layer metrics instead. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the readable report. The metric names and units are those
of ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("demo-neural", "zipf-packed", "rest-mixed")

#: What each generic end-to-end metric is called on each workload.
ALIASES = {
    "demo-neural": {
        "latency_p50_ms": "explain_p50_ms",
        "latency_tail_ms": "explain_p99_ms",
        "throughput_per_s": "explains_per_s",
    },
    "rest-mixed": {
        "latency_p50_ms": "rest_p50_ms",
        "latency_tail_ms": "rest_p90_ms",
        "throughput_per_s": "rest_max_rps",
    },
}
ALIASES["zipf-packed"] = ALIASES["demo-neural"]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_metrics(spec: dict, measured: dict, trace: bool) -> dict:
    """Shape ``measured`` as the result's metrics: exactly the spec's
    end-to-end (untraced) or per-layer (traced) names with their units.
    A per-layer metric a workload does not exercise reads 0."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {entry["name"] for entry in wanted}
    unknown = set(measured) - names
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for entry in wanted:
        value, unit = measured.get(entry["name"], (0, entry["unit"]))
        if not trace and entry["name"] not in measured:
            raise RuntimeError(f"end-to-end metric {entry['name']} was not measured")
        if unit != entry["unit"]:
            raise RuntimeError(
                f"{entry['name']} measured in {unit}, spec says {entry['unit']}"
            )
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return metrics


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop_on_term(signum, frame):
    # Unwind through the workloads' finally blocks, which stop servers.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _stop_on_term)

    from perfbench.common import BenchmarkError, SpeedSampler, emit, environment

    with SpeedSampler() as sampler:  # imports repro: counts toward set-up
        from perfbench.library import run_demo, run_zipf
        from perfbench.rest import run_rest

        import_s = time.perf_counter() - _STARTED
    import_s = sampler.adjust(import_s)
    spec = load_spec()
    run = {"demo-neural": run_demo, "zipf-packed": run_zipf, "rest-mixed": run_rest}[
        args.workload
    ]
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), import_s)
    except BenchmarkError as error:
        print(f"benchmark run invalid: {error}", file=sys.stderr)
        return 3
    metrics = result_metrics(spec, outcome.metrics, bool(args.trace))
    aliases = ALIASES[args.workload]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(
            args.seed,
            corpus_docs=outcome.report.get("corpus_docs"),
            repeat_share=outcome.report.get("service.repeat_share"),
        ),
        "detail": outcome.report,
        "error_rate": outcome.failed / outcome.attempted,
        "metrics": {
            (f"{name} ({aliases[name]})" if name in aliases else name): (
                f"{entry['value']:.6g} {entry['unit']}"
            )
            for name, entry in metrics.items()
        },
    }
    emit(
        report,
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
