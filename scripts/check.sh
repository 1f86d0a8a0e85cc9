#!/usr/bin/env bash
# Repo gate: the tier-1 test suite plus a benchmark smoke pass.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full test suite =="
python -m pytest -x -q

echo
echo "== analyzer: memoised path vs unmemoised oracle =="
python -m pytest -q tests/text

echo
echo "== scoring-session equivalence (session == naive re-ranking) =="
python -m pytest -q tests/ranking/test_session_equivalence.py

echo
echo "== search kernel: budgets, strategies, pre-refactor equivalence =="
python -m pytest -q tests/core/test_search_budget.py \
    tests/core/test_search_strategies.py tests/core/test_search_equivalence.py

echo
echo "== Doc2Vec: minibatch trainer vs per-token oracle, Fig. 4 near-copy gate =="
python -m pytest -q tests/embeddings/test_doc2vec_oracle.py \
    benchmarks/bench_fig4_instance_cf.py

echo
echo "== smoke: search-strategy benchmark (beam multi-edit, anytime deadline) =="
SEARCH_SMOKE=1 python -m pytest -q benchmarks/bench_search_strategies.py

echo
echo "== smoke: API dispatch benchmark (overhead budget < 5%) =="
python -m pytest -q benchmarks/bench_api_dispatch.py

echo
echo "== smoke: counterfactual scoring-session speedup =="
CF_SESSION_SMOKE=1 python -m pytest -q benchmarks/bench_cf_session.py

echo
echo "== service layer: jobs, pool, store, parallel equivalence =="
python -m pytest -q tests/service tests/api/test_jobs_endpoints.py

echo
echo "== smoke: service batch throughput (parallel + store) =="
SERVICE_SMOKE=1 python -m pytest -q benchmarks/bench_service_throughput.py

echo
echo "== serving hardening: admission, deadlines, chaos suite =="
python -m pytest -q tests/service/test_admission.py \
    tests/service/test_deadlines.py tests/service/test_chaos.py \
    tests/service/test_metrics_schema.py \
    tests/api/test_admission_endpoints.py tests/api/test_streaming.py

echo
echo "== smoke: admission under 10x saturation (typed sheds, bounded p95) =="
ADMISSION_SMOKE=1 python -m pytest -q benchmarks/bench_admission.py

echo
echo "== process tier: pool, fork safety, worker-death chaos =="
python -m pytest -q tests/service/test_process_pool.py \
    tests/service/test_process_chaos.py \
    tests/index/test_manifest_fork_safety.py

echo
echo "== smoke: process-tier benchmark (byte-identical across tiers) =="
PROC_SMOKE=1 python -m pytest -q benchmarks/bench_process_tier.py

echo
echo "== sharded corpus: routers, persistence, byte-identical equivalence =="
python -m pytest -q tests/index/test_sharding.py \
    tests/index/test_sharded_equivalence.py

echo
echo "== smoke: sharded parallel-ingest benchmark (>= 2x full target) =="
SHARDED_INGEST_SMOKE=1 python -m pytest -q benchmarks/bench_sharded_ingest.py

echo
echo "== v3 persistence: format, crash safety, replicas, equivalence =="
python -m pytest -q tests/index/test_persist_format.py \
    tests/index/test_persist_crash.py tests/index/test_replicas.py \
    tests/index/test_persist_equivalence.py

echo
echo "== smoke: v3 cold-load benchmark (>= 10x full attach target) =="
PERSIST_SMOKE=1 python -m pytest -q benchmarks/bench_persist.py

echo
echo "== observability: trace units, exposition pins, tracing-off equivalence =="
python -m pytest -q tests/obs tests/api/test_debug_traces.py \
    tests/api/test_request_id_lint.py tests/test_cli_metrics.py

echo
echo "== smoke: tracing overhead benchmark (no-op path + on/off sweeps) =="
OBS_SMOKE=1 python -m pytest -q benchmarks/bench_obs.py

echo
echo "== eval harness: fidelity invariants, scaled studies, streaming corpora =="
python -m pytest -q tests/eval tests/datasets/test_stream.py \
    tests/text/test_analyzer_properties.py \
    tests/index/test_varint_properties.py

echo
echo "== smoke: large-eval benchmark (quality floors + tier equivalence) =="
EVAL_SMOKE=1 python -m pytest -q benchmarks/bench_large_eval.py

echo
echo "== coverage floor: eval + datasets layers (ratcheted) =="
python scripts/coverage_floor.py

echo
echo "== docs: doc-sync guard + quickstart and REST example smokes =="
python -m pytest -q tests/test_doc_sync.py
QUICKSTART_RANKER=bm25 QUICKSTART_FILLER=12 \
    python examples/quickstart.py > /dev/null
echo "quickstart smoke: ok"
# bm25 server on a loopback ephemeral port, driven over real HTTP.
python examples/serve_api.py > /dev/null
echo "serve_api smoke: ok"

echo
echo "check.sh: all green"
