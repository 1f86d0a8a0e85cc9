"""Run the CREDENCE REST service and exercise it over real HTTP.

Starts the Fig. 1 backend (the FastAPI/Uvicorn equivalent) on
localhost:8091 — the port from the paper's deployment — then issues the
demo's requests with the bundled HTTP client. Pass ``--serve-forever``
to keep the server in the foreground for manual exploration with curl.

Run with::

    python examples/serve_api.py
    python examples/serve_api.py --serve-forever
"""

import json
import sys

from repro import DEMO_QUERY, FAKE_NEWS_DOC_ID, demo_engine
from repro.api import HttpClient, serve


def main() -> None:
    engine = demo_engine(ranker="bm25")
    server = serve(engine, port=0)  # ephemeral port; 8091 may be taken
    print(f"CREDENCE service listening on {server.url}")

    if "--serve-forever" in sys.argv:
        print("Press Ctrl-C to stop.")
        try:
            while True:
                import time

                time.sleep(3600)
        except KeyboardInterrupt:
            server.stop()
            return

    client = HttpClient(server.url)

    print("\nGET /health")
    print(json.dumps(client.get("/health").payload, indent=2))

    print(f"\nPOST /rank  query={DEMO_QUERY!r} k=10")
    ranking = client.post("/rank", {"query": DEMO_QUERY, "k": 10}).payload["ranking"]
    for entry in ranking[:5]:
        print(f"  {entry['rank']}. {entry['doc_id']} ({entry['score']:.3f})")

    print("\nPOST /explanations  strategy=document/sentence-removal")
    payload = client.post(
        "/explanations",
        {
            "query": DEMO_QUERY,
            "doc_id": FAKE_NEWS_DOC_ID,
            "strategy": "document/sentence-removal",
            "n": 1,
            "k": 10,
        },
    ).payload
    explanation = payload["explanations"][0]
    print(
        f"  rank {explanation['original_rank']} -> {explanation['new_rank']}, "
        f"removed: {explanation['removed_indices']}"
    )

    print("\nPOST /builder/rerank (covid -> flu, outbreak removed)")
    payload = client.post(
        "/builder/rerank",
        {
            "query": DEMO_QUERY,
            "doc_id": FAKE_NEWS_DOC_ID,
            "k": 10,
            "perturbations": [
                {"type": "replace_term", "term": "covid-19", "replacement": "flu"},
                {"type": "replace_term", "term": "covid", "replacement": "flu"},
                {"type": "remove_term", "term": "outbreak"},
            ],
        },
    ).payload
    print(
        f"  rank {payload['rank_before']} -> {payload['rank_after']} "
        f"valid={payload['is_valid_counterfactual']}"
    )

    server.stop()
    print("\nServer stopped.")


if __name__ == "__main__":
    main()
