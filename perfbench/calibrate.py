"""A fixed calibration service for the ``rest-mixed`` workload.

Run as ``python3 perfbench/calibrate.py``: it listens on an ephemeral
loopback port, prints the port, accepts one connection and answers each
line it receives with a length-prefixed JSON body. Each answer ranks a
small synthetic corpus with BM25 for two queries and renders the top ten:
a millisecond of dictionary, float and string work like the server's,
behind the same loopback round trip. The work is fixed, independent of
the program under test and of the run's seed, so its round-trip time
measures only the machine. It exits when the connection closes, or when
no connection comes within a minute.
"""

from __future__ import annotations

import json
import math
import random
import socket
from collections import Counter

_picks = random.Random(0)
VOCABULARY = [f"w{number}" for number in range(2000)]
DOCUMENTS = [
    [_picks.choice(VOCABULARY[: 200 + 18 * number]) for _ in range(120)]
    for number in range(60)
]
TERM_COUNTS = [Counter(document) for document in DOCUMENTS]
DOCUMENT_FREQUENCY = Counter(term for counts in TERM_COUNTS for term in counts)
AVERAGE_LENGTH = sum(map(len, DOCUMENTS)) / len(DOCUMENTS)
QUERIES = [[_picks.choice(VOCABULARY[:300]) for _ in range(4)] for _ in range(2)]


def rank(query: list[str]) -> list[dict]:
    scored = []
    for number, counts in enumerate(TERM_COUNTS):
        score = 0.0
        for term in query:
            frequency = counts.get(term, 0)
            if frequency:
                df = DOCUMENT_FREQUENCY[term]
                idf = math.log(1 + (len(DOCUMENTS) - df + 0.5) / (df + 0.5))
                norm = 0.25 + 0.75 * len(DOCUMENTS[number]) / AVERAGE_LENGTH
                score += idf * frequency * 2.2 / (frequency + 1.2 * norm)
        scored.append((score, number))
    scored.sort(reverse=True)
    return [{"doc": number, "score": score, "terms": query} for score, number in scored[:10]]


def answer() -> bytes:
    body = json.dumps([rank(query) for query in QUERIES]).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def main() -> None:
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(60)
    print(listener.getsockname()[1], flush=True)
    connection, _ = listener.accept()
    listener.close()
    connection.settimeout(None)
    with connection, connection.makefile("rb") as requests:
        while requests.readline():
            connection.sendall(answer())


if __name__ == "__main__":
    main()
