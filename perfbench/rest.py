"""The ``rest-mixed`` workload: an open-loop generator against ``serve``.

``python -m repro.cli serve --ranker bm25`` runs on the demo corpus in a
subprocess. One generator process drives it over at most ``nproc``
persistent HTTP/1.1 connections, each request sent in a single write
with no socket options set, timed from the moment it was due. The
schedule climbs a fixed rate ladder; the first rate is the reference.

With two or more usable cores the server is pinned to one of them, and
so is a fixed calibration service (``perfbench/calibrate.py``). At the
reference rate the generator times a calibration round trip shortly
before each request is due, while no request is in flight; the
reference step's latencies are rescaled by their median, so that a run
on a slow spell of the machine reads like one on a fast spell.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import ExplainRequest, demo_engine
from repro.api.schemas import parse_explain_request
from repro.datasets.covid import covid_training_queries
from repro.eval.fidelity import recheck_explanation
from repro.index.document import Document

from perfbench import inputs
from perfbench.common import (
    ROOT,
    WORK_DIR,
    BenchmarkError,
    Outcome,
    mean,
    median,
    percentile,
    process_peak_rss_mb,
    window_percentile,
)
from perfbench.ledger import TABLE_HEADER

#: (rate req/s, share of the run's seconds). The first is the reference
#: and gets most of the run, for samples beyond its tail percentile.
LADDER = ((10, 0.8), (30, 0.1), (90, 0.1))

#: The interactive latency limit on a step's p99.
LIMIT_S = 0.2

#: A run whose generator sent this late (p99) is invalid, not slow.
MAX_GEN_LAG_S = 0.02

#: Server start-up is short (~0.6 s), so five starts cost little and
#: steady the median.
SETUP_REPEATS = 5

#: Explain templates replayed after the ladder to check payloads.
VERIFY_SAMPLE = 8

#: Write-document number of the verification phase's own add/delete.
VERIFY_DOCUMENT = 1_000_000

#: The request kinds that read (the rest are writes).
READS = ("explain", "rank", "rerank")


class Connection:
    """A keep-alive HTTP/1.1 connection that sends each request in one write."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body=None, request_id: str | None = None):
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        )
        if request_id is not None:
            head += f"X-Request-Id: {request_id}\r\n"
        self.sock.sendall(head.encode("ascii") + b"\r\n" + payload)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def fetch(port: int, method: str, path: str, body=None):
    """One request on a fresh connection; returns (status, decoded JSON)."""
    connection = Connection(port)
    try:
        status, raw = connection.request(method, path, body)
    finally:
        connection.close()
    return status, json.loads(raw) if raw else None


def server_core() -> set | None:
    """The core the server and the calibration service are pinned to: the
    last usable one, or None (no pinning) when there is only one.

    Only they are pinned. The generator's connections keep every core:
    on one core they would queue for the interpreter lock behind each
    other's spin-waits, and at 30 req/s the round trip grew from ~3 to
    ~115 ms when they were.
    """
    cores = sorted(os.sched_getaffinity(0))
    return {cores[-1]} if len(cores) > 1 else None


def _pinned(cores: set | None):
    """A ``preexec_fn`` that pins the child to ``cores`` (None: no pinning)."""
    if cores is None:
        return None
    return lambda: os.sched_setaffinity(0, cores)


class Calibrator:
    """Round trips to the fixed calibration service on the server's core.

    The shared virtual machine the benchmark was built on runs the same
    code up to twice as slowly from one run to the next. The library
    workloads' speed probe, a loop timed in the calling thread, follows
    that for code that runs without pause, but not for a server woken on
    an idle core ten times a second. In twelve reference steps on that
    machine, with round trips timed before and after each request, the
    server's speed (its latency per request template, against that
    template's median) moved with the speed probe's mean at a slope of
    1.5 (correlation 0.87), and with this round trip's mean at a slope
    of 0.98 (correlation 0.93). The round trip runs the same kind of
    work as the server, behind the same loopback transport, on the same
    core, and its code never changes with the program.
    """

    #: The round trip's 5th percentile on the reference machine (a 2-vCPU
    #: shared Xeon VM, Python 3.11): how long it takes when that machine
    #: is fast.
    FAST_S = 0.37e-3

    def __init__(self, cores: set | None):
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "calibrate.py")],
            stdout=subprocess.PIPE,
            preexec_fn=_pinned(cores),
        )
        self.sock = None
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60)
            line = self.process.stdout.readline() if ready else b""
            if not line.strip().isdigit():
                raise BenchmarkError(f"calibration service did not start: {line!r}")
            self.sock = socket.create_connection(("127.0.0.1", int(line)), timeout=30)
            self.reader = self.sock.makefile("rb")
            for _ in range(5):  # first answers warm the service up
                self()
        except BaseException:
            self.close()
            raise

    def __call__(self) -> float:
        """Seconds one round trip takes."""
        started = time.perf_counter()
        self.sock.sendall(b"go\n")
        size = int.from_bytes(self.reader.read(4), "big")
        if len(self.reader.read(size)) != size:
            raise BenchmarkError("calibration service closed the connection")
        return time.perf_counter() - started

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait(timeout=20)
        self.process.stdout.close()


class Server:
    """One ``repro.cli serve`` subprocess on an ephemeral port, pinned to
    ``cores`` when given."""

    def __init__(self, traced: bool, cores: set | None = None):
        self.traced = traced
        self.cores = cores
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self, warm_bodies: list) -> float:
        """Spawn, wait for ``/health`` 200, warm up; returns seconds taken."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        command = [sys.executable, "-m", "repro.cli", "serve"]
        command += ["--ranker", "bm25", "--port", "0"]
        if not self.traced:
            command.append("--no-trace")
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(WORK_DIR / "server.log", "ab") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                preexec_fn=_pinned(self.cores),
            )
        ready, _, _ = select.select([self.process.stdout], [], [], 60)
        line = self.process.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            raise BenchmarkError(f"server did not announce its address: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while fetch(self.port, "GET", "/health")[0] != 200:
            time.sleep(0.01)
        for body in warm_bodies:
            status, payload = fetch(self.port, "POST", "/explanations", body)
            if status != 200:
                raise BenchmarkError(f"warm-up failed: {status} {payload}")
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self.process = None


# -- request templates -----------------------------------------------------------


@dataclass
class Templates:
    """The seeded REST templates resolved against the base corpus."""

    explain: list
    rank: list
    rerank: list
    requests: list  # ExplainRequest per explain template


def resolve_templates(engine, seed: int) -> Templates:
    queries = covid_training_queries()[: inputs.DEMO_QUERIES]
    tops = [engine.rank(query, inputs.DEMO_DEPTH).doc_ids for query in queries]
    pools = inputs.rest_templates(seed)
    explain, requests = [], []
    for item in pools["explain"]:
        body = {
            "query": queries[item.query],
            "doc_id": tops[item.query][item.rank],
            "strategy": item.strategy,
        }
        if item.search is not None:
            body["search"] = item.search
        explain.append(body)
        requests.append(ExplainRequest(**body))
    rerank = []
    for item in pools["rerank"]:
        query = queries[item.query]
        ops = [
            {"type": "remove_sentences", "indices": list(argument)}
            if op == "remove_sentences"
            else {"type": "remove_term", "term": query.split()[argument]}
            for op, argument in item.ops
        ]
        doc_id = tops[item.query][item.rank]
        rerank.append(
            {"query": query, "doc_id": doc_id, "perturbations": ops, "k": 10}
        )
    rank = [{"query": queries[number], "k": 10} for number in pools["rank"]]
    return Templates(explain, rank, rerank, requests)


def warm_bodies(engine) -> list:
    """One explain per lexical strategy at ``n=2``: warms the lazily built
    explainers without storing a result the schedule will ask for."""
    doc_id = engine.rank("covid vaccine", 10).doc_ids[0]
    return [
        {"query": "covid vaccine", "doc_id": doc_id, "strategy": strategy, "n": 2}
        for strategy in inputs.LEXICAL_STRATEGIES
    ]


# -- the open-loop generator -------------------------------------------------------


@dataclass
class Sent:
    kind: str
    ref: object
    due: float
    free: float = 0.0
    ready: float = 0.0
    send: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""
    request_id: str = ""
    calibrations: list = field(default_factory=list)  # round trips before it

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.free - self.due)

    @property
    def gen_lag(self) -> float:
        """How late the generator sent after the request could go."""
        return self.send - self.ready


@dataclass
class Step:
    rate: float
    records: list = field(default_factory=list)
    skipped: int = 0

    @property
    def reads(self) -> list:
        return [r for r in self.records if r.kind in READS]

    @property
    def failed(self) -> list:
        return [r for r in self.records if r.error or not 200 <= r.status < 300]

    def throughput(self) -> float:
        """Completed requests per second from the first due time (0) to
        the last completion."""
        return len(self.records) / max(r.done for r in self.records)

    def passes(self) -> bool:
        """p99 within the limit, nothing failed or skipped, and queue
        wait not growing from the first to the last quarter."""
        if self.skipped or self.failed or not self.records:
            return False
        if percentile([r.latency for r in self.records], 0.99)[0] > LIMIT_S:
            return False
        quarter = max(1, len(self.records) // 4)
        first = median([r.queue_wait for r in self.records[:quarter]])
        last = median([r.queue_wait for r in self.records[-quarter:]])
        return last <= first + 0.05


#: Sleep until this close to a due time, then yield-spin: an idle
#: virtual CPU can take milliseconds to wake from a long sleep.
SPIN_S = 0.005

#: How long before a reference request is due its calibration round trip
#: starts: far enough ahead that a slow round trip (tens of ms when the
#: scheduler preempts it) does not delay the request.
CALIBRATE_LEAD_S = 0.05


def _wait_until(deadline: float, early=None) -> None:
    """Sleep, then spin, until ``deadline``. ``early()`` runs
    :data:`CALIBRATE_LEAD_S` before it, when there is that much time."""
    if early is not None and deadline - time.perf_counter() > CALIBRATE_LEAD_S:
        time.sleep(max(0.0, deadline - CALIBRATE_LEAD_S - time.perf_counter()))
        early()
    remaining = deadline - time.perf_counter()
    if remaining > SPIN_S:
        time.sleep(remaining - SPIN_S)
    while time.perf_counter() < deadline:
        time.sleep(0)  # releases the interpreter lock to the other connection


class Generator:
    """Sends one step's schedule over ``connections`` keep-alive connections.

    In the reference step each request is preceded by a ``calibrate()``
    round trip, :data:`CALIBRATE_LEAD_S` before it is due and only while
    no request is in flight, so that it never competes with the server.
    (Right after a response it would: the server still finishes the
    request on the same core.)
    """

    def __init__(
        self, port: int, templates: Templates, seed: int, connections: int, calibrate
    ):
        self.port = port
        self.templates = templates
        self.seed = seed
        self.connections = connections
        self.calibrate = calibrate
        self.added: dict[int, threading.Event] = {}
        self.writes: list[Sent] = []

    def _request(self, op: inputs.RestOp):
        if op.kind == "explain":
            return "POST", "/explanations", self.templates.explain[op.ref]
        if op.kind == "rank":
            return "POST", "/rank", self.templates.rank[op.ref]
        if op.kind == "rerank":
            return "POST", "/builder/rerank", self.templates.rerank[op.ref]
        document = inputs.write_document(self.seed, op.ref)
        if op.kind == "add":
            return "POST", "/index/documents", {"documents": [document]}
        return "DELETE", f"/index/documents/{document['doc_id']}", None

    def run(self, step_number: int, rate: float, ops: list, reference: bool) -> Step:
        step = Step(rate)
        records = [Sent(op.kind, op.ref, op.due) for op in ops]
        for op in ops:
            if op.kind == "add":
                self.added.setdefault(op.ref, threading.Event())
        lock = threading.Lock()
        cursor = [0]
        late = [0]
        in_flight = [0]
        give_up = len(ops) // 100 + 1  # beyond this many late requests p99 has failed
        hard_stop = ops[-1].due + (3.0 if reference else 1.0) if ops else 0.0
        origin = time.perf_counter() + 0.05

        def calibrate(record: Sent) -> None:
            # Under the lock: the other connection cannot send until the
            # round trip is over.
            with lock:
                if not in_flight[0]:
                    record.calibrations.append(self.calibrate())

        def worker():
            connection = Connection(self.port)
            try:
                while True:
                    with lock:
                        position = cursor[0]
                        if position >= len(ops):
                            return
                        now = time.perf_counter() - origin
                        if now > hard_stop or (not reference and late[0] > give_up):
                            return
                        cursor[0] += 1
                    op, record = ops[position], records[position]
                    record.free = now
                    record.ready = max(now, op.due)
                    _wait_until(
                        origin + op.due, (lambda: calibrate(record)) if reference else None
                    )
                    event = self.added[op.ref] if op.kind == "delete" else None
                    if event is not None and not event.is_set():
                        # Waiting on its add is queueing, not generator lag.
                        event.wait(30)
                        record.ready = time.perf_counter() - origin
                    method, path, body = self._request(op)
                    record.request_id = f"bench-{step_number}-{position}"
                    with lock:
                        in_flight[0] += 1
                    record.send = time.perf_counter() - origin
                    try:
                        record.status, record.body = connection.request(
                            method, path, body, request_id=record.request_id
                        )
                    except (OSError, ValueError) as error:
                        record.error = f"{type(error).__name__}: {error}"
                        connection.close()
                        connection = Connection(self.port)
                    record.done = time.perf_counter() - origin
                    with lock:
                        in_flight[0] -= 1
                    if op.kind == "add":
                        self.added[op.ref].set()
                    if record.done - op.due > LIMIT_S:
                        with lock:
                            late[0] += 1
            finally:
                connection.close()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise BenchmarkError("generator connection did not finish")
        step.records = [record for record in records[: cursor[0]]]
        step.skipped = len(ops) - cursor[0]
        self.writes += [r for r in step.records if r.kind in ("add", "delete")]
        if reference and step.skipped:
            # Unsent requests at the reference rate are failures, not skips.
            step.records += [
                Sent(op.kind, op.ref, op.due, error="not sent before the cut-off")
                for op in ops[cursor[0]:]
            ]
            step.skipped = 0
        return step


# -- the workload --------------------------------------------------------------


def _explain_payload(engine, request) -> dict:
    """The library's payload for ``request``, shaped as ``POST /explanations``
    returns it (the instance strategies attach counterfactual bodies)."""
    payload = engine.explain(request).to_dict()
    for explanation in payload.get("explanations", []):
        if "counterfactual_doc_id" in explanation:
            explanation["counterfactual_body"] = engine.document(
                explanation["counterfactual_doc_id"]
            ).body
    return payload


def _without_elapsed(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "elapsed_seconds"}


def _verify(server: Server, generator: Generator, engine, templates, seed: int):
    """Bring the server and the in-process mirror engine to the same index
    version, then compare REST payloads (computed and store-hit) with
    library payloads and re-check the explanations."""
    problems = []
    attempted = 0
    completed = {
        (r.kind, r.ref)
        for r in generator.writes
        if not r.error and 200 <= r.status < 300
    }
    # One more add/delete pair moves the version past every stored
    # result, so the first replay of each request below is computed.
    extra = VERIFY_DOCUMENT
    completed |= {("add", extra)}
    for kind, number in sorted(completed, key=lambda pair: (pair[1], pair[0])):
        document = inputs.write_document(seed, number)
        if kind == "add":
            if number == extra:
                attempted += 1
                status, _ = fetch(
                    server.port, "POST", "/index/documents", {"documents": [document]}
                )
                if status != 201:
                    problems.append(f"verify add returned {status}")
            engine.add_documents([Document(document["doc_id"], document["body"])])
            if ("delete", number) not in completed:
                attempted += 1
                status, _ = fetch(
                    server.port, "DELETE", f"/index/documents/{document['doc_id']}"
                )
                if status != 200:
                    problems.append(f"cleanup delete returned {status}")
                engine.remove_document(document["doc_id"])
        else:
            engine.remove_document(document["doc_id"])
    status, info = fetch(server.port, "GET", "/index")
    mirror = (engine.index.version, len(engine.index))
    if (info["version"], info["documents"]) != mirror:
        problems.append(
            f"server index v{info['version']}/{info['documents']} docs vs library "
            f"v{engine.index.version}/{len(engine.index)} docs"
        )
    _, before = fetch(server.port, "GET", "/metrics")
    sample = random.Random(seed).sample(range(len(templates.explain)), VERIFY_SAMPLE)
    for position in sample:
        body = templates.explain[position]
        library = _explain_payload(engine, templates.requests[position])
        library = _without_elapsed(json.loads(json.dumps(library)))
        for attempt in ("computed", "store-hit"):
            attempted += 1
            status, payload = fetch(server.port, "POST", "/explanations", body)
            if status != 200:
                problems.append(f"verify {attempt} explain returned {status}")
            elif _without_elapsed(payload) != library:
                problems.append(f"{attempt} REST payload differs from library: {body}")
        for explanation in engine.explain(templates.requests[position]).explanations:
            attempted += 1
            check = recheck_explanation(engine, explanation, k=10)
            if not check.valid:
                problems.append(f"fidelity {check.kind}: {check.detail}")
    _, after = fetch(server.port, "GET", "/metrics")
    hits = after["store"]["hits"] - before["store"]["hits"]
    if hits != VERIFY_SAMPLE:
        problems.append(f"expected {VERIFY_SAMPLE} store hits on replay, saw {hits}")
    return attempted, problems


def _ladder(seconds: float) -> list[tuple[float, float]]:
    return [(rate, seconds * share) for rate, share in LADDER]


def _connections() -> int:
    """At most ``nproc`` connections, and two at most."""
    return min(2, len(os.sched_getaffinity(0)))


def _run_ladder(
    server: Server,
    templates,
    seed: int,
    seconds: float,
    calibrate,
    steps=None,
    after_step=None,
):
    """Run the first ``steps`` ladder steps (all by default), calling
    ``after_step(step)`` once each step has finished."""
    generator = Generator(server.port, templates, seed, _connections(), calibrate)
    schedule = inputs.rest_schedule(seed, _ladder(seconds))
    results = []
    for number, ops in enumerate(schedule[:steps]):
        reference = number == 0
        results.append(generator.run(number, LADDER[number][0], ops, reference))
        if after_step is not None:
            after_step(results[-1])
    return generator, results


def _tally(steps: list, verified: int, problems: list, metrics: dict, report: dict):
    """The run's outcome: every failed request and failed check counts."""
    records = [r for step in steps for r in step.records]
    failed = [r for step in steps for r in step.failed]
    failures = problems + [f"{r.kind} {r.status} {r.error}" for r in failed]
    report["failures"] = failures[:20]
    return Outcome(
        metrics=metrics,
        attempted=len(records) + verified,
        failed=len(failed) + len(problems),
        correct=not problems and not failed,
        report=report,
    )


def _calibrated(records: list) -> tuple[list, float, list]:
    """The latencies of ``records`` rescaled by their step's calibration:
    each multiplied by ``Calibrator.FAST_S`` over the median round trip
    (a median, so that a round trip the scheduler preempted cannot move
    it). Returns the latencies, the slowdown (that median over
    ``FAST_S``) and the round trips."""
    trips = [trip for r in records for trip in r.calibrations]
    if not trips:
        raise BenchmarkError("the reference step has no calibration round trip")
    slowdown = median(trips) / Calibrator.FAST_S
    return [r.latency / slowdown for r in records], slowdown, trips


def _repeat_share(records: list) -> float:
    seen, repeats, total = set(), 0, 0
    for record in records:
        if record.kind == "explain":
            total += 1
            repeats += record.ref in seen
            seen.add(record.ref)
    return repeats / total if total else 0.0


def _cf_yield(records: list) -> float:
    """Share of answered explain requests carrying a counterfactual."""
    explains = [r for r in records if r.kind == "explain" and r.status == 200]
    found = sum(bool(json.loads(r.body).get("explanations")) for r in explains)
    return found / len(explains) if explains else 0.0


def _server_spans(port: int, records: list) -> list:
    """Full traces for ``records`` from ``GET /debug/traces/{id}``."""
    traces = []
    for record in records:
        status, trace = fetch(port, "GET", f"/debug/traces/{record.request_id}")
        if status != 200:
            raise BenchmarkError(f"no server trace for {record.request_id}")
        traces.append((record, trace))
    return traces


def _layer_metrics(traces: list, steps: list, templates, metrics_delta: dict) -> dict:
    """Per-layer metrics from server spans plus the generator's own timing."""
    reads = [(r, t) for r, t in traces if r.kind in READS]
    writes = [(r, t) for r, t in traces if r.kind in ("add", "delete")]
    explains = [t for r, t in reads if r.kind == "explain"]

    def span_ms(name):
        """Mean time per explain in the server spans called ``name``."""
        return mean(
            [
                sum(s["duration_ms"] for s in trace["spans"] if s["name"] == name)
                for trace in explains
            ]
        )

    unattributed = [t["duration_ms"] - _top_level_ms(t) for _, t in reads]
    records = [r for step in steps for r in step.records if not r.error]
    queue_waits = [r.queue_wait * 1e3 for r in records]
    bodies = [templates.explain[r.ref] for r, _ in reads if r.kind == "explain"]
    raw_bodies = [json.dumps(body).encode("utf-8") for body in bodies]
    started = time.perf_counter()
    for raw in raw_bodies:
        parse_explain_request(json.loads(raw))
    parse_ms = (time.perf_counter() - started) * 1e3 / max(len(raw_bodies), 1)
    payloads = [json.loads(r.body) for r, _ in reads]
    started = time.perf_counter()
    for payload in payloads:
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    render_ms = (time.perf_counter() - started) * 1e3 / max(len(payloads), 1)
    hits, misses = metrics_delta["hits"], metrics_delta["misses"]
    write_count = sum(
        1 for step in steps for r in step.records
        if r.kind in ("add", "delete") and r.status in (200, 201)
    )
    return {
        "index.write_ms": (median([t["duration_ms"] for _, t in writes]), "ms"),
        "service.queue_wait_p50_ms": (median(queue_waits), "ms"),
        "service.queue_wait_p99_ms": (percentile(queue_waits, 0.99)[0], "ms"),
        "service.admit_ms": (span_ms("admission/decide"), "ms/req"),
        "service.store_lookup_ms": (span_ms("store/lookup"), "ms/req"),
        "service.compute_ms": (span_ms("service/compute"), "ms/req"),
        "service.store_hit_rate": (hits / max(hits + misses, 1), "ratio"),
        "service.repeat_share": (_repeat_share(records), "ratio"),
        "service.store_invalidations": (write_count, "count"),
        "service.shed": (metrics_delta["requests_shed"], "count"),
        "service.rate_limited": (metrics_delta["requests_rate_limited"], "count"),
        "service.deadline_exceeded": (metrics_delta["deadline_exceeded"], "count"),
        "api.server_ms": (median([t["duration_ms"] for _, t in reads]), "ms"),
        "api.transport_ms": (_transport_ms(traces), "ms"),
        "api.parse_ms": (parse_ms, "ms/req"),
        "api.render_ms": (render_ms, "ms/req"),
        "obs.unattributed_ms": (mean(unattributed), "ms/req"),
    }


def _top_level_ms(trace: dict) -> float:
    """Time the root span's direct children cover."""
    return sum(s["duration_ms"] for s in trace["spans"] if s["parent_id"] is None)


def _span_table(traces: list) -> list[str]:
    """The traced table for REST reads: per server span, calls, inclusive
    and self ms per request; then the root span's unattributed part, the
    server total and the transport outside it."""
    reads = [(r, t) for r, t in traces if r.kind in READS]
    count = max(len(reads), 1)
    groups: dict = defaultdict(lambda: [0, 0.0, 0.0])
    unattributed = server = transport = 0.0
    for record, trace in reads:
        children: dict = defaultdict(float)
        for span in trace["spans"]:
            if span["parent_id"] is not None:
                children[span["parent_id"]] += span["duration_ms"]
        for span in trace["spans"]:
            totals = groups[span["name"]]
            totals[0] += 1
            totals[1] += span["duration_ms"]
            totals[2] += span["duration_ms"] - children[span["span_id"]]
        unattributed += trace["duration_ms"] - _top_level_ms(trace)
        server += trace["duration_ms"]
        transport += (record.done - record.send) * 1e3 - trace["duration_ms"]
    lines = [TABLE_HEADER.format("span")]
    for name in sorted(groups):
        calls, inclusive, self_ms = groups[name]
        lines.append(
            f"{name:<22}{calls / count:>10.2f}{inclusive / count:>13.4f}"
            f"{self_ms / count:>13.4f}"
        )
    lines.append(f"{'unattributed_ms':<45}{unattributed / count:>13.4f}")
    lines.append(f"{'server (root span)':<32}{server / count:>13.4f}")
    lines.append(f"{'transport':<32}{transport / count:>13.4f}")
    return lines


def _transport_ms(traces: list) -> float:
    """Median client round trip minus server time over read requests."""
    return median(
        [
            (r.done - r.send) * 1e3 - t["duration_ms"]
            for r, t in traces
            if r.kind in READS
        ]
    )


def _metrics_counts(port: int) -> dict:
    _, snapshot = fetch(port, "GET", "/metrics")
    counters = snapshot["counters"]
    return {
        "hits": snapshot["store"]["hits"],
        "misses": snapshot["store"]["misses"],
        "requests_shed": counters["requests_shed"],
        "requests_rate_limited": counters["requests_rate_limited"],
        "deadline_exceeded": counters["deadline_exceeded"],
    }


def _step_report(step: Step) -> dict:
    records = [r for r in step.records if not r.error]
    latencies = [r.latency * 1e3 for r in records]
    waits = [r.queue_wait * 1e3 for r in records]
    return {
        "rate": step.rate,
        "sent": len(step.records),
        "skipped": step.skipped,
        "failed": len(step.failed),
        "passes": step.passes(),
        "p50_ms": round(median(latencies), 3),
        "p99_ms": round(percentile(latencies, 0.99)[0], 3) if latencies else None,
        "queue_wait_p99_ms": round(percentile(waits, 0.99)[0], 3) if waits else None,
        "gen_lag_ms_p50_p99_max": [
            round(percentile([r.gen_lag * 1e3 for r in records], fraction)[0], 3)
            for fraction in (0.5, 0.99, 1.0)
        ]
        if records
        else None,
    }


def _check_generator(steps: list) -> float:
    lags = [r.gen_lag for step in steps for r in step.records if not r.error]
    lag = percentile(lags, 0.99)[0] if lags else 0.0
    if lag > MAX_GEN_LAG_S:
        raise BenchmarkError(
            f"generator fell behind (p99 send lag {lag * 1e3:.1f} ms): run invalid"
        )
    return lag


def run_rest(seed: int, seconds: float, trace: bool, import_s: float):
    engine = demo_engine(ranker="bm25")
    templates = resolve_templates(engine, seed)
    warm = warm_bodies(engine)
    cores = server_core()
    servers: list[Server] = []
    calibrate = None
    failed_run = True
    try:
        calibrate = Calibrator(cores)
        if trace:
            outcome = _run_traced(
                engine, templates, warm, seed, seconds, servers, cores, calibrate
            )
            failed_run = False
            return outcome
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if servers:
                servers.pop().stop()
            servers.append(Server(traced=False, cores=cores))
            setup_times.append(servers[-1].start(warm))
        server = servers[-1]
        _, before = fetch(server.port, "GET", "/metrics")
        generator, steps = _run_ladder(server, templates, seed, seconds, calibrate)
        lag = _check_generator(steps)
        _, after = fetch(server.port, "GET", "/metrics")
        verified, problems = _verify(server, generator, engine, templates, seed)
        rss = server.peak_rss_mb()
        reference = steps[0]
        answered = [r for r in reference.reads if not r.error]
        reads, slowdown, trips = _calibrated(answered)
        raw = [r.latency for r in answered]
        p50, _ = window_percentile(reads, 0.5)
        tail, beyond = window_percentile(reads, 0.90)
        passing = [step for step in steps if step.passes()]
        records = [r for step in steps for r in step.records]
        writes = [
            r.latency * 1e3
            for r in records
            if r.kind in ("add", "delete") and not r.error
        ]
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "latency_p50_ms": (p50 * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "throughput_per_s": (passing[-1].throughput() if passing else 0.0, "1/s"),
            "cf_yield": (_cf_yield(reference.records), "ratio"),
            "rss_mb": (rss, "MB"),
        }
        hits = after["store"]["hits"] - before["store"]["hits"]
        misses = after["store"]["misses"] - before["store"]["misses"]
        report = {
            "reference_rate": LADDER[0][0],
            "max_passing_rate": passing[-1].rate if passing else None,
            "reference_reads": len(reads),
            "tail_percentile": 90,
            "samples_beyond_tail": beyond,
            "ladder": [_step_report(step) for step in steps],
            "write_p50_ms": round(median(writes), 3),
            "writes": len(writes),
            "gen_lag_p99_ms": round(lag * 1e3, 3),
            "service.repeat_share": round(_repeat_share(records), 4),
            "store_hit_rate": round(hits / max(hits + misses, 1), 4),
            "setup_repeats_s": [round(value, 4) for value in setup_times],
            "server_cores": sorted(cores or os.sched_getaffinity(0)),
            "calibrated_reads": sum(bool(r.calibrations) for r in answered),
            "slowdown": round(slowdown, 4),
            "calibration_p5_p50_p95_ms": [
                round(value * 1e3, 4) for value in statistics.quantiles(trips, n=20)[::9]
            ],
            "raw": {
                "latency_p50_ms": round(window_percentile(raw, 0.5)[0] * 1e3, 4),
                "latency_tail_ms": round(window_percentile(raw, 0.9)[0] * 1e3, 4),
            },
            "connections": generator.connections,
            "corpus_docs": len(engine.index),
            "verified_requests": verified,
        }
        failed_run = False
        return _tally(steps, verified, problems, metrics, report)
    finally:
        for server in servers:
            server.stop()
        if calibrate is not None:
            calibrate.close()
        if not failed_run:  # keep the server log of a run that raised
            shutil.rmtree(WORK_DIR, ignore_errors=True)


def _run_traced(engine, templates, warm, seed, seconds, servers, cores, calibrate):
    """Reference step on an untraced server, then the whole ladder on a
    traced one; server spans come from ``GET /debug/traces/{id}``."""
    servers.append(Server(traced=False, cores=cores))
    servers[-1].start(warm)
    _, plain_steps = _run_ladder(
        servers[-1], templates, seed, seconds, calibrate, steps=1
    )
    servers.pop().stop()
    servers.append(Server(traced=True, cores=cores))
    server = servers[-1]
    server.start(warm)
    before = _metrics_counts(server.port)
    # The trace ring holds the last 256 requests: read each step's traces
    # before the next step pushes them out. The per-layer metrics are
    # the reference step's; the report adds transport at every rate.
    traces_by_rate = {}

    def read_traces(step):
        answered = [r for r in step.records if not r.error]
        traces_by_rate[step.rate] = _server_spans(server.port, answered)

    generator, steps = _run_ladder(
        server, templates, seed, seconds, calibrate, after_step=read_traces
    )
    _check_generator(steps + plain_steps)
    after = _metrics_counts(server.port)
    delta = {key: after[key] - before[key] for key in after}
    verified, problems = _verify(server, generator, engine, templates, seed)
    traces = traces_by_rate[steps[0].rate]
    metrics = _layer_metrics(traces, steps, templates, delta)
    plain = median(_calibrated([r for r in plain_steps[0].reads if not r.error])[0])
    traced = median(_calibrated([r for r in steps[0].reads if not r.error])[0])
    metrics["obs.tracing_overhead_pct"] = ((traced / plain - 1.0) * 100.0, "%")
    reads = [(r, t) for r, t in traces if r.kind in READS]
    report = {
        "traced_table": _span_table(traces),
        "traced_reference_reads": len(reads),
        "corpus_docs": len(engine.index),
        "service.repeat_share": round(metrics["service.repeat_share"][0], 4),
        "round_trip_p50_ms": round(
            median([(r.done - r.send) * 1e3 for r, _ in reads]), 3
        ),
        "transport_p50_ms_by_rate": {
            rate: round(_transport_ms(spans), 3)
            for rate, spans in traces_by_rate.items()
        },
        "ladder": [_step_report(step) for step in steps],
    }
    return _tally(steps + plain_steps, verified, problems, metrics, report)
