"""Doc-sync guard: the documentation cannot silently rot.

Four contracts, enforced so the docs stay true as the public surface
evolves:

1. every public symbol exported from ``repro/__init__.py`` has a
   docstring (callables/classes) **and** is mentioned somewhere in the
   documentation set;
2. the documentation set itself exists and is substantive (README,
   architecture guide, cookbook, API hub and its per-area pages);
3. every relative link between markdown documents resolves;
4. the docs name no surface that does not exist: every REST route in
   ``docs/api/rest.md`` is registered, every ``repro <subcommand>`` in
   ``docs/api/cli.md`` is in the parser, and every ``family/name``
   strategy in the documentation set is registered (the migration
   table in ``docs/API.md`` names removed surface on purpose and is
   exempt).
"""

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.core.registry import DEFAULT_REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documentation set the public surface must be reflected in.
REQUIRED_DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/COOKBOOK.md",
    "docs/API.md",
    "docs/api/explanations.md",
    "docs/api/search.md",
    "docs/api/sessions.md",
    "docs/api/sharding.md",
    "docs/api/persistence.md",
    "docs/api/service.md",
    "docs/api/rest.md",
    "docs/api/cli.md",
    "docs/api/observability.md",
    "docs/api/eval.md",
)


def _doc_corpus() -> str:
    parts = []
    for name in REQUIRED_DOCS:
        path = REPO_ROOT / name
        if path.exists():
            parts.append(path.read_text(encoding="utf-8"))
    return "\n".join(parts)


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_required_doc_exists_and_is_substantive(name):
    path = REPO_ROOT / name
    assert path.exists(), f"missing documentation file: {name}"
    assert len(path.read_text(encoding="utf-8")) > 800, (
        f"{name} is a stub; the doc-sync guard expects real content"
    )


@pytest.mark.parametrize(
    "symbol", [s for s in repro.__all__ if s != "__version__"]
)
def test_public_symbol_has_docstring_and_docs(symbol):
    value = getattr(repro, symbol)
    if inspect.isclass(value) or inspect.isfunction(value) or inspect.ismodule(value):
        assert (getattr(value, "__doc__", None) or "").strip(), (
            f"repro.{symbol} has no docstring"
        )
    assert symbol in _doc_corpus(), (
        f"repro.{symbol} is exported but never mentioned in the docs "
        f"({', '.join(REQUIRED_DOCS)})"
    )


def test_api_hub_documents_the_sharding_api():
    hub = (REPO_ROOT / "docs/API.md").read_text(encoding="utf-8")
    for needle in ("ShardedIndex", "add_documents", "shards=", "api/sharding.md"):
        assert needle in hub, f"docs/API.md no longer documents {needle!r}"


#: The execution-tier surface each document must keep describing.
EXECUTION_TIER_NEEDLES = {
    "docs/ARCHITECTURE.md": (
        "Execution tiers",
        "ProcessExecutor",
        "ProcessWorkerPool",
        "WorkerSpec",
        "index_snapshots",
        "WorkerProcessDied",
    ),
    "docs/api/service.md": (
        "Execution tiers",
        "configure_executor",
        'executor="process"',
        "ProcessExecutor",
        "RemoteReproError",
        "WorkerProcessDied",
        "tasks_dispatched",
        "BENCH_process_tier.json",
    ),
    "docs/api/cli.md": (
        "--parallel",
        "--executor",
        "serve --executor process",
    ),
    "docs/api/rest.md": (
        "`executor`",
        "worker_respawns",
        "index_snapshots",
        "repro_executor_workers",
    ),
}


@pytest.mark.parametrize("name", sorted(EXECUTION_TIER_NEEDLES))
def test_docs_cover_the_execution_tiers(name):
    text = (REPO_ROOT / name).read_text(encoding="utf-8")
    missing = [n for n in EXECUTION_TIER_NEEDLES[name] if n not in text]
    assert not missing, (
        f"{name} no longer documents the execution-tier surface: {missing}"
    )


#: The evaluation-harness surface each document must keep describing.
EVAL_NEEDLES = {
    "docs/api/eval.md": (
        "StudySpec",
        "run_scaled_study",
        "QualityFloors",
        "recheck_explanation",
        "stream_corpus",
        "stream_ingest",
        "load_trec_covid",
        "EVAL_SMOKE=1",
        "BENCH_large_eval.json",
        "canonical_json",
    ),
    "docs/API.md": (
        "api/eval.md",
        "run_scaled_study",
    ),
    "docs/COOKBOOK.md": (
        "StudySpec",
        "run_scaled_study",
        "stream_corpus",
        "EVAL_SMOKE=1",
    ),
}


@pytest.mark.parametrize("name", sorted(EVAL_NEEDLES))
def test_docs_cover_the_eval_harness(name):
    text = (REPO_ROOT / name).read_text(encoding="utf-8")
    missing = [n for n in EVAL_NEEDLES[name] if n not in text]
    assert not missing, (
        f"{name} no longer documents the evaluation harness: {missing}"
    )


_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")


def _markdown_files():
    yield REPO_ROOT / "README.md"
    yield from (REPO_ROOT / "docs").rglob("*.md")


@pytest.mark.parametrize(
    "markdown", list(_markdown_files()), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_relative_links_resolve(markdown):
    text = markdown.read_text(encoding="utf-8")
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1).strip()
        if "://" in target or target.startswith("mailto:"):
            continue
        if not (markdown.parent / target).exists():
            broken.append(target)
    assert not broken, f"{markdown.name} has broken links: {broken}"


def test_examples_referenced_by_cookbook_exist():
    cookbook = (REPO_ROOT / "docs/COOKBOOK.md").read_text(encoding="utf-8")
    referenced = set(re.findall(r"([a-z_]+\.py)", cookbook))
    existing = {path.name for path in (REPO_ROOT / "examples").glob("*.py")}
    missing = {
        name for name in referenced
        if name not in existing and name not in {"check.sh"}
    }
    # every examples/ script must be covered, and no ghost scripts cited
    assert existing <= referenced, (
        f"cookbook does not cover: {sorted(existing - referenced)}"
    )
    assert not missing, f"cookbook cites missing scripts: {sorted(missing)}"


# -- contract 4: no doc names surface that does not exist --------------------

#: The ``docs/API.md`` section that maps removed entry points to their
#: replacements; it names the removed surface on purpose.
MIGRATION_HEADING = "## Migrating from the per-family surface"


def _without_migration_table(text: str) -> str:
    start = text.find(MIGRATION_HEADING)
    if start < 0:
        return text
    end = text.find("\n## ", start + len(MIGRATION_HEADING))
    return text[:start] + (text[end:] if end >= 0 else "")


_DOC_ROUTE = re.compile(r"`(GET|POST|DELETE) (/[^`\s]*)`")


def test_documented_rest_routes_exist(tiny_docs):
    from repro.api.app import build_router
    from repro.core.engine import CredenceEngine, EngineConfig

    router = build_router(
        CredenceEngine(tiny_docs, EngineConfig(ranker="bm25", seed=5))
    )
    text = (REPO_ROOT / "docs/api/rest.md").read_text(encoding="utf-8")
    documented = set(_DOC_ROUTE.findall(text))
    assert len(documented) >= 15, "the route table moved; update the regex"
    missing = []
    for method, path in sorted(documented):
        concrete = re.sub(r"\{[^}]+\}", "x", path.split("?")[0])
        if not any(
            route.method == method and route.pattern.match(concrete)
            for route in router._routes
        ):
            missing.append(f"{method} {path}")
    assert not missing, f"docs/api/rest.md documents unrouted paths: {missing}"


_DOC_COMMAND = re.compile(r"(?:python -m repro\.cli|(?<![\w.`/-])repro) ([a-z][\w-]*)")


def test_documented_cli_subcommands_exist():
    import argparse

    from repro.cli import build_parser

    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    text = (REPO_ROOT / "docs/api/cli.md").read_text(encoding="utf-8")
    documented = set(_DOC_COMMAND.findall(text))
    assert documented, "no `repro <subcommand>` found; update the regex"
    missing = sorted(documented - set(subparsers.choices))
    assert not missing, f"docs/api/cli.md documents unknown subcommands: {missing}"


_FAMILIES = sorted({name.split("/")[0] for name in DEFAULT_REGISTRY.names()})
_DOC_STRATEGY = re.compile(
    rf"(?<![\w/.-])(?:{'|'.join(_FAMILIES)})/[a-z][\w-]*"
)


def test_documented_strategies_are_registered():
    text = _without_migration_table(_doc_corpus())
    documented = set(_DOC_STRATEGY.findall(text))
    assert "document/sentence-removal" in documented
    unknown = sorted(documented - set(DEFAULT_REGISTRY.names()))
    assert not unknown, f"the docs name unregistered strategies: {unknown}"
