"""Tests for the scaled study runner and its quality gates."""

from dataclasses import replace

import pytest

from repro.datasets.stream import (
    ZipfianVocabulary,
    sample_stream_queries,
    stream_corpus,
)
from repro.errors import ConfigurationError
from repro.eval.scaled import (
    QualityFloors,
    StudySpec,
    build_study_engines,
    run_scaled_study,
)
from repro.index.sharding import ShardedIndex


@pytest.fixture(scope="module")
def vocabulary():
    return ZipfianVocabulary.build(300)


@pytest.fixture(scope="module")
def study_index(vocabulary):
    docs = stream_corpus(180, seed=11, vocabulary=vocabulary, with_priors=True)
    return ShardedIndex.from_documents(list(docs), 2)


@pytest.fixture(scope="module")
def study_queries(vocabulary):
    return tuple(sample_stream_queries(3, vocabulary=vocabulary, seed=11))


@pytest.fixture(scope="module")
def small_spec(study_queries):
    return StudySpec(
        queries=study_queries,
        rankers=("bm25",),
        strategies=("document/sentence-removal", "query/augmentation"),
        searches=("exhaustive", "greedy"),
        per_query=1,
        k=4,
        threshold=3,
        budget=200,
        seed=11,
        doc2vec_dimension=16,
        doc2vec_epochs=5,
    )


@pytest.fixture(scope="module")
def small_report(study_index, small_spec):
    return run_scaled_study(study_index, small_spec)


class TestSpecValidation:
    def test_unknown_ranker_rejected(self, study_queries):
        with pytest.raises(Exception):
            StudySpec(queries=study_queries, rankers=("pagerank",))

    def test_unknown_search_rejected(self, study_queries):
        with pytest.raises(Exception):
            StudySpec(queries=study_queries, searches=("simulated-annealing",))

    def test_unknown_executor_rejected(self, study_queries):
        with pytest.raises(Exception):
            StudySpec(queries=study_queries, executor="gpu")

    def test_empty_queries_rejected(self):
        with pytest.raises(Exception):
            StudySpec(queries=())

    def test_strategies_default_to_full_registry(self, study_queries):
        spec = StudySpec(queries=study_queries)
        assert "features/ltr" in spec.resolved_strategies()
        assert len(spec.resolved_strategies()) == 5


class TestGrid:
    def test_grid_covers_every_cell(self, small_report, small_spec):
        expected = (
            len(small_spec.rankers)
            * len(small_spec.strategies)
            * len(small_spec.searches)
        )
        assert len(small_report.cells) == expected
        keys = {(c.ranker, c.strategy, c.search) for c in small_report.cells}
        assert len(keys) == expected

    def test_cells_aggregate_quality_metrics(self, small_report):
        cell = small_report.cell("bm25", "document/sentence-removal", "exhaustive")
        assert cell.status == "ok"
        assert cell.tier == "sequential"
        assert cell.requests == 3
        assert 0.0 <= cell.success_rate <= 1.0
        assert 0.0 <= cell.fidelity <= 1.0
        assert cell.mean_candidates >= 0
        assert cell.plausibility is None or cell.plausibility > 0

    def test_unavailable_strategy_recorded_not_raised(
        self, study_index, study_queries
    ):
        spec = StudySpec(
            queries=study_queries,
            rankers=("bm25",),
            strategies=("features/ltr",),
            searches=("exhaustive",),
            per_query=1,
            k=4,
            seed=11,
        )
        report = run_scaled_study(study_index, spec)
        (cell,) = report.cells
        assert cell.status == "unavailable"
        assert "LtrRanker" in cell.detail
        assert cell.requests == 0

    def test_missing_engine_raises(self, study_index, small_spec):
        with pytest.raises(ConfigurationError):
            run_scaled_study(study_index, small_spec, engines={})

    def test_report_renders(self, small_report):
        rendered = small_report.render_table()
        assert "document/sentence-removal" in rendered
        assert "exhaustive" in rendered
        markdown = small_report.render_markdown()
        assert markdown.count("|") > 10

    def test_report_dict_shape(self, small_report):
        payload = small_report.to_dict()
        assert payload["spec"]["rankers"] == ["bm25"]
        assert all("elapsed_seconds" in cell for cell in payload["cells"])
        comparable = small_report.comparable_dict()
        assert all("elapsed_seconds" not in cell for cell in comparable["cells"])
        assert all("tier" not in cell for cell in comparable["cells"])


class TestQualityFloors:
    def test_passing_floors_report_no_violations(self, small_report):
        floors = QualityFloors(min_success_rate=0.0, max_mean_candidates=1e9)
        assert small_report.violations(floors) == []

    def test_unreachable_floor_is_reported_per_cell(self, small_report):
        floors = QualityFloors(min_success_rate=1.1)
        violations = small_report.violations(floors)
        assert violations
        assert all("success rate" in message for message in violations)

    def test_floor_filters_by_ranker_and_strategy(self, small_report):
        floors = QualityFloors(min_fidelity=1.1)
        only_query = small_report.violations(
            floors, strategies=("query/augmentation",)
        )
        assert only_query
        assert all("query/augmentation" in message for message in only_query)
        assert small_report.violations(floors, rankers=("neural",)) == []

    def test_floors_serialize(self):
        payload = QualityFloors(min_success_rate=0.9).to_dict()
        assert payload["min_success_rate"] == 0.9
        assert payload["min_fidelity"] is None


class TestProcessTierEquivalence:
    def test_sequential_and_process_reports_are_byte_identical(
        self, study_index, small_spec, small_report
    ):
        process_spec = replace(small_spec, executor="process")
        process_report = run_scaled_study(study_index, process_spec)
        assert {cell.tier for cell in process_report.cells} == {"process"}
        assert (
            process_report.canonical_json() == small_report.canonical_json()
        )

    def test_explicit_ranker_engine_falls_back_to_sequential(
        self, study_index, study_queries
    ):
        spec = StudySpec(
            queries=study_queries,
            rankers=("ltr",),
            strategies=("features/ltr",),
            searches=("greedy",),
            per_query=1,
            k=4,
            executor="process",
            seed=11,
        )
        engines = build_study_engines(study_index, spec)
        assert not engines["ltr"].ranker_from_config
        report = run_scaled_study(study_index, spec, engines=engines)
        (cell,) = report.cells
        assert cell.status == "ok"
        assert cell.tier == "sequential"  # refused by the process tier
