"""Synthetic corpus generation and the throughput harness."""

import json
import warnings

import pytest

from treesent import (
    BenchError,
    BenchReport,
    RuleConfig,
    Scheme,
    TraceStep,
    demo_lexicon,
    parse_tagger_output,
    run_bench,
    synthetic_corpus,
    synthetic_sentence,
)
from treesent.encodings import BridgeStats


@pytest.fixture(scope="module")
def lex():
    return demo_lexicon("en")


def test_synthetic_corpus_is_deterministic(lex):
    first = list(synthetic_corpus(40, 10, lex, seed=7))
    second = list(synthetic_corpus(40, 10, lex, seed=7))
    other = list(synthetic_corpus(40, 10, lex, seed=8))
    assert first == second
    assert first != other
    assert len(first) == 40


def test_synthetic_corpus_decodes_clean(lex):
    stats = BridgeStats()
    trees = [
        result.tree
        for _, result in parse_tagger_output(
            synthetic_corpus(60, 12, lex, seed=3), Scheme.REL_OFFSET, stats=stats
        )
    ]
    assert len(trees) == 60
    assert stats.repairs.total == 0  # well-formed corpus needs no repairs
    assert all(len(tree) == 12 for tree in trees)
    assert stats.skipped == 0


def test_synthetic_corpus_works_for_brackets_scheme(lex):
    lines = list(synthetic_corpus(20, 9, lex, seed=11, scheme=Scheme.BRACKETS))
    stats = BridgeStats()
    trees = list(parse_tagger_output(lines, Scheme.BRACKETS, stats=stats))
    assert len(trees) == 20
    assert stats.repairs.total == 0


def test_synthetic_sentence_validation(lex):
    with pytest.raises(BenchError, match="length"):
        synthetic_sentence(0, [("a", "NOUN")], seed=1, sentence_id="x")
    with pytest.raises(BenchError, match="corpus size"):
        list(synthetic_corpus(0, 5, lex))


def test_run_bench_reports_consistent_counts(lex):
    lines = list(synthetic_corpus(1200, 8, lex, seed=5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # big enough corpus: no size warning
        report = run_bench(lines, lex, workers=1, warmup=20)
    assert report.sentences == 1200
    assert report.tokens == 1200 * 8
    assert report.repairs == 0
    assert report.workers == 1
    assert report.sentences_per_sec > 0
    assert report.tokens_per_sec > 0
    for stage in (report.read_time, report.decode_time, report.rules_time):
        assert 0 <= stage <= report.total_time
    assert sum(report.classes.values()) == 1200


def test_run_bench_scores_without_a_trace(lex, monkeypatch):
    # bench times the path analyze runs without --explain, which builds no trace
    from treesent import rules

    made = []

    def counted(*args):
        made.append(args)
        return TraceStep(*args)

    monkeypatch.setattr(rules, "TraceStep", counted)
    lines = list(synthetic_corpus(40, 8, lex, seed=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_bench(lines, lex, workers=1, warmup=5)
    assert report.sentences == 40
    assert sum(report.classes.values()) == 40
    assert made == []


def test_run_bench_warns_on_small_corpus(lex):
    lines = list(synthetic_corpus(10, 6, lex, seed=1))
    with pytest.warns(RuntimeWarning, match="10 sentences"):
        report = run_bench(lines, lex, warmup=0)
    assert report.sentences == 10  # warned, but still ran


def test_run_bench_primary_outputs_are_idempotent(lex):
    lines = list(synthetic_corpus(300, 7, lex, seed=9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = run_bench(lines, lex, warmup=0)
        two = run_bench(lines, lex, warmup=0)
    assert (one.sentences, one.tokens, one.repairs) == (two.sentences, two.tokens, two.repairs)
    assert one.classes == two.classes


def test_run_bench_multi_worker_matches_single_worker_outputs(lex):
    lines = list(synthetic_corpus(1000, 6, lex, seed=13))
    single = run_bench(lines, lex, workers=1, warmup=10)
    multi = run_bench(lines, lex, workers=4, warmup=10)
    assert multi.sentences == single.sentences == 1000
    assert multi.tokens == single.tokens
    assert multi.repairs == single.repairs == 0
    assert multi.classes == single.classes
    # sanity, not a speedup claim: on a single-core box the pool only adds
    # overhead, so allow generous slack over the single-worker wall
    assert multi.total_time <= single.total_time * 3 + 1.0


def test_run_bench_rejects_bad_worker_count(lex):
    with pytest.raises(BenchError, match="worker count"):
        run_bench([], lex, workers=0)


def test_run_bench_rejects_a_negative_warmup(lex):
    with pytest.raises(BenchError, match=r"^warmup must be >= 0, got -1$"):
        run_bench([], lex, warmup=-1)


def test_bench_report_validates_stage_bounds():
    with pytest.raises(BenchError, match="exceeds total"):
        BenchReport(
            sentences=1,
            tokens=1,
            read_time=2.0,
            decode_time=0.1,
            rules_time=0.1,
            total_time=1.0,
            sentences_per_sec=1.0,
            tokens_per_sec=1.0,
            repairs=0,
            workers=1,
            classes={},
        )


def test_bench_report_serializes(lex):
    lines = list(synthetic_corpus(30, 5, lex, seed=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_bench(lines, lex, warmup=0)
    payload = report.to_dict()
    assert payload["sentences"] == 30
    assert set(payload["time"]) == {"read", "decode", "rules", "total"}
    assert json.dumps(payload)
