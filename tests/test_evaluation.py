"""Gold-data loading and the evaluation metrics."""

import io
import json
import random

import pytest

from treesent import (
    ClassMetrics,
    DepTree,
    EvalError,
    MetricsReport,
    Opinion,
    OpinionSet,
    char_span_to_token_span,
    conversion_coverage,
    demo_gold_path,
    demo_treebank_path,
    eval_parse,
    eval_sentences,
    eval_targets,
    load_gold,
    random_projective_tree,
    read_conllu,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def gold():
    return {rec.sentence_id: rec for rec in load_gold(demo_gold_path())}


# ---------------------------------------------------------------- loading


def test_demo_gold_loads_three_records(gold):
    assert sorted(gold) == ["s1", "s2", "s3"]
    assert gold["s1"].gold_class == "positive"
    assert gold["s2"].gold_class == "negative"
    assert gold["s3"].gold_class == "negative"


def test_demo_gold_class_only_records(gold):
    assert gold["s1"].gold_opinions is None
    assert gold["s1"].parse is None
    assert len(gold["s1"].forms) == 12
    assert gold["s1"].forms[3] == "good"
    assert gold["s1"].offsets[0] == (0, 4)


def test_demo_gold_opinion_spans_resolve_to_tokens(gold):
    ops = gold["s3"].gold_opinions.opinions
    assert len(ops) == 2
    assert ops[0].expression_span == (3, 3)
    assert ops[0].target_span == (7, 7)
    assert ops[0].polarity == "positive"
    assert ops[1].expression_span == (14, 15)
    assert ops[1].target_span == (11, 12)
    assert ops[1].polarity == "negative"


def test_demo_gold_parse_matches_treebank(gold):
    treebank = {t.sentence_id: t for t in read_conllu(demo_treebank_path())}
    parsed = gold["s3"].parse
    assert parsed.heads == treebank["s3"].heads
    assert parsed.deprels == treebank["s3"].deprels
    assert parsed.forms == treebank["s3"].forms


def _record(**overrides):
    base = {
        "sent_id": "t1",
        "text": "ab cd",
        "tokens": [
            {"form": "ab", "upos": "NOUN", "start": 0, "end": 2},
            {"form": "cd", "upos": "ADJ", "start": 3, "end": 5},
        ],
        "class": "neutral",
    }
    base.update(overrides)
    return base


def _load_one(raw):
    return list(load_gold(io.StringIO(json.dumps(raw))))


def test_load_gold_skips_blank_lines():
    payload = json.dumps(_record()) + "\n\n" + json.dumps(_record(sent_id="t2")) + "\n"
    assert [r.sentence_id for r in load_gold(io.StringIO(payload))] == ["t1", "t2"]


def test_load_gold_bad_json_names_line():
    stream = io.StringIO(json.dumps(_record()) + "\n{nope\n")
    with pytest.raises(EvalError, match="line 2"):
        list(load_gold(stream))


@pytest.mark.parametrize(
    "raw, fragment",
    [
        (_record(sent_id=""), "missing sent_id"),
        (_record(tokens=[]), "missing tokens"),
        (_record(tokens=[{"form": "x", "upos": "X", "start": 2, "end": 1}]), "bad offsets"),
        (_record(tokens=[{"form": "x", "start": 0, "end": 1}]), "bad token row"),
        (_record(**{"class": "meh"}), "unknown class"),
        ({"sent_id": "t1", "text": "ab", "tokens": [{"form": "ab", "upos": "X", "start": 0, "end": 2}]}, "class or an opinions"),
        (_record(opinions=[{"polarity": "positive"}]), "missing expression"),
        (_record(opinions=[{"expression": [0, 2], "polarity": "odd"}]), "polarity"),
        (_record(opinions=[{"expression": [9, 12], "polarity": "positive"}]), "covers no token"),
        (_record(parse={"heads": [0], "deprels": ["root"]}), "do not match"),
        (_record(parse={"heads": [2, 1], "deprels": ["a", "b"]}), "bad parse"),
        (_record(tokens=5), "tokens must be a list of JSON objects"),
        (_record(tokens="ab"), "tokens must be a list of JSON objects"),
        (_record(tokens=[5]), "tokens must be a list of JSON objects"),
        (_record(opinions=5), "opinions must be a list of JSON objects"),
        (_record(opinions=None), "opinions must be a list of JSON objects"),
        (_record(opinions=[3]), "opinions must be a list of JSON objects"),
        (_record(opinions=["expression"]), "opinions must be a list of JSON objects"),
        (_record(opinions=[{"expression": 5, "polarity": "positive"}]), "pairs of integers"),
        (_record(opinions=[{"expression": ["a", 2], "polarity": "positive"}]), "pairs of integers"),
        (_record(opinions=[{"expression": [0], "polarity": "positive"}]), "pairs of integers"),
        (_record(parse=5), "parse must be a JSON object"),
        (_record(parse={"heads": 5, "deprels": ["root"]}), "do not match"),
        (_record(parse={"heads": ["x", None], "deprels": ["a", "b"]}), "heads must be integers"),
        (_record(opinions=[{"expression": [True, 2.9], "polarity": "positive"}]), "pairs of integers"),
        (_record(opinions=[{"expression": [0, 2], "target": [3.5, 10], "polarity": "positive"}]), "pairs of integers"),
        (_record(opinions=[{"expression": [0, 2], "holder": [0, 1.0], "polarity": "positive"}]), "pairs of integers"),
        (_record(tokens=[{"form": "x", "upos": "X", "start": 5.9, "end": 7}]), "bad token row"),
        (_record(tokens=[{"form": "x", "upos": "X", "start": "5", "end": 7}]), "bad token row"),
        (_record(tokens=[{"form": "x", "upos": "X", "start": False, "end": 1}]), "bad token row"),
        (_record(parse={"heads": [0, 1.9], "deprels": ["root", "dep"]}), "heads must be integers"),
        (_record(parse={"heads": ["0", True], "deprels": ["root", "dep"]}), "heads must be integers"),
    ],
)
def test_load_gold_rejects_malformed_records(raw, fragment):
    with pytest.raises(EvalError, match=fragment):
        _load_one(raw)


def test_load_gold_errors_carry_sentence_id():
    with pytest.raises(EvalError, match="record t1"):
        _load_one(_record(**{"class": "meh"}))


def test_load_gold_errors_carry_the_line():
    lines = [json.dumps(_record()), "", json.dumps(_record(sent_id="t3", tokens=5))]
    with pytest.raises(EvalError, match="^line 3: record t3: tokens must be"):
        list(load_gold(lines))
    with pytest.raises(EvalError, match="^line 1: missing sent_id$"):
        _load_one(_record(sent_id=""))


def test_char_span_rounds_outward():
    offsets = ((0, 4), (5, 10), (11, 13))
    assert char_span_to_token_span(offsets, (0, 4)) == (1, 1)
    assert char_span_to_token_span(offsets, (6, 8)) == (2, 2)
    assert char_span_to_token_span(offsets, (3, 7)) == (1, 2)
    assert char_span_to_token_span(offsets, (2, 12)) == (1, 3)
    assert char_span_to_token_span(offsets, (9, 11)) == (2, 2)


def test_char_span_failures():
    offsets = ((0, 4), (5, 10))
    with pytest.raises(EvalError, match="covers no token"):
        char_span_to_token_span(offsets, (4, 5))
    with pytest.raises(EvalError, match="empty character span"):
        char_span_to_token_span(offsets, (3, 3))


@pytest.mark.parametrize(
    "span", [(True, 4), (0, 2.9), (3.5, 10), ("0", 4), (0, 4, 9), (0,), 5, None]
)
def test_char_span_must_be_a_pair_of_integers(span):
    with pytest.raises(EvalError, match="^spans must be pairs of integers$"):
        char_span_to_token_span(((0, 4), (5, 10)), span)


def test_char_span_takes_a_list_or_a_tuple():
    offsets = ((0, 4), (5, 10))
    assert char_span_to_token_span(offsets, [0, 10]) == char_span_to_token_span(offsets, (0, 10))


# ------------------------------------------------------- sentence metrics


def test_eval_sentences_identity_is_perfect():
    labels = ["positive", "negative", "neutral", "positive"]
    m = eval_sentences(labels, labels)
    assert m.accuracy == 1.0
    assert m.macro_f1 == pytest.approx(1.0, abs=TOL)
    for metrics in m.per_class.values():
        assert metrics == ClassMetrics(1.0, 1.0, 1.0)


def test_eval_sentences_worked_case():
    pred = ["positive", "positive", "negative"]
    gold = ["positive", "negative", "negative"]
    m = eval_sentences(pred, gold)
    assert m.accuracy == pytest.approx(2 / 3, abs=TOL)
    assert m.per_class["positive"] == pytest.approx(ClassMetrics(0.5, 1.0, 2 / 3), abs=TOL)
    assert m.per_class["negative"] == pytest.approx(ClassMetrics(1.0, 0.5, 2 / 3), abs=TOL)
    assert m.per_class["neutral"] == ClassMetrics(0.0, 0.0, 0.0)
    assert m.macro_f1 == pytest.approx(4 / 9, abs=TOL)


def test_eval_sentences_absent_class_scores_zero_not_nan():
    m = eval_sentences(["positive"], ["positive"])
    assert m.per_class["neutral"] == ClassMetrics(0.0, 0.0, 0.0)
    assert m.macro_f1 == pytest.approx(1 / 3, abs=TOL)


@pytest.mark.parametrize(
    "pred, gold, fragment",
    [
        (["positive"], ["positive", "negative"], "1 predictions vs 2"),
        ([], [], "nothing to evaluate"),
        (["ok"], ["positive"], "unknown class label"),
        (["positive"], ["ok"], "unknown class label"),
    ],
)
def test_eval_sentences_errors(pred, gold, fragment):
    with pytest.raises(EvalError, match=fragment):
        eval_sentences(pred, gold)


# --------------------------------------------------------- target metrics


def _ops(sid, n, *triples):
    """triples of (expression_first, target_span, polarity)."""
    forms = tuple(f"w{i}" for i in range(1, n + 1))
    upos = ("NOUN",) * n
    opinions = tuple(
        Opinion((exp, exp), pol, target_span=span) for exp, span, pol in triples
    )
    return OpinionSet(forms, upos, opinions, sentence_id=sid)


def test_eval_targets_self_is_perfect(gold):
    sets = [gold["s3"].gold_opinions]
    for mode in ("exact", "overlap"):
        m = eval_targets(sets, sets, mode=mode)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.matches == m.predicted == m.gold == 2


def test_eval_targets_off_by_one_span():
    pred = {"x": [((2, 3), "positive")]}
    gold_side = {"x": [((3, 4), "positive")]}
    exact = eval_targets(pred, gold_side, mode="exact")
    overlap = eval_targets(pred, gold_side, mode="overlap")
    assert exact.f1 == 0.0
    assert overlap == (1.0, 1.0, 1.0, 1, 1, 1)


@pytest.mark.parametrize("side", ["pred", "gold"])
@pytest.mark.parametrize("span", [(1.9, True), ("1", 2), (1, 2, 3)], ids=repr)
def test_eval_targets_rejects_a_span_that_is_not_an_integer_pair(side, span):
    bad = {"a": [(span, "positive")]}
    good = {"a": [((1, 1), "positive")]}
    pred, gold = (bad, good) if side == "pred" else (good, bad)
    with pytest.raises(EvalError, match=r"^sentence 'a': target must be a pair of integers"):
        eval_targets(pred, gold, mode="exact")


def test_eval_targets_polarity_must_match():
    pred = {"x": [((2, 3), "positive")]}
    gold_side = {"x": [((2, 3), "negative")]}
    assert eval_targets(pred, gold_side, mode="overlap").matches == 0


def test_eval_targets_greedy_one_to_one():
    pred = {"x": [((1, 2), "positive"), ((1, 2), "positive")]}
    gold_side = {"x": [((1, 2), "positive")]}
    m = eval_targets(pred, gold_side)
    assert m.matches == 1
    assert m.precision == pytest.approx(0.5, abs=TOL)
    assert m.recall == 1.0


def test_eval_targets_exact_pass_runs_before_overlap_pass():
    pred = {"x": [((1, 5), "positive"), ((2, 2), "positive")]}
    gold_side = {"x": [((2, 2), "positive"), ((4, 6), "positive")]}
    assert eval_targets(pred, gold_side, mode="exact").matches == 1
    # a single loose pass would burn gold (2,2) on pred (1,5) and stop at 1
    assert eval_targets(pred, gold_side, mode="overlap").matches == 2


def test_eval_targets_missed_sentence_hurts_recall():
    pred = {"a": [((1, 1), "positive")]}
    gold_side = {
        "a": [((1, 1), "positive")],
        "b": [((2, 2), "negative")],
    }
    m = eval_targets(pred, gold_side)
    assert m.precision == 1.0
    assert m.recall == pytest.approx(0.5, abs=TOL)


def test_eval_targets_unknown_sentence_id():
    with pytest.raises(EvalError, match="unknown sentence_id 'ghost'"):
        eval_targets({"ghost": []}, {"a": []})


def test_eval_targets_rejects_unknown_mode():
    with pytest.raises(EvalError, match="match mode"):
        eval_targets({}, {}, mode="fuzzy")


def test_eval_targets_accepts_opinion_sets_and_ignores_targetless():
    pred = [_ops("a", 6, (1, (2, 3), "positive"))]
    gold_list = [
        OpinionSet(
            tuple(f"w{i}" for i in range(1, 7)),
            ("NOUN",) * 6,
            (
                Opinion((1, 1), "positive", target_span=(2, 3)),
                Opinion((5, 5), "negative"),  # no target: not a scoreable item
            ),
            sentence_id="a",
        )
    ]
    m = eval_targets(pred, gold_list, mode="exact")
    assert (m.matches, m.predicted, m.gold) == (1, 1, 1)
    assert m.f1 == 1.0


def test_eval_targets_order_invariant():
    left = {"a": [((4, 5), "negative"), ((1, 2), "positive")]}
    right = {"a": [((1, 2), "positive"), ((4, 5), "negative")]}
    gold_side = {"a": [((1, 2), "positive"), ((4, 5), "negative")]}
    assert eval_targets(left, gold_side) == eval_targets(right, gold_side)


def test_eval_targets_exact_never_beats_overlap_on_random_sets():
    rng = random.Random(1217)
    for _ in range(50):
        sid = "r"
        def items():
            return [
                ((first, first + rng.randint(0, 2)), rng.choice(["positive", "negative"]))
                for first in sorted(rng.sample(range(1, 12), rng.randint(0, 4)))
            ]
        pred, gold_side = {sid: items()}, {sid: items()}
        exact = eval_targets(pred, gold_side, mode="exact")
        overlap = eval_targets(pred, gold_side, mode="overlap")
        assert exact.f1 <= overlap.f1 + 1e-12


# ---------------------------------------------------------- parse metrics


def test_eval_parse_identity(gold):
    tree = gold["s3"].parse
    m = eval_parse([tree], [tree])
    assert m == (1.0, 1.0, 15)


def test_eval_parse_counts_head_and_label_hits():
    gold_tree = DepTree.build([0, 1, 1], deprels=["root", "a", "b"])
    head_off = DepTree.build([0, 1, 2], deprels=["root", "a", "b"])
    label_off = DepTree.build([0, 1, 1], deprels=["root", "a", "c"])
    m = eval_parse([head_off], [gold_tree])
    assert m.uas == pytest.approx(2 / 3, abs=TOL)
    assert m.las == pytest.approx(2 / 3, abs=TOL)
    m = eval_parse([label_off], [gold_tree])
    assert m.uas == 1.0
    assert m.las == pytest.approx(2 / 3, abs=TOL)


def test_eval_parse_las_never_beats_uas():
    for seed in range(30):
        n = random.Random(seed).randint(1, 12)
        pred = random_projective_tree(n, seed=seed)
        gold_tree = random_projective_tree(n, seed=seed + 1000)
        m = eval_parse([pred], [gold_tree])
        assert m.las <= m.uas + 1e-12


def test_eval_parse_errors():
    a = DepTree.build([0])
    b = DepTree.build([0, 1])
    with pytest.raises(EvalError, match="1 predicted trees vs 2"):
        eval_parse([a], [a, a])
    with pytest.raises(EvalError, match="token count mismatch"):
        eval_parse([a], [b])
    with pytest.raises(EvalError, match="nothing to evaluate"):
        eval_parse([], [])


# ----------------------------------------------------------- conversion


def test_conversion_coverage_counts_tree_representable_sets():
    clean = _ops("a", 6, (1, (2, 3), "positive"))
    tangled = OpinionSet(
        ("w1", "w2", "w3"),
        ("NOUN",) * 3,
        (
            Opinion((1, 2), "positive"),
            Opinion((2, 3), "negative"),  # shares token 2: no tree for this
        ),
        sentence_id="b",
    )
    assert conversion_coverage([clean]) == 1.0
    assert conversion_coverage([clean, tangled]) == pytest.approx(0.5, abs=TOL)
    assert conversion_coverage([]) == 1.0


def test_metrics_report_serializes_only_computed_sections():
    bare = MetricsReport(sentences=3, opinions=2, conversion_coverage=1.0)
    assert bare.to_dict() == {
        "sentences": 3,
        "opinions": 2,
        "conversion_coverage": 1.0,
    }
    full = MetricsReport(
        sentences=1,
        opinions=0,
        conversion_coverage=1.0,
        sentence=eval_sentences(["positive"], ["positive"]),
        targets_exact=eval_targets({}, {"a": []}),
    )
    payload = full.to_dict()
    assert payload["sentence"]["accuracy"] == 1.0
    assert payload["sentence"]["per_class"]["positive"]["f1"] == 1.0
    assert payload["targets"]["exact"]["predicted"] == 0
    assert "overlap" not in payload["targets"]
    assert "parse" not in payload
    assert json.dumps(payload)  # JSON-serializable end to end
