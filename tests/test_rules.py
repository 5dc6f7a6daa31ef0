"""Rule engine: composition, shifters, targets, traces, and the baseline."""

import io
import math
import pickle

import pytest

from treesent.assets import demo_lexicon, demo_treebank_path, demo_ud_path
from treesent.bench import synthetic_sentence, word_pool
from treesent.conllu import read_conllu
from treesent.lexicon import PolarityLexicon, load_lexicon
from treesent.rules import (
    AGGREGATE,
    INTENSIFY,
    LEXICON,
    NEGATE,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    RuleConfig,
    RuleError,
    SentimentResult,
    analyze,
    baseline_wordcount,
    classify_valence,
    extract_targets,
    replay_trace,
    score_tree,
)
from treesent.tree import DepTree


@pytest.fixture(scope="module")
def lex():
    return demo_lexicon("en")


@pytest.fixture(scope="module")
def cfg():
    return RuleConfig()


@pytest.fixture(scope="module")
def demo():
    return {tree.sentence_id: tree for tree in read_conllu(demo_treebank_path())}


def simple(heads, deprels, lemmas, upos):
    return DepTree.build(heads, deprels=deprels, forms=lemmas, upos=upos, lemmas=lemmas)


def test_contrast_pair_valences(demo, lex, cfg):
    v1, _ = score_tree(demo["s1"], lex, cfg)
    v2, _ = score_tree(demo["s2"], lex, cfg)
    assert v1 == pytest.approx(5.0, abs=1e-9)
    assert v2 == pytest.approx(-3.0, abs=1e-9)


def test_contrast_pair_opposite_classes(demo, lex, cfg):
    r1 = analyze(demo["s1"], lex, cfg)
    r2 = analyze(demo["s2"], lex, cfg)
    assert r1.sentence_class == POSITIVE
    assert r2.sentence_class == NEGATIVE
    assert r1.trace == tuple(score_tree(demo["s1"], lex, cfg)[1])
    assert r2.trace == tuple(score_tree(demo["s2"], lex, cfg)[1])


def test_contrast_pair_negation_steps(demo, lex, cfg):
    _, trace = score_tree(demo["s1"], lex, cfg)
    negates = [s for s in trace if s.rule == NEGATE]
    assert len(negates) == 1
    assert negates[0].token_id == 12
    assert negates[0].before == pytest.approx(-2.0)
    assert negates[0].after == pytest.approx(2.0)
    assert negates[0].note == "not"
    assert trace[-1].rule == AGGREGATE


def test_sentence3_sentence_level(demo, lex, cfg):
    result = analyze(demo["s3"], lex, cfg)
    assert result.sentence_valence == pytest.approx(-3.0, abs=1e-9)
    assert result.sentence_class == NEGATIVE


def test_sentence3_opinions(demo, lex, cfg):
    result = analyze(demo["s3"], lex, cfg)
    assert [op.target_text for op in result.opinions] == ["camera", "battery life"]
    camera, battery = result.opinions
    assert camera.target_token_ids == (7,)
    assert camera.valence == pytest.approx(3.0, abs=1e-9)
    assert camera.opinion_class == POSITIVE
    assert camera.evidence_token_ids == (3,)
    assert battery.target_token_ids == (11, 12)
    assert battery.valence == pytest.approx(-3.0, abs=1e-9)
    assert battery.opinion_class == NEGATIVE
    assert battery.evidence_token_ids == (15,)


def test_baseline_cannot_separate_contrast_pair(demo, lex, cfg):
    b1 = baseline_wordcount(demo["s1"], lex, cfg)
    b2 = baseline_wordcount(demo["s2"], lex, cfg)
    assert b1 == b2
    assert b1 == (pytest.approx(1.0), POSITIVE)
    # while the tree-walking rules do separate them
    assert analyze(demo["s2"], lex, cfg).sentence_class != b2[1]


def test_empty_lexicon_all_neutral(demo, cfg):
    empty = load_lexicon(io.StringIO(""), "en")
    valence, trace = score_tree(demo["s1"], empty, cfg)
    assert valence == 0.0
    assert [step.rule for step in trace] == [AGGREGATE]
    result = analyze(demo["s1"], empty, cfg)
    assert result.sentence_class == NEUTRAL
    assert [step.rule for step in result.trace] == [AGGREGATE]


@pytest.mark.parametrize(
    "valence, expected",
    [(5.0, POSITIVE), (-3.0, NEGATIVE), (0.3, NEUTRAL), (0.5, NEUTRAL), (-0.5, NEUTRAL)],
)
def test_threshold_arithmetic(valence, expected):
    assert classify_valence(valence, 0.5) == expected


def _predicate_tree(word, upos, negated, negator="not"):
    # "X is <w>" / "X is <negator> <w>" with the adjective as root
    if negated:
        return simple(
            [4, 4, 4, 0],
            ["nsubj", "cop", "advmod", "root"],
            ["x", "be", negator, word],
            ["NOUN", "AUX", "PART", upos],
        )
    return simple(
        [3, 3, 0],
        ["nsubj", "cop", "root"],
        ["x", "be", word],
        ["NOUN", "AUX", upos],
    )


def test_negation_flips_class_for_every_eligible_demo_word(cfg):
    checked = 0
    for language, negator in (("en", "not"), ("es", "no")):
        lexicon = demo_lexicon(language)
        for entry in lexicon.entries():
            valence = entry.valence
            upos = entry.upos_filter or "ADJ"
            if abs(valence) <= cfg.neutral_threshold:
                continue
            shifted = valence - math.copysign(cfg.negation_shift, valence)
            shifted = max(-cfg.negation_cap, min(cfg.negation_cap, shifted))
            if abs(shifted) <= cfg.neutral_threshold:
                continue  # lands in the neutral band, no clean flip
            plain = analyze(_predicate_tree(entry.term, upos, False), lexicon, cfg)
            negated = analyze(_predicate_tree(entry.term, upos, True, negator), lexicon, cfg)
            assert plain.sentence_class != negated.sentence_class, entry
            assert {plain.sentence_class, negated.sentence_class} == {POSITIVE, NEGATIVE}
            checked += 1
    assert checked >= 40


def test_intensifier_monotone_for_nonnegative_strengths(cfg):
    for language, word in (("en", "good"), ("es", "bueno")):
        lexicon = demo_lexicon(language)
        bare = simple([0], ["root"], [word], ["ADJ"])
        base_valence, _ = score_tree(bare, lexicon, cfg)
        assert base_valence != 0.0
        for intensifier, strength in sorted(lexicon.shifters.intensifiers.items()):
            if strength < 0:
                continue
            boosted = simple(
                [2, 0], ["advmod", "root"], [intensifier, word], ["ADV", "ADJ"]
            )
            valence, trace = score_tree(boosted, lexicon, cfg)
            assert abs(valence) >= abs(base_valence), intensifier
            assert any(s.rule == INTENSIFY and s.note == intensifier for s in trace)


def test_intensifiers_stack_multiplicatively_in_order(lex, cfg):
    tree = simple(
        [3, 3, 0],
        ["advmod", "advmod", "root"],
        ["really", "very", "good"],
        ["ADV", "ADV", "ADJ"],
    )
    valence, trace = score_tree(tree, lex, cfg)
    assert valence == pytest.approx(3.0 * 1.5 * 1.5)
    steps = [s for s in trace if s.rule == INTENSIFY]
    assert [s.note for s in steps] == ["really", "very"]
    assert steps[0].before == pytest.approx(3.0)
    assert steps[1].before == pytest.approx(4.5)


def test_downtoner_shrinks(lex, cfg):
    tree = simple([2, 0], ["advmod", "root"], ["slightly", "good"], ["ADV", "ADJ"])
    valence, _ = score_tree(tree, lex, cfg)
    assert valence == pytest.approx(3.0 * 0.5)


def test_vacuous_negation_recorded(lex, cfg):
    tree = simple([2, 0], ["advmod", "root"], ["not", "zebra"], ["PART", "NOUN"])
    valence, trace = score_tree(tree, lex, cfg)
    assert valence == 0.0
    vacuous = [s for s in trace if s.rule == NEGATE]
    assert len(vacuous) == 1
    assert vacuous[0].note == "vacuous"
    assert vacuous[0].before == vacuous[0].after == 0.0


def test_double_negation_round_trips(lex, cfg):
    tree = simple(
        [3, 3, 0],
        ["advmod", "advmod", "root"],
        ["not", "never", "good"],
        ["PART", "ADV", "ADJ"],
    )
    valence, trace = score_tree(tree, lex, cfg)
    # 3 -> -1 -> back to 3, one shift per negator
    assert valence == pytest.approx(3.0)
    assert [s.rule for s in trace].count(NEGATE) == 2


def test_negation_clamped_to_cap(lex):
    cfg = RuleConfig(negation_shift=8.0)
    tree = simple([2, 0], ["advmod", "root"], ["not", "expensive"], ["PART", "ADJ"])
    valence, trace = score_tree(tree, lex, cfg)
    # -2 + 8 = 6 clamps to the +5 cap
    assert valence == pytest.approx(5.0)
    negate = next(s for s in trace if s.rule == NEGATE)
    assert negate.after == pytest.approx(5.0)


def test_collocation_intensifier_feeds_composition(lex, cfg):
    tree = simple(
        [3, 1, 0],
        ["advmod", "fixed", "root"],
        ["at", "all", "good"],
        ["ADP", "DET", "ADJ"],
    )
    valence, trace = score_tree(tree, lex, cfg)
    assert valence == pytest.approx(3.0 * 1.25)
    assert any(s.rule == INTENSIFY and s.note == "at_all" for s in trace)


def _adversative_pair(first, second):
    return simple(
        [0, 1, 1],
        ["root", "cc", "conj"],
        [first, "but", second],
        ["ADJ", "CCONJ", "ADJ"],
    )


def test_adversative_order_sensitivity(lex, cfg):
    downbeat = _adversative_pair("good", "bad")
    upbeat = _adversative_pair("bad", "good")
    v_down, _ = score_tree(downbeat, lex, cfg)
    v_up, _ = score_tree(upbeat, lex, cfg)
    assert v_down == pytest.approx(0.5 * 3.0 + 1.5 * -3.0)
    assert v_up == pytest.approx(0.5 * -3.0 + 1.5 * 3.0)
    assert v_down < v_up
    assert classify_valence(v_down, cfg.neutral_threshold) == NEGATIVE
    assert classify_valence(v_up, cfg.neutral_threshold) == POSITIVE


def test_leftmost_adversative_is_the_pivot(lex, cfg):
    tree = simple(
        [0, 1, 1, 1, 1],
        ["root", "cc", "conj", "cc", "conj"],
        ["good", "but", "bad", "however", "terrible"],
        ["ADJ", "CCONJ", "ADJ", "CCONJ", "ADJ"],
    )
    valence, trace = score_tree(tree, lex, cfg)
    pivot_steps = [s for s in trace if s.rule == "ADVERSATIVE"]
    assert len(pivot_steps) == 1
    assert pivot_steps[0].token_id == 2
    assert valence == pytest.approx(0.5 * 3.0 + 1.5 * (-3.0 - 4.0))


def test_trace_replay_is_exact(demo, lex, cfg):
    for tree in demo.values():
        valence, trace = score_tree(tree, lex, cfg)
        assert replay_trace(trace) == valence
    custom = simple(
        [3, 3, 0],
        ["advmod", "advmod", "root"],
        ["really", "not", "good"],
        ["ADV", "PART", "ADJ"],
    )
    valence, trace = score_tree(custom, lex, cfg)
    assert replay_trace(trace) == valence


def test_untraced_analyze_differs_only_in_its_trace(demo, lex, cfg):
    pool = word_pool(lex)
    trees = [*demo.values(), *read_conllu(demo_ud_path())]
    trees += [synthetic_sentence(12, pool, seed, f"syn-{seed}") for seed in range(300)]
    for tree in trees:
        full = analyze(tree, lex, cfg)
        lean = analyze(tree, lex, cfg, trace=False)
        assert lean.trace == ()
        assert lean == SentimentResult(full.sentence_valence, full.sentence_class, full.opinions)
        assert full.trace == tuple(score_tree(tree, lex, cfg)[1])
    assert sum(bool(analyze(t, lex, cfg).opinions) for t in trees) > 50


def test_aggregate_step_carries_the_class(demo, lex, cfg):
    _, trace = score_tree(demo["s2"], lex, cfg)
    assert trace[-1].rule == AGGREGATE
    assert trace[-1].note == NEGATIVE
    assert trace[-1].before == trace[-1].after


def test_extract_targets_demo_sentences(demo):
    assert extract_targets(demo["s1"]) == [(2,)]
    assert extract_targets(demo["s3"]) == [(5,), (7,), (11, 12)]


def test_extract_targets_no_nouns():
    tree = simple(
        [2, 0, 2], ["nsubj", "root", "advmod"], ["it", "works", "well"], ["PRON", "VERB", "ADV"]
    )
    assert extract_targets(tree) == []


def test_extract_targets_amod_joins_span():
    tree = simple(
        [3, 3, 0], ["det", "amod", "root"], ["the", "red", "car"], ["DET", "ADJ", "NOUN"]
    )
    assert extract_targets(tree) == [(2, 3)]


def test_target_without_evidence_is_neutral(demo, lex, cfg):
    # (5,) is a candidate span, but nothing speaks about it, so analyze
    # leaves it out rather than report a neutral opinion
    assert (5,) in extract_targets(demo["s3"])
    spans = [op.target_token_ids for op in analyze(demo["s3"], lex, cfg).opinions]
    assert (5,) not in spans


def test_single_word_sentence(lex, cfg):
    tree = simple([0], ["root"], ["great"], ["ADJ"])
    result = analyze(tree, lex, cfg)
    assert result.sentence_valence == pytest.approx(4.0)
    assert result.sentence_class == POSITIVE
    assert result.opinions == ()


def test_all_neutral_sentence(lex, cfg):
    tree = simple(
        [2, 0, 2], ["nsubj", "root", "obj"], ["it", "has", "button"], ["PRON", "VERB", "NOUN"]
    )
    result = analyze(tree, lex, cfg)
    assert result.sentence_class == NEUTRAL
    assert result.opinions == ()


def test_analyze_is_deterministic(demo, lex, cfg):
    assert analyze(demo["s3"], lex, cfg) == analyze(demo["s3"], lex, cfg)


def test_baseline_edges(lex, cfg):
    assert baseline_wordcount([], lex, cfg) == (0.0, NEUTRAL)
    doubled = simple([0, 1], ["root", "conj"], ["good", "good"], ["ADJ", "ADJ"])
    assert baseline_wordcount(doubled, lex, cfg) == (pytest.approx(6.0), POSITIVE)


def test_config_from_file_overrides_and_defaults():
    cfg = RuleConfig.from_file(
        io.StringIO(
            "# tuning\nnegation_shift = 2.0\nadversative_weights = 0.25, 1.75\n"
            "neutral_threshold = 0.1\n"
        )
    )
    assert cfg.negation_shift == 2.0
    assert cfg.adversative_weights == (0.25, 1.75)
    assert cfg.neutral_threshold == 0.1
    assert cfg.negation_cap == 5.0  # untouched default


@pytest.mark.parametrize(
    "text, message",
    [
        ("negation_shift 2.0", "key = value"),
        ("mystery = 1.0", "unknown key"),
        ("negation_shift = lots", "bad value"),
        ("negation_shift = 1\nnegation_shift = 2", "duplicate"),
        ("adversative_weights = 0.5", "needs 2 values"),
        ("negation_scope = LINEAR", "negation_scope"),
        ("negation_cap = 0", "negation_cap"),
        ("negation_cap = 9", "negation_cap"),
        ("neutral_threshold = -1", "neutral_threshold"),
        ("neutral_threshold = nan", "neutral_threshold"),
        ("negation_shift = nan", "negation_shift"),
        ("adversative_weights = 0.5, nan", "adversative_weights"),
        ("adversative_weights = inf, 1", "adversative_weights"),
        ("adversative_weights = 1e308, 1e308", "adversative_weights"),
        ("adversative_weights = 1, 5.01", "adversative_weights"),
    ],
)
def test_config_errors(text, message):
    with pytest.raises(RuleError, match=message):
        RuleConfig.from_file(io.StringIO(text + "\n"))


def test_adversative_weights_of_five_load():
    cfg = RuleConfig.from_file(io.StringIO("adversative_weights = 5, 5\n"))
    assert cfg.adversative_weights == (5.0, 5.0)


def test_config_direct_validation():
    with pytest.raises(RuleError):
        RuleConfig(adversative_weights=(-0.5, 1.0))
    with pytest.raises(RuleError):
        RuleConfig(negation_shift=-1.0)


def test_rule_error_survives_pickle():
    err = pickle.loads(pickle.dumps(RuleError("bad value", 4)))
    assert type(err) is RuleError
    assert (str(err), err.message, err.line) == ("line 4: bad value", "bad value", 4)
    assert pickle.loads(pickle.dumps(RuleError("no line"))).line is None
