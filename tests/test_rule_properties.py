"""Rule engine properties over random trees, random lexicons and random
in-bound rule configs, not only the demo ones.

Each lexicon has a term with both a UPOS-filtered and an unfiltered entry,
all three shifter kinds, collocations that merge into a lexicon term or a
shifter, and a domain overlay drawn over the same words, which shadows
entries and reclassifies shifters. ``analyze --explain`` writes the same
bytes for such a lexicon on one worker as on two.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent import cli, conllu
from treesent.conllu import write_conllu
from treesent.lexicon import PolarityLexicon, ShifterInventory, merge_collocations
from treesent.rules import LEXICON, RuleConfig, SentimentResult, analyze, replay_trace, score_tree
from treesent.tree import DepTree

TERMS = ("good", "bad", "fine", "good_value", "not_bad")
SHIFTERS = ("not", "never", "very", "barely", "but", "yet", "by_far")
PIECES = ("at", "all", "by", "far", "kind", "of")
FILLERS = ("the", "phone", "it")
# lemmas as a parser may give them: mixed case, collocation halves, and the
# merged lemmas themselves
LEMMAS = TERMS + SHIFTERS + PIECES + FILLERS + ("Good", "NOT", "At", "But")
UPOS = ("NOUN", "PROPN", "VERB", "ADJ", "ADV", "PART", "CCONJ")
DEPRELS = ("nsubj", "nsubj:pass", "obj", "iobj", "obl", "obl:tmod", "amod", "acl",
           "advmod", "cop", "compound", "flat", "cc", "conj")
VALENCES = st.sampled_from((-5.0, -3.5, -1.0, -0.25, 0.0, 0.5, 2.0, 4.5, 5.0))
STRENGTHS = st.sampled_from((-0.75, -0.5, 0.0, 0.25, 0.9, 4.0))
KINDS = st.one_of(st.sampled_from(("NEG", "ADV")), STRENGTHS)


def _inventory(kinds):
    return ShifterInventory(
        {lemma for lemma, kind in kinds.items() if kind == "NEG"},
        {lemma: kind for lemma, kind in kinds.items() if not isinstance(kind, str)},
        {lemma for lemma, kind in kinds.items() if kind == "ADV"},
    )


@st.composite
def lexicons(draw):
    layer = draw(st.dictionaries(
        st.tuples(st.sampled_from(TERMS), st.sampled_from((None,) + UPOS)), VALENCES,
        max_size=12,
    ))
    # "good": a filtered and an unfiltered entry, so other UPOS fall back
    layer[("good", "ADJ")] = draw(VALENCES)
    layer[("good", None)] = draw(VALENCES)
    kinds = draw(st.dictionaries(st.sampled_from(SHIFTERS), KINDS, max_size=5))
    kinds.update({"not": "NEG", "very": draw(STRENGTHS), "but": "ADV"})
    collocations = draw(st.dictionaries(
        st.tuples(st.sampled_from(PIECES + ("not",)), st.sampled_from(PIECES + ("bad",))),
        st.sampled_from(TERMS + SHIFTERS),
        max_size=4,
    ))
    collocations[("not", "bad")] = "not_bad"  # into a lexicon term, when drawn as one
    base = PolarityLexicon((layer,), _inventory(kinds), "en", collocations)
    domain_layer = draw(st.dictionaries(
        st.tuples(st.sampled_from(TERMS), st.sampled_from((None,) + UPOS)), VALENCES,
        max_size=4,
    ))
    domain_kinds = draw(st.dictionaries(st.sampled_from(SHIFTERS), KINDS, max_size=2))
    domain = PolarityLexicon((domain_layer,), _inventory(domain_kinds), "en")
    return base.overlay(domain) if draw(st.booleans()) else base


rule_configs = st.builds(
    RuleConfig,
    negation_shift=st.floats(0, 6),
    negation_cap=st.floats(0, 5, exclude_min=True),
    adversative_weights=st.tuples(st.floats(0, 5), st.floats(0, 5)),
    neutral_threshold=st.floats(0, 3),
)


@st.composite
def trees(draw):
    n = draw(st.integers(1, 14))
    # each token after the first in a random order hangs off one before it
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, node in enumerate(order[1:], start=1):
        heads[node - 1] = order[draw(st.integers(0, k - 1))]
    lemmas = [draw(st.sampled_from(LEMMAS)) for _ in range(n)]
    return DepTree.build(
        heads,
        deprels=[draw(st.sampled_from(DEPRELS)) for _ in range(n)],
        forms=lemmas,
        upos=[draw(st.sampled_from(UPOS)) for _ in range(n)],
        lemmas=lemmas,
    )


def _bits(value):
    return struct.pack("<d", value)


@settings(max_examples=250, deadline=None)
@given(trees(), lexicons(), rule_configs)
def test_replaying_the_trace_gives_the_valence_bit_for_bit(tree, lex, cfg):
    valence, trace = score_tree(tree, lex, cfg)
    assert _bits(replay_trace(trace)) == _bits(valence)
    assert _bits(analyze(tree, lex, cfg).sentence_valence) == _bits(valence)


@settings(max_examples=250, deadline=None)
@given(trees(), lexicons(), rule_configs)
def test_an_untraced_result_differs_only_in_its_trace(tree, lex, cfg):
    full = analyze(tree, lex, cfg, trace=True)
    lean = analyze(tree, lex, cfg, trace=False)
    assert lean.trace == ()
    assert full.trace == tuple(score_tree(tree, lex, cfg)[1])
    assert lean == SentimentResult(full.sentence_valence, full.sentence_class, full.opinions)
    assert _bits(lean.sentence_valence) == _bits(full.sentence_valence)


@settings(max_examples=250, deadline=None)
@given(trees(), lexicons(), rule_configs)
def test_lexicon_steps_are_the_tokens_with_a_nonzero_lookup(tree, lex, cfg):
    _, trace = score_tree(tree, lex, cfg)
    merged = merge_collocations(tree.lemmas, lex.collocations)
    expected = []
    for node, (lemma, upos) in enumerate(zip(merged, tree.upos), start=1):
        value = lex.lookup(lemma, upos) if lemma else None
        if value:
            expected.append((node, 0.0, value, lemma))
    steps = [(s.token_id, s.before, s.after, s.note) for s in trace if s.rule == LEXICON]
    assert sorted(steps) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(trees(), min_size=2, max_size=10), lexicons(), rule_configs,
       st.integers(64, 1024))
def test_explain_output_is_the_same_on_one_and_two_workers(
    tmp_path_factory, sentences, lex, cfg, chunk_bytes
):
    # the sentences have no sent_id, so each record's id is its ordinal in the input
    corpus = tmp_path_factory.mktemp("workers") / "corpus.conllu"
    write_conllu(sentences, corpus)
    outputs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conllu, "CHUNK_BYTES", chunk_bytes)
        patch.setattr(cli.PipelineConfig, "load_lexicon", lambda self: lex)
        patch.setattr(cli.PipelineConfig, "load_rules", lambda self: cfg)
        for workers in (1, 2):
            out = corpus.with_name(f"{workers}.jsonl")
            argv = ["analyze", "--explain", "-i", corpus, "-o", out, "--workers", workers]
            assert cli.main([str(arg) for arg in argv]) == 0
            outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == len(sentences)


def _pairwise_merge(lemmas, table):
    """Greedy left-to-right merge, probing the pair table as it is keyed."""
    merged = list(lemmas)
    lowered = [lemma.lower() for lemma in lemmas]
    i = 0
    while i + 1 < len(merged):
        hit = table.get((lowered[i], lowered[i + 1]))
        if hit is None:
            i += 1
        else:
            merged[i], merged[i + 1] = hit, ""
            lowered[i], lowered[i + 1] = hit.lower(), ""
            i += 2
    return merged


@settings(max_examples=250, deadline=None)
@given(
    st.lists(st.sampled_from(PIECES + ("A", "All", "Kind", "x", "")), max_size=12),
    st.dictionaries(
        st.tuples(st.sampled_from(PIECES + ("A", "")), st.sampled_from(PIECES + ("All",))),
        st.sampled_from(("at_all", "Kind_Of", "x")),
        max_size=6,
    ),
)
def test_merge_collocations_matches_the_pairwise_reference(lemmas, table):
    assert merge_collocations(lemmas, table) == _pairwise_merge(lemmas, table)
