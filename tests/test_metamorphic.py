"""Metamorphic relations of the rule engine: properties that need no gold
label, checked over every sentence the repository can make without a file
of its own, a seeded ``gen`` corpus for each demo lexicon and the demo
treebanks.

Mirror: with a lexicon whose valences are all negated, every sentence
valence comes out exactly negated and every class flips; every opinion
keeps its target and its evidence, with its valence negated and its class
flipped. So no rule treats one pole apart from the other.
"""

import pytest

from treesent import demo_treebank_path, demo_ud_path, read_conllu
from treesent.assets import DEMO_LANGUAGES, demo_lexicon
from treesent.bench import synthetic_trees
from treesent.lexicon import PolarityLexicon
from treesent.rules import RuleConfig, analyze

FLIPPED = {"positive": "negative", "negative": "positive", "neutral": "neutral"}
# (sentences, tokens per sentence, seed) of each generated corpus
GENERATED = ((3000, 12, 0), (600, 40, 1))


def _mirrored(lexicon):
    """``lexicon`` with every valence of every layer negated, its shifters
    and collocations as they were."""
    layers = tuple({key: -valence for key, valence in layer.items()} for layer in lexicon.layers)
    return PolarityLexicon(layers, lexicon.shifters, lexicon.language, lexicon.collocations)


def _corpus(lexicon):
    for sentences, length, seed in GENERATED:
        yield from synthetic_trees(sentences, length, lexicon, seed=seed)
    for path in (demo_treebank_path(), demo_ud_path()):
        yield from read_conllu(path, on_error="abort")


def _mirror_faults(tree, result, mirror):
    """What ``mirror``, the result under the mirrored lexicon, gets wrong."""
    faults = []
    if mirror.sentence_valence != -result.sentence_valence:
        faults.append(f"valence {result.sentence_valence!r} -> {mirror.sentence_valence!r}")
    if mirror.sentence_class != FLIPPED[result.sentence_class]:
        faults.append(f"class {result.sentence_class} -> {mirror.sentence_class}")
    if len(mirror.opinions) != len(result.opinions):
        faults.append(f"{len(result.opinions)} opinions -> {len(mirror.opinions)}")
    for op, mirrored in zip(result.opinions, mirror.opinions):
        if ((mirrored.target_token_ids, mirrored.target_text, mirrored.evidence_token_ids)
                != (op.target_token_ids, op.target_text, op.evidence_token_ids)):
            faults.append(f"opinion on {op.target_text!r} moved: {mirrored!r}")
        elif mirrored.valence != -op.valence or mirrored.opinion_class != FLIPPED[op.opinion_class]:
            faults.append(f"opinion on {op.target_text!r}: {op.valence!r} {op.opinion_class} -> "
                          f"{mirrored.valence!r} {mirrored.opinion_class}")
    return [f"{tree.sentence_id}: {fault}" for fault in faults]


@pytest.mark.parametrize("language", DEMO_LANGUAGES)
def test_a_mirrored_lexicon_mirrors_every_score_and_opinion(language):
    lexicon, cfg = demo_lexicon(language), RuleConfig()
    mirrored = _mirrored(lexicon)
    checked, polar, faults = 0, 0, []
    for tree in _corpus(lexicon):
        result = analyze(tree, lexicon, cfg, trace=False)
        faults += _mirror_faults(tree, result, analyze(tree, mirrored, cfg, trace=False))
        checked += 1
        polar += result.sentence_class != "neutral"
    assert faults == []
    # the relation is not vacuous: most generated sentences carry a polar score
    assert checked > 3600 and polar > checked // 2
