"""Opinion structures: tree conversion, inversion, and label round trips."""

import pytest

from treesent.encodings import NonProjectiveError, Scheme
from treesent.opinions import (
    Opinion,
    OpinionError,
    OpinionSet,
    decode_sentiment_tree,
    encode_sentiment_tree,
    from_tree,
    random_opinion_set,
    to_tree,
)
from treesent.tree import DepTree

UPOS_CYCLE = ("NOUN", "VERB", "ADJ", "ADV")


def sentence(n, opinions=(), sentence_id=""):
    return OpinionSet(
        tuple(f"w{i}" for i in range(1, n + 1)),
        tuple(UPOS_CYCLE[(i - 1) % 4] for i in range(1, n + 1)),
        tuple(opinions),
        sentence_id=sentence_id,
    )


def test_single_opinion_tree_shape():
    os = sentence(5, [Opinion((4, 4), "negative", target_span=(2, 3))])
    tree = to_tree(os)
    assert tree.heads == (4, 4, 2, 0, 4)
    assert tree.deprels == ("none", "targ", "span", "exp:negative", "none")


def test_single_opinion_round_trip():
    os = sentence(5, [Opinion((4, 4), "negative", target_span=(2, 3))])
    assert from_tree(to_tree(os)) == os


def test_zero_opinions_tree_shape():
    os = sentence(3)
    tree = to_tree(os)
    assert tree.heads == (0, 1, 1)
    assert tree.deprels == ("none", "none", "none")
    assert from_tree(tree) == os


def test_offset_labels_for_the_worked_examples():
    seq = encode_sentiment_tree(sentence(5, [Opinion((4, 4), "negative", target_span=(2, 3))]))
    assert seq.scheme == Scheme.REL_OFFSET
    assert [label.payload for label in seq.labels] == [3, 2, -1, 0, -1]
    assert [label.deprel for label in seq.labels] == [
        "none",
        "targ",
        "span",
        "exp:negative",
        "none",
    ]
    empty = encode_sentiment_tree(sentence(3))
    assert [label.payload for label in empty.labels] == [0, -1, -2]


def test_holder_round_trip():
    os = sentence(
        8,
        [Opinion((4, 5), "positive", target_span=(7, 8), holder_span=(1, 2))],
    )
    tree = to_tree(os)
    assert tree.heads == (4, 1, 4, 0, 4, 4, 4, 7)
    assert tree.deprels == ("hold", "span", "none", "exp:positive", "span", "none", "targ", "span")
    assert from_tree(tree) == os


def test_multiple_opinions_attach_to_first_root():
    os = sentence(
        7,
        [
            Opinion((2, 2), "positive", target_span=(1, 1)),
            Opinion((5, 6), "negative", target_span=(7, 7)),
        ],
    )
    tree = to_tree(os)
    assert tree.heads == (2, 0, 2, 2, 2, 5, 5)
    assert tree.deprels == ("targ", "exp:positive", "none", "none", "exp:negative", "span", "targ")
    assert from_tree(tree) == os


def test_opinions_sorted_by_expression_position():
    late = Opinion((5, 5), "negative")
    early = Opinion((2, 2), "positive")
    os = sentence(6, [late, early])
    assert os.opinions == (early, late)
    assert from_tree(to_tree(os)) == os


def test_overlap_rejected_with_owners_named():
    os = sentence(
        5,
        [
            Opinion((2, 3), "positive"),
            Opinion((4, 4), "negative", target_span=(3, 3)),
        ],
    )
    with pytest.raises(OpinionError, match="token 3.*opinion 0.*opinion 1"):
        to_tree(os)


def test_overlap_within_one_opinion_rejected():
    os = sentence(4, [Opinion((2, 2), "positive", target_span=(2, 3))])
    with pytest.raises(OpinionError, match="overlapping"):
        to_tree(os)


def test_overlapping_sets_still_constructible():
    # gold corpora contain overlaps; only tree conversion refuses them
    os = sentence(4, [Opinion((1, 2), "positive"), Opinion((2, 3), "negative")])
    assert len(os.opinions) == 2


def test_span_bounds_checked():
    with pytest.raises(OpinionError, match="outside sentence"):
        sentence(3, [Opinion((2, 4), "positive")])
    with pytest.raises(OpinionError, match="bad expression span"):
        Opinion((0, 1), "positive")
    with pytest.raises(OpinionError, match="bad target span"):
        Opinion((1, 1), "positive", target_span=(3, 2))
    with pytest.raises(OpinionError, match="polarity"):
        Opinion((1, 1), "wonderful")


@pytest.mark.parametrize("span", [(1.9, 3), (True, 2), ("1", 2), (1, 2, 3)], ids=repr)
def test_a_span_that_is_not_a_pair_of_integers_is_refused(span):
    with pytest.raises(OpinionError, match="^expression span must be a pair of integers, got "):
        Opinion(span, "positive")
    with pytest.raises(OpinionError, match="^target span must be a pair of integers, got "):
        Opinion((1, 1), "positive", target_span=span)


def test_a_span_given_as_a_list_is_a_tuple():
    opinion = Opinion([1, 2], "positive", holder_span=[3, 3])
    assert (opinion.expression_span, opinion.holder_span) == ((1, 2), (3, 3))
    assert type(opinion.expression_span) is tuple


def test_from_tree_unknown_deprel():
    tree = DepTree.build([0, 1], deprels=["exp:positive", "xcomp"])
    with pytest.raises(OpinionError, match="unknown deprel 'xcomp'"):
        from_tree(tree)


def test_from_tree_unknown_polarity():
    tree = DepTree.build([0], deprels=["exp:wonderful"])
    with pytest.raises(OpinionError, match="unknown polarity"):
        from_tree(tree)


def test_from_tree_target_needs_expression_head():
    tree = DepTree.build([0, 1, 2], deprels=["exp:positive", "none", "targ"])
    with pytest.raises(OpinionError, match="must attach to an expression head"):
        from_tree(tree)


def test_from_tree_noncontiguous_span():
    tree = DepTree.build([0, 1, 1, 1], deprels=["exp:positive", "span", "none", "span"])
    with pytest.raises(OpinionError, match="non-contiguous"):
        from_tree(tree)


def test_from_tree_multiple_targets():
    tree = DepTree.build([0, 1, 1], deprels=["exp:positive", "targ", "targ"])
    with pytest.raises(OpinionError, match="multiple 'targ'"):
        from_tree(tree)


def test_from_tree_span_chained_to_span():
    tree = DepTree.build([0, 1, 2], deprels=["exp:positive", "span", "span"])
    with pytest.raises(OpinionError, match="attached to non-head"):
        from_tree(tree)


def test_nonprojective_opinion_tree_refuses_brackets():
    os = sentence(
        5,
        [
            Opinion((2, 2), "positive", target_span=(5, 5)),
            Opinion((4, 4), "negative", target_span=(1, 1)),
        ],
    )
    with pytest.raises(NonProjectiveError):
        encode_sentiment_tree(os, Scheme.BRACKETS)
    # the offset scheme has no projectivity requirement
    seq = encode_sentiment_tree(os, Scheme.REL_OFFSET)
    assert len(seq.labels) == 5


@pytest.mark.parametrize("scheme", [Scheme.REL_OFFSET, Scheme.REL_POS], ids=str)
def test_label_round_trip_preserves_opinions(scheme):
    os = sentence(
        9,
        [
            Opinion((1, 2), "neutral", holder_span=(4, 4)),
            Opinion((6, 6), "positive", target_span=(8, 9)),
        ],
    )
    seq = encode_sentiment_tree(os, scheme)
    words = list(zip(os.forms, os.upos))
    recovered, result = decode_sentiment_tree(seq, words)
    assert result.repairs.total == 0
    assert recovered == os


def test_random_round_trips():
    import random

    rng = random.Random(515151)
    checked_with_opinions = 0
    for i in range(500):
        os = random_opinion_set(rng.randint(1, 30), seed=90000 + i)
        tree = to_tree(os)  # always validates as a tree
        assert from_tree(tree) == os
        seq = encode_sentiment_tree(os, Scheme.REL_OFFSET)
        recovered, result = decode_sentiment_tree(
            seq, list(zip(os.forms, os.upos)), sentence_id=os.sentence_id
        )
        assert result.repairs.total == 0
        assert recovered == os
        if os.opinions:
            checked_with_opinions += 1
    assert checked_with_opinions > 200


def test_random_generator_is_deterministic():
    assert random_opinion_set(12, 7) == random_opinion_set(12, 7)
    assert random_opinion_set(12, 7) != random_opinion_set(12, 8)
