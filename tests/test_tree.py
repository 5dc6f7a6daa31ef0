"""Tree model: validation, projectivity, random generators."""

import itertools
from collections import Counter

import pytest

from treesent import DepTree, Token, TreeError, crossing_arcs, is_projective
from treesent.tree import _arcs_nest, random_projective_tree, random_tree


def build(heads, **kw):
    return DepTree.build(heads, **kw)


# -- validation -------------------------------------------------------------

def test_single_token_tree():
    t = build([0])
    assert t.root_id == 1
    assert len(t) == 1


def test_chain_tree_children():
    t = build([2, 3, 0])
    assert t.root_id == 3
    assert t.children[3] == (2,)
    assert t.children[2] == (1,)
    assert t.children[0] == (3,)


@pytest.mark.parametrize(
    "heads,msg",
    [
        ([0, 0], "2 root tokens"),
        ([2, 1], "no root"),
        ([5, 0], "out of range"),
        ([1, 0], "head equals id"),
        ([], "empty"),
    ],
)
def test_invalid_head_vectors(heads, msg):
    with pytest.raises(TreeError, match=msg):
        build(heads)


def test_cycle_detected():
    with pytest.raises(TreeError, match="cycle"):
        build([2, 1, 0])


def test_noncontiguous_ids_rejected():
    toks = (Token(1, "a", "a", "X", 0, "root"), Token(3, "b", "b", "X", 1, "dep"))
    with pytest.raises(TreeError, match="contiguous"):
        DepTree(toks)


def test_empty_upos_rejected():
    with pytest.raises(TreeError, match="upos"):
        DepTree((Token(1, "a", "a", "", 0, "root"),))


# -- projectivity -----------------------------------------------------------

def _oracle_projective(heads):
    """Independent all-pairs crossing check, root arcs as (0, dependent)."""
    arcs = []
    for d, h in enumerate(heads, start=1):
        arcs.append((min(h, d), max(h, d)))
    for (a, b), (c, d) in itertools.combinations(arcs, 2):
        if a < c < b < d or c < a < d < b:
            return False
    return True


def test_chain_is_projective():
    assert is_projective(build([2, 3, 0]))


def test_known_crossing_pair():
    t = build([3, 4, 0, 3])
    assert not is_projective(t)
    pair = crossing_arcs(t)
    assert pair is not None
    spans = sorted(tuple(sorted(arc)) for arc in pair)
    assert spans == [(1, 3), (2, 4)]


def test_root_spanning_arc_is_crossing():
    # Arc 3 -> 1 spans the root at position 2.
    assert not is_projective(build([3, 0, 2]))


def _quadratic_crossing(tree):
    """First crossing pair in token order, by checking every pair of arcs."""
    spans = [(min(t.head, t.id), max(t.head, t.id), t.head, t.id) for t in tree.tokens]
    for a, (lo1, hi1, h1, d1) in enumerate(spans):
        for lo2, hi2, h2, d2 in spans[a + 1:]:
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                return (h1, d1), (h2, d2)
    return None


def _rooted_trees(n):
    """Every labeled rooted tree on n tokens, as validated DepTrees."""
    for root in range(1, n + 1):
        choices = [[0] if d == root else [h for h in range(1, n + 1) if h != d]
                   for d in range(1, n + 1)]
        for heads in itertools.product(*choices):
            try:
                yield build(list(heads))
            except TreeError:
                continue


def test_projectivity_matches_oracle_exhaustively():
    for n in range(1, 7):
        seen = 0
        for t in _rooted_trees(n):
            seen += 1
            assert _arcs_nest(t.tokens) == _oracle_projective(t.heads), t.heads
            assert is_projective(t) == _oracle_projective(t.heads), t.heads
            assert crossing_arcs(t) == _quadratic_crossing(t), t.heads
        assert seen == n ** (n - 1)  # labeled rooted trees on n nodes


def test_crossing_pair_on_long_trees_matches_quadratic_search():
    for seed in range(200):
        n = 20 + seed % 60
        t = random_projective_tree(n, seed) if seed % 2 else random_tree(n, seed)
        assert crossing_arcs(t) == _quadratic_crossing(t), t.heads


def test_trusted_tree_equals_validated_tree():
    t = build([2, 3, 0], forms=["a", "b", "c"], sentence_id="s")
    trusted = DepTree._trusted(t.tokens, "s")
    assert trusted == t and trusted.metadata == {}
    assert (trusted.root_id, trusted.children) == (t.root_id, t.children)
    assert DepTree._trusted(t.tokens, "s", {"sent_id": "s"}).metadata == {"sent_id": "s"}


# -- random generators ------------------------------------------------------

def test_random_tree_trivial_sizes():
    assert random_tree(1, 0).heads == (0,)
    assert random_tree(2, 5).heads in ((0, 1), (2, 0))


def test_random_tree_deterministic():
    a = random_tree(9, 123)
    b = random_tree(9, 123)
    assert a.heads == b.heads and a.deprels == b.deprels


def test_random_tree_valid_across_sizes_and_seeds():
    for n in range(1, 51):
        for seed in range(20):
            t = random_tree(n, seed)  # construction validates
            assert len(t) == n


def test_random_tree_uniform_over_rooted_trees():
    # 64 labeled rooted trees on 4 nodes; each draw within 20% of uniform.
    draws = 30_000
    counts = Counter(random_tree(4, seed).heads for seed in range(draws))
    assert len(counts) == 64
    expected = draws / 64
    for heads, c in counts.items():
        assert 0.8 * expected <= c <= 1.2 * expected, (heads, c)


def test_random_projective_tree_always_projective():
    for seed in range(1000):
        t = random_projective_tree(2 + seed % 11, seed)
        assert is_projective(t), t.heads


def test_random_projective_tree_trivial_sizes():
    assert random_projective_tree(1, 3).heads == (0,)
    assert random_projective_tree(2, 4).heads in ((0, 1), (2, 0))


def test_random_projective_tree_deterministic():
    assert random_projective_tree(14, 7).heads == random_projective_tree(14, 7).heads


def test_generators_reject_bad_n():
    with pytest.raises(ValueError):
        random_tree(0, 1)
    with pytest.raises(ValueError):
        random_projective_tree(0, 1)
