"""Tree model: validation, projectivity, random generators."""

import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesent import ConlluError, DepTree, ReadStats, Token, TreeError, crossing_arcs, is_projective
from treesent.conllu import _parse_block
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


# -- validation against the token-list reference ---------------------------

def reference_validate(tokens):
    """The token-by-token validator the columnar one replaced, kept as the oracle."""
    n = len(tokens)
    if n == 0:
        raise TreeError("empty sentence")
    root = 0
    for pos, tok in enumerate(tokens, start=1):
        if tok.id != pos:
            raise TreeError(f"token ids not contiguous: expected {pos}, got {tok.id}")
        if not tok.upos:
            raise TreeError(f"token {pos}: empty upos")
        if tok.head < 0 or tok.head > n:
            raise TreeError(f"token {pos}: head {tok.head} out of range 0..{n}")
        if tok.head == tok.id:
            raise TreeError(f"token {pos}: head equals id")
        if tok.head == 0:
            root += 1
    if root == 0:
        raise TreeError("no root token (head 0)")
    if root > 1:
        raise TreeError(f"{root} root tokens, expected exactly one")
    # Head-chasing with visited marks; every chain must reach 0.
    state = [0] * (n + 1)  # 0 new, 1 on current path, 2 done
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        j = start
        while j != 0 and state[j] == 0:
            state[j] = 1
            path.append(j)
            j = tokens[j - 1].head
        if j != 0 and state[j] == 1:
            raise TreeError(f"cycle through token {j}")
        for v in path:
            state[v] = 2


def reference_structure(tokens):
    """Children per head and the post-order, as the rule engine once built them."""
    kids = [[] for _ in range(len(tokens) + 1)]
    for tok in tokens:
        kids[tok.head].append(tok.id)
    children = tuple(tuple(k) for k in kids)
    order = []
    stack = [next(tok.id for tok in tokens if tok.head == 0)]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    order.reverse()
    return children, tuple(order)


@st.composite
def token_lists(draw):
    """A random tree on 0..9 tokens with up to three faults put in: a wrong
    id, a head anywhere in -1..n+1, a self-head, an empty UPOS tag, an extra
    root, or a ring of two or three tokens (whose dependents then hang off
    a cycle)."""
    n = draw(st.integers(0, 9))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, node in enumerate(order[1:], start=1):
        heads[node - 1] = order[draw(st.integers(0, k - 1))]
    ids = list(range(1, n + 1))
    upos = [draw(st.sampled_from(("NOUN", "VERB", "ADJ"))) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        pos = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(("id", "head", "self", "upos", "root", "ring")))
        if fault == "ring" and n > 1:
            ring = draw(st.lists(st.integers(1, n), min_size=2, max_size=3, unique=True))
            for dep, head in zip(ring, ring[1:] + ring[:1]):
                heads[dep - 1] = head
        elif fault == "id":
            ids[pos] = draw(st.integers(-1, n + 2))
        elif fault == "head":
            heads[pos] = draw(st.integers(-1, n + 1))
        elif fault == "self":
            heads[pos] = ids[pos]
        elif fault == "upos":
            upos[pos] = ""
        else:
            heads[pos] = 0
    return tuple(
        Token(i, f"w{pos}", f"l{pos}", tag, head, f"rel{pos % 3}")
        for pos, (i, tag, head) in enumerate(zip(ids, upos, heads), start=1)
    )


def _conllu_block(tokens):
    rows = [f"{t.id}\t{t.form}\t{t.lemma}\t{t.upos}\t_\t_\t{t.head}\t{t.deprel}\t_\t_"
            for t in tokens]
    return ["# sent_id = x", *rows]


@settings(max_examples=1500, deadline=None)
@given(token_lists())
def test_validation_accepts_and_rejects_as_the_reference_does(tokens):
    try:
        reference_validate(tokens)
    except TreeError as expected:
        with pytest.raises(TreeError) as got:
            DepTree(tokens)
        assert str(got.value) == str(expected)
        with pytest.raises(ConlluError) as read:
            _parse_block(_conllu_block(tokens), 1, 1, ReadStats())
        assert read.value.message == str(expected) and read.value.line == 1
        return
    tree = DepTree(tokens, "x", {"sent_id": "x"})
    children, order = reference_structure(tokens)
    assert (tree.children, tree.post_order) == (children, order)
    assert tree.root_id == order[-1]
    assert tree.tokens == tokens
    read = _parse_block(_conllu_block(tokens), 1, 1, ReadStats())
    assert read == tree and read.tokens == tokens
    assert (read.children, read.post_order) == (children, order)
    built = DepTree.build(
        [t.head for t in tokens], deprels=[t.deprel for t in tokens],
        forms=[t.form for t in tokens], upos=[t.upos for t in tokens],
        lemmas=[t.lemma for t in tokens], sentence_id="x", metadata={"sent_id": "x"},
    )
    assert built == tree
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and copy.tokens == tokens
    assert (copy.post_order, copy.children) == (order, children)  # the walk run lazily


def test_tree_is_frozen():
    t = build([2, 0])
    with pytest.raises(AttributeError):
        t.heads = (0, 1)
    with pytest.raises(AttributeError):
        del t.forms


def test_columns_are_stored_tuples():
    t = build([2, 0], forms=["a", "b"], upos=["DET", "NOUN"], deprels=["det", "root"])
    assert t.heads is t.heads and t.heads == (2, 0)
    assert (t.forms, t.lemmas, t.upos, t.deprels) == (("a", "b"), ("a", "b"),
                                                      ("DET", "NOUN"), ("det", "root"))
    assert t.upos_tags is t.upos
    assert t.tokens is t.tokens and t.tokens[1] == Token(2, "b", "b", "NOUN", 0, "root")


def test_build_rejects_columns_of_the_wrong_length():
    with pytest.raises(ValueError, match="every column needs 2 entries"):
        build([2, 0], forms=["a"])


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
            assert _arcs_nest(t.heads) == _oracle_projective(t.heads), t.heads
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
    columns = (t.forms, t.lemmas, t.upos, t.heads, t.deprels)
    trusted = DepTree._trusted(*columns, "s")
    assert trusted == t and trusted.metadata == {}
    assert (trusted.root_id, trusted.children) == (t.root_id, t.children)
    assert DepTree._trusted(*columns, "s", {"sent_id": "s"}).metadata == {"sent_id": "s"}


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
