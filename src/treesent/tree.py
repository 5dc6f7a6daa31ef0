"""Dependency tree domain model.

A sentence is a list of tokens, each pointing at a head token (0 for the
sentence root). Trees are validated on construction, so every ``DepTree``
in the system is single-rooted, acyclic and contiguously numbered. The one
exception is ``DepTree._trusted``, for code that has just proven those
invariants itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence


class Token(NamedTuple):
    """One syntactic word. ``head`` is 0 for the root, else a 1-based token id."""

    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


class DataError(ValueError):
    """Input data that cannot be read or used; the command line exits 1 on it."""


class TreeError(DataError):
    """Raised when a token list does not form a valid dependency tree."""


# Cycled over token positions by the random generators.
FILLER_UPOS = ("NOUN", "VERB", "ADJ", "ADV")
FILLER_DEPRELS = ("nsubj", "obj", "amod", "advmod")


def _validate_tokens(tokens: Sequence[Token]) -> None:
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


@dataclass(frozen=True)
class DepTree:
    """An immutable validated dependency tree.

    ``metadata`` holds comment key/value pairs (value ``None`` for bare
    comments). Treat it as read-only after construction.
    """

    tokens: tuple[Token, ...]
    sentence_id: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        _validate_tokens(self.tokens)

    @classmethod
    def _trusted(
        cls, tokens: tuple[Token, ...], sentence_id: str = "", metadata: dict | None = None
    ) -> "DepTree":
        """A tree over ``tokens`` without validating them.

        Only for callers that built ``tokens`` themselves and so already
        know what ``_validate_tokens`` would check: ids ``1..n``, non-empty
        UPOS tags, in-range heads, and one acyclic tree with a single root.
        """
        tree = object.__new__(cls)
        object.__setattr__(tree, "tokens", tokens)
        object.__setattr__(tree, "sentence_id", sentence_id)
        object.__setattr__(tree, "metadata", {} if metadata is None else metadata)
        return tree

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def root_id(self) -> int:
        for tok in self.tokens:
            if tok.head == 0:
                return tok.id
        raise TreeError("no root")  # unreachable after validation

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child ids per head, index 0 = the artificial root slot."""
        kids: list[list[int]] = [[] for _ in range(len(self.tokens) + 1)]
        for tok in self.tokens:
            kids[tok.head].append(tok.id)
        return tuple(tuple(k) for k in kids)

    @property
    def heads(self) -> tuple[int, ...]:
        return tuple(t.head for t in self.tokens)

    @property
    def deprels(self) -> tuple[str, ...]:
        return tuple(t.deprel for t in self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def upos_tags(self) -> tuple[str, ...]:
        return tuple(t.upos for t in self.tokens)

    @classmethod
    def build(
        cls,
        heads: Sequence[int],
        deprels: Sequence[str] | None = None,
        forms: Sequence[str] | None = None,
        upos: Sequence[str] | None = None,
        lemmas: Sequence[str] | None = None,
        sentence_id: str = "",
        metadata: dict | None = None,
    ) -> "DepTree":
        """Assemble a tree from parallel columns, filling unspecified ones."""
        n = len(heads)
        if forms is None:
            forms = [f"w{i}" for i in range(1, n + 1)]
        if upos is None:
            upos = [FILLER_UPOS[(i - 1) % len(FILLER_UPOS)] for i in range(1, n + 1)]
        if lemmas is None:
            lemmas = list(forms)
        if deprels is None:
            deprels = ["root" if h == 0 else FILLER_DEPRELS[(i - 1) % len(FILLER_DEPRELS)]
                       for i, h in enumerate(heads, start=1)]
        tokens = tuple(
            Token(i, forms[i - 1], lemmas[i - 1], upos[i - 1], heads[i - 1], deprels[i - 1])
            for i in range(1, n + 1)
        )
        return cls(tokens, sentence_id=sentence_id, metadata=metadata or {})


def _arcs_nest(tokens: Sequence[Token]) -> bool:
    """True if no two arcs cross, in one left-to-right pass.

    Arcs are opened at their left end, longest first, and closed at their
    right end. They nest exactly when every arc closes while it is the
    innermost one still open, that is, on top of the stack.
    """
    n = len(tokens)
    right_ends: list[list[int]] = [[] for _ in range(n + 1)]
    closing = [0] * (n + 1)
    for tok in tokens:
        if tok.head < tok.id:
            right_ends[tok.head].append(tok.id)
            closing[tok.id] += 1
        else:
            right_ends[tok.id].append(tok.head)
            closing[tok.head] += 1
    open_ends: list[int] = []
    for pos in range(n + 1):
        for _ in range(closing[pos]):
            if open_ends.pop() != pos:
                return False
        ends = right_ends[pos]
        if ends:
            ends.sort(reverse=True)
            open_ends.extend(ends)
    return True


def crossing_arcs(tree: DepTree) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First pair of crossing arcs, or None if the tree is projective.

    Each arc is reported as (head, dependent). The root arc counts as an
    arc from position 0 to the root token. Projective trees cost one
    linear pass; only a tree with a crossing is searched pair by pair,
    so that the pair reported is the first one in token order.
    """
    if _arcs_nest(tree.tokens):
        return None
    spans = []
    for tok in tree.tokens:
        lo, hi = (tok.head, tok.id) if tok.head < tok.id else (tok.id, tok.head)
        spans.append((lo, hi, tok.head, tok.id))
    for a in range(len(spans)):
        lo1, hi1, h1, d1 = spans[a]
        for b in range(a + 1, len(spans)):
            lo2, hi2, h2, d2 = spans[b]
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                return (h1, d1), (h2, d2)
    return None  # unreachable: _arcs_nest found a crossing


def is_projective(tree: DepTree) -> bool:
    """True if no two arcs cross (root arc included)."""
    return crossing_arcs(tree) is None


def _prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    # Standard linear-time decoding of a Pruefer sequence over nodes 1..n.
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return edges


def random_tree(n: int, seed: int) -> DepTree:
    """Uniform random labeled rooted tree on n nodes.

    Draws a uniform Pruefer sequence (uniform over the n**(n-2) unrooted
    labeled trees) and an independent uniform root, which makes all
    n**(n-1) rooted labeled trees equally likely. Deterministic per
    (n, seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    heads = [0] * (n + 1)
    if n == 1:
        root = 1
    else:
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        edges = _prufer_edges(seq, n)
        root = rng.randint(1, n)
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        # Orient edges away from the root.
        stack = [root]
        seen = [False] * (n + 1)
        seen[root] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    heads[v] = u
                    stack.append(v)
    return DepTree.build(heads[1:], sentence_id=f"rand-{n}-{seed}")


def random_projective_tree(n: int, seed: int) -> DepTree:
    """Random projective tree on n nodes, deterministic per (n, seed).

    Built by recursive interval splitting: pick a head uniformly inside
    the interval, attach it to the parent, recurse on what is left on
    either side. Always projective, not uniform over projective trees.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    heads = [0] * (n + 1)

    def split(lo: int, hi: int, parent: int) -> None:
        if lo > hi:
            return
        h = rng.randint(lo, hi)
        heads[h] = parent
        split(lo, h - 1, h)
        split(h + 1, hi, h)

    split(1, n, 0)
    return DepTree.build(heads[1:], sentence_id=f"randproj-{n}-{seed}")
