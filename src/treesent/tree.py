"""Dependency tree domain model.

A sentence is a list of tokens, each pointing at a head token (0 for the
sentence root). ``DepTree`` stores the sentence as column tuples (forms,
lemmas, UPOS tags, heads, deprels); ``Token`` rows are a view built on
request. Trees are validated on construction, so every ``DepTree`` in the
system is single-rooted, acyclic and contiguously numbered. Validation
walks the tree from its root, and that walk is also the post-order and the
children lists the rule engine reads. The one exception is
``DepTree._trusted``, for code that has just proven those invariants itself.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence


class _Record:
    """Base of the package's record classes, which compare, hash and print
    as dataclasses do, by the attribute names their class lists in ``_fields``.

    Two records are equal when they are of the same class and their fields
    are equal. ``repr`` is ``Name(field=value, ...)``. A class declared with
    ``frozen=True`` refuses assignment to and deletion of its attributes and
    hashes by its fields; its ``__init__`` sets them through ``__dict__``.
    Any other record is unhashable.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__hash__ = _Record._hash
            cls.__setattr__ = _Record._refuse_assignment
            cls.__delattr__ = _Record._refuse_deletion

    @classmethod
    def _trusted(cls, **fields):
        """A record of ``fields``, each field by name, without the checks of
        ``__init__``: only for callers whose values pass them by construction."""
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse_assignment(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_deletion(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Tally(_Record):
    """A record of counts that a run fills in as it goes."""

    def add(self, other: "_Tally") -> None:
        """Fold in the counts of another run of the same kind, such as one chunk's."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Token(namedtuple("Token", "id form lemma upos head deprel")):
    """One syntactic word. ``head`` is 0 for the root, else a 1-based token id."""

    __slots__ = ()


class DataError(ValueError):
    """Input data that cannot be read or used; the command line exits 1 on it."""


class TreeError(DataError):
    """Raised when a token list does not form a valid dependency tree."""


# Cycled over token positions by the random generators.
FILLER_UPOS = ("NOUN", "VERB", "ADJ", "ADV")
FILLER_DEPRELS = ("nsubj", "obj", "amod", "advmod")


def _walk(heads: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Child ids per head (index 0 = the artificial root slot) and the
    left-to-right post-order of the tokens reachable from the root.

    ``heads`` must be in range. The order holds every token exactly when
    the heads form one tree: a token on a cycle, or pointing at itself, has
    its only parent on that cycle, so no walk from the root reaches it.
    """
    kids: list[list[int]] = [[] for _ in range(len(heads) + 1)]
    for dep, head in enumerate(heads, start=1):
        kids[head].append(dep)
    # reversed right-to-left pre-order = left-to-right post-order
    order: list[int] = []
    stack = list(kids[0])
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(kids[node])
    order.reverse()
    return tuple(map(tuple, kids)), tuple(order)


def _check_tokens(ids: Sequence[int], upos: Sequence[str], heads: Sequence[int]) -> None:
    """Raise on the first token that fails a check, then on the root count."""
    n = len(heads)
    for pos, tok_id, tag, head in zip(range(1, n + 1), ids, upos, heads):
        if tok_id != pos:
            raise TreeError(f"token ids not contiguous: expected {pos}, got {tok_id}")
        if not tag:
            raise TreeError(f"token {pos}: empty upos")
        if head < 0 or head > n:
            raise TreeError(f"token {pos}: head {head} out of range 0..{n}")
        if head == pos:
            raise TreeError(f"token {pos}: head equals id")
    roots = heads.count(0)
    if roots == 0:
        raise TreeError("no root token (head 0)")
    if roots > 1:
        raise TreeError(f"{roots} root tokens, expected exactly one")


def _cycle_token(heads: Sequence[int], reached: Sequence[int]) -> int:
    """The first token that repeats on the head chain of the smallest token
    the walk missed: the one chasing heads from token 1 upwards meets first."""
    reached = set(reached)
    j = next(dep for dep in range(1, len(heads) + 1) if dep not in reached)
    path = set()
    while j not in path:
        path.add(j)
        j = heads[j - 1]
    return j


class DepTree(_Record, frozen=True):
    """An immutable validated dependency tree.

    The columns (forms, lemmas, upos, heads, deprels) are tuples indexed by
    token id minus one. ``metadata`` holds comment key/value pairs (value
    ``None`` for bare comments). Treat it as read-only after construction.
    """

    _fields = ("forms", "lemmas", "upos", "heads", "deprels", "sentence_id", "metadata")

    def __init__(self, tokens: Sequence[Token], sentence_id: str = "",
                 metadata: dict | None = None) -> None:
        tokens = tuple(tokens)
        ids, *columns = zip(*tokens) if tokens else ((),) * len(Token._fields)
        self._fill(*columns, sentence_id, metadata)
        self._validate(ids)
        self.__dict__["tokens"] = tokens

    def _fill(self, forms, lemmas, upos, heads, deprels, sentence_id, metadata) -> None:
        self.__dict__.update(
            forms=forms, lemmas=lemmas, upos=upos, heads=heads, deprels=deprels,
            sentence_id=sentence_id, metadata={} if metadata is None else metadata,
        )

    def _validate(self, ids: tuple[int, ...]) -> None:
        """Check the tree and keep the children and post-order its walk found.

        Whole-column tests run first. Only a tree that fails one, or whose
        walk misses a token, is checked token by token, so that the error
        raised is always the one the first failing check names.
        """
        heads, upos = self.heads, self.upos
        n = len(heads)
        if n == 0:
            raise TreeError("empty sentence")
        if (ids != tuple(range(1, n + 1)) or not all(upos)
                or min(heads) < 0 or max(heads) > n or heads.count(0) != 1):
            _check_tokens(ids, upos, heads)
        children, order = _walk(heads)
        if len(order) != n:
            _check_tokens(ids, upos, heads)  # a self-head is named before a cycle
            raise TreeError(f"cycle through token {_cycle_token(heads, order)}")
        self.__dict__.update(children=children, post_order=order)

    @classmethod
    def _from_columns(cls, ids: tuple[int, ...], *columns, sentence_id: str = "",
                      metadata: dict | None = None) -> "DepTree":
        """A validated tree over ids and the five columns, in field order."""
        tree = cls._trusted(*columns, sentence_id, metadata)
        tree._validate(ids)
        return tree

    @classmethod
    def _trusted(cls, forms, lemmas, upos, heads, deprels, sentence_id: str = "",
                 metadata: dict | None = None) -> "DepTree":
        """A tree over column tuples without validating them.

        Only for callers that built the columns themselves and so already
        know what validation would check: equal lengths, non-empty UPOS
        tags, in-range heads, and one acyclic tree with a single root.
        """
        tree = object.__new__(cls)
        tree._fill(forms, lemmas, upos, heads, deprels, sentence_id, metadata)
        return tree

    def __reduce__(self):
        # the columns alone; a tree that was valid when pickled needs no check
        return self._trusted, (self.forms, self.lemmas, self.upos, self.heads,
                               self.deprels, self.sentence_id, self.metadata)

    def __len__(self) -> int:
        return len(self.heads)

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        """The sentence as ``Token`` rows, built on first use."""
        return tuple(map(Token, range(1, len(self) + 1), self.forms, self.lemmas,
                         self.upos, self.heads, self.deprels))

    @property
    def upos_tags(self) -> tuple[str, ...]:
        return self.upos

    @cached_property
    def root_id(self) -> int:
        return self.heads.index(0) + 1

    # validation fills in both of these; a tree from ``_trusted`` walks on first use
    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child ids per head, index 0 = the artificial root slot."""
        children, self.__dict__["post_order"] = _walk(self.heads)
        return children

    @cached_property
    def post_order(self) -> tuple[int, ...]:
        """Token ids with every dependent before its head, siblings left to right."""
        self.__dict__["children"], order = _walk(self.heads)
        return order

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
            lemmas = forms
        if deprels is None:
            deprels = ["root" if h == 0 else FILLER_DEPRELS[(i - 1) % len(FILLER_DEPRELS)]
                       for i, h in enumerate(heads, start=1)]
        columns = tuple(map(tuple, (forms, lemmas, upos, heads, deprels)))
        if any(len(column) != n for column in columns):
            raise ValueError(f"every column needs {n} entries, one per head")
        return cls._from_columns(tuple(range(1, n + 1)), *columns, sentence_id=sentence_id,
                                 metadata=metadata or {})


def _arcs_nest(heads: Sequence[int]) -> bool:
    """True if no two arcs cross, in one left-to-right pass.

    Arcs are opened at their left end, longest first, and closed at their
    right end. They nest exactly when every arc closes while it is the
    innermost one still open, that is, on top of the stack.
    """
    n = len(heads)
    right_ends: list[list[int]] = [[] for _ in range(n + 1)]
    closing = [0] * (n + 1)
    for dep, head in enumerate(heads, start=1):
        if head < dep:
            right_ends[head].append(dep)
            closing[dep] += 1
        else:
            right_ends[dep].append(head)
            closing[head] += 1
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
    if _arcs_nest(tree.heads):
        return None
    spans = []
    for dep, head in enumerate(tree.heads, start=1):
        lo, hi = (head, dep) if head < dep else (dep, head)
        spans.append((lo, hi, head, dep))
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
    import random

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
    import random

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
