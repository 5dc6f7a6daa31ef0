"""Fine-grained opinion structures as dependency-style trees.

An opinion is an expression span with optional target and holder spans and
a polarity. A whole sentence's opinions become one tree: the first token of
each span heads that span, expression heads carry the polarity, targets and
holders hang off their expression head, and everything else attaches to the
root as inert filler. The construction is purely positional, deterministic,
and invertible, so the label encodings built for syntax apply to sentiment
structure unchanged.

Overlapping spans cannot be represented as a tree and are rejected rather
than silently mangled; corpus-level conversion coverage is the evaluation
module's job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .encodings import DecodeResult, LabelSeq, Scheme, decode, encode
from .rules import CLASSES
from .tree import FILLER_UPOS, DataError, DepTree

SPAN_DEPREL = "span"
TARGET_DEPREL = "targ"
HOLDER_DEPREL = "hold"
NONE_DEPREL = "none"
EXPRESSION_PREFIX = "exp:"


class OpinionError(DataError):
    """An opinion structure that cannot be built or read back."""


def _check_span(span, name: str) -> Optional[Tuple[int, int]]:
    if span is None:
        return None
    first, last = span
    first, last = int(first), int(last)
    if first < 1 or last < first:
        raise OpinionError(f"bad {name} span ({first}, {last})")
    return (first, last)


@dataclass(frozen=True)
class Opinion:
    """One opinion: who said what about which tokens, and the polarity."""

    expression_span: Tuple[int, int]
    polarity: str
    target_span: Optional[Tuple[int, int]] = None
    holder_span: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "expression_span", _check_span(self.expression_span, "expression")
        )
        object.__setattr__(self, "target_span", _check_span(self.target_span, "target"))
        object.__setattr__(self, "holder_span", _check_span(self.holder_span, "holder"))
        if self.expression_span is None:
            raise OpinionError("expression span is required")
        if self.polarity not in CLASSES:
            raise OpinionError(f"bad polarity {self.polarity!r}")

    def spans(self):
        """(role, span) pairs for the spans this opinion actually has."""
        yield "exp", self.expression_span
        if self.target_span is not None:
            yield TARGET_DEPREL, self.target_span
        if self.holder_span is not None:
            yield HOLDER_DEPREL, self.holder_span


@dataclass(frozen=True)
class OpinionSet:
    """A sentence (forms + upos) with its opinions, sorted by expression
    position. Overlap between spans is allowed here so gold data loads;
    ``to_tree`` is where tree-convertibility is enforced."""

    forms: Tuple[str, ...]
    upos: Tuple[str, ...]
    opinions: Tuple[Opinion, ...] = ()
    sentence_id: str = ""

    def __post_init__(self) -> None:
        forms = tuple(self.forms)
        upos = tuple(self.upos)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "upos", upos)
        if not forms:
            raise OpinionError("sentence must have at least one token")
        if len(upos) != len(forms):
            raise OpinionError(f"{len(forms)} forms but {len(upos)} upos tags")
        ordered = tuple(
            sorted(self.opinions, key=lambda op: op.expression_span[0])
        )
        object.__setattr__(self, "opinions", ordered)
        n = len(forms)
        for opinion in ordered:
            for _role, (first, last) in opinion.spans():
                if last > n:
                    raise OpinionError(
                        f"span ({first}, {last}) outside sentence of {n} tokens"
                    )

    def __len__(self) -> int:
        return len(self.forms)


def to_tree(opinion_set: OpinionSet) -> DepTree:
    """Deterministic tree for an OpinionSet; rejects overlapping spans."""
    n = len(opinion_set)
    claimed: dict = {}
    for index, opinion in enumerate(opinion_set.opinions):
        for role, (first, last) in opinion.spans():
            for tok in range(first, last + 1):
                if tok in claimed:
                    other_index, other_role = claimed[tok]
                    raise OpinionError(
                        f"overlapping spans: token {tok} claimed by opinion "
                        f"{other_index} ({other_role}) and opinion {index} ({role})"
                    )
                claimed[tok] = (index, role)

    heads = [0] * (n + 1)
    deprels = [NONE_DEPREL] * (n + 1)
    if not opinion_set.opinions:
        root = 1
    else:
        root = opinion_set.opinions[0].expression_span[0]
    for tok in range(1, n + 1):
        heads[tok] = 0 if tok == root else root
    for opinion in opinion_set.opinions:
        expression_head = opinion.expression_span[0]
        deprels[expression_head] = EXPRESSION_PREFIX + opinion.polarity
        heads[expression_head] = 0 if expression_head == root else root
        for role, (first, last) in opinion.spans():
            span_head = first
            if role == TARGET_DEPREL or role == HOLDER_DEPREL:
                heads[span_head] = expression_head
                deprels[span_head] = role
            for tok in range(first + 1, last + 1):
                heads[tok] = span_head
                deprels[tok] = SPAN_DEPREL
    return DepTree.build(
        heads[1:],
        deprels=deprels[1:],
        forms=list(opinion_set.forms),
        upos=list(opinion_set.upos),
        sentence_id=opinion_set.sentence_id,
    )


def from_tree(tree: DepTree) -> OpinionSet:
    """Read an opinion tree back; inverse of ``to_tree`` on its image."""
    # (token id, head, deprel) per token, ids from 1
    arcs = tuple(zip(range(1, len(tree) + 1), tree.heads, tree.deprels))
    role_of = {}
    for tid, _, deprel in arcs:
        if deprel.startswith(EXPRESSION_PREFIX):
            polarity = deprel[len(EXPRESSION_PREFIX):]
            if polarity not in CLASSES:
                raise OpinionError(f"unknown polarity in deprel {deprel!r}")
            role_of[tid] = "exp"
        elif deprel in (TARGET_DEPREL, HOLDER_DEPREL, SPAN_DEPREL, NONE_DEPREL):
            role_of[tid] = deprel
        else:
            raise OpinionError(f"unknown deprel {deprel!r} at token {tid}")

    span_members: dict = {}
    for tid, head, _ in arcs:
        if role_of[tid] == SPAN_DEPREL:
            head_role = role_of.get(head)
            if head_role not in ("exp", TARGET_DEPREL, HOLDER_DEPREL):
                raise OpinionError(f"span token {tid} attached to non-head token {head}")
            span_members.setdefault(head, []).append(tid)

    def span_of(head_id: int) -> Tuple[int, int]:
        ids = sorted(span_members.get(head_id, []) + [head_id])
        if ids != list(range(ids[0], ids[-1] + 1)):
            raise OpinionError(f"non-contiguous span {ids} headed at token {head_id}")
        return (ids[0], ids[-1])

    attached: dict = {}
    for tid, head, _ in arcs:
        role = role_of[tid]
        if role not in (TARGET_DEPREL, HOLDER_DEPREL):
            continue
        if role_of.get(head) != "exp":
            raise OpinionError(
                f"{role!r} token {tid} must attach to an expression head, not token {head}"
            )
        slot = attached.setdefault(head, {})
        if role in slot:
            raise OpinionError(f"multiple {role!r} spans for the opinion at token {head}")
        slot[role] = span_of(tid)

    opinions = []
    for tid, _, deprel in arcs:
        if role_of[tid] != "exp":
            continue
        slot = attached.get(tid, {})
        opinions.append(
            Opinion(
                span_of(tid),
                deprel[len(EXPRESSION_PREFIX):],
                target_span=slot.get(TARGET_DEPREL),
                holder_span=slot.get(HOLDER_DEPREL),
            )
        )
    return OpinionSet(tree.forms, tree.upos, tuple(opinions), sentence_id=tree.sentence_id)


def encode_sentiment_tree(
    opinion_set: OpinionSet, scheme: Scheme = Scheme.REL_OFFSET
) -> LabelSeq:
    """Per-token labels for an opinion structure via its tree form."""
    return encode(to_tree(opinion_set), scheme)


def decode_sentiment_tree(
    seq: LabelSeq,
    words: Optional[Sequence[Tuple[str, str]]] = None,
    sentence_id: str = "",
) -> Tuple[OpinionSet, "DecodeResult"]:
    """Labels back to an OpinionSet.

    Returns the set together with the raw decode result so callers can see
    whether repairs fired; a repaired tree may no longer be a well-formed
    opinion tree, in which case ``from_tree`` raises.
    """
    result = decode(seq, words, sentence_id=sentence_id)
    return from_tree(result.tree), result


def random_opinion_set(n: int, seed: int) -> OpinionSet:
    """Deterministic random OpinionSet: n tokens, up to 4 opinions with
    pairwise-disjoint contiguous spans."""
    if n < 1:
        raise OpinionError(f"need at least 1 token, got {n}")
    rng = random.Random(seed)
    spans: List[Tuple[int, int]] = []
    tok = 1
    while tok <= n:
        if rng.random() < 0.55:
            length = rng.randint(1, min(3, n - tok + 1))
            spans.append((tok, tok + length - 1))
            tok += length
        else:
            tok += 1
    rng.shuffle(spans)
    opinions = []
    for _ in range(rng.randint(0, 4)):
        if not spans:
            break
        expression = spans.pop()
        target = spans.pop() if spans and rng.random() < 0.6 else None
        holder = spans.pop() if spans and rng.random() < 0.3 else None
        opinions.append(
            Opinion(expression, rng.choice(CLASSES), target_span=target, holder_span=holder)
        )
    return OpinionSet(
        tuple(f"w{i}" for i in range(1, n + 1)),
        tuple(FILLER_UPOS[(i - 1) % len(FILLER_UPOS)] for i in range(1, n + 1)),
        tuple(opinions),
        sentence_id=f"randop-{n}-{seed}",
    )
