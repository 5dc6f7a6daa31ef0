"""Tree encodings for sequence labeling, with a repairing decoder.

Three per-word label schemes, all invertible on well-formed input:

* ``REL_OFFSET``: payload is ``head - id``, 0 marks the root.
* ``REL_POS``: payload is ``(upos, k)``, the head is the k-th token with
  that UPOS strictly to the right (k > 0) or left (k < 0) of the word,
  counting outward. The root payload is ``(ROOT, 0)``.
* ``BRACKETS``: two independent balanced bracket planes. A dependent
  with its head to the right writes ``<`` and the head later closes it
  with one ``\\`` per such dependent (nearest open first). A head with
  dependents to the right writes one ``/`` each, closed by ``>`` at the
  dependent. Per-label symbol order is ``\\* <? >? /*``, which is also
  the processing order. Projective trees only; the root writes neither
  ``<`` nor ``>`` and its relation is fixed to ``root``.

Decoding never fails: implausible head proposals are normalized by
``repair``, which counts what it had to change.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from .conllu import _ON_ERROR, decode_line, iter_raw_lines
from .tree import DataError, DepTree, LineError, TreeError, _Record, _Tally, crossing_arcs

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Sequence, Union

    from .conllu import Line, Source

    Payload = Union[int, tuple[str, int], str]

ROOT_UPOS = "ROOT"


class _SchemeType(type):
    """The class of ``Scheme``, which behaves as an ``enum.Enum``'s does for
    what the package uses: iterating gives the members in order, and
    ``Scheme(value)`` looks one up (so pickles of the enum still load).
    ``enum`` itself would import ``functools`` and ``types`` at start-up."""

    def __iter__(cls):
        return iter(cls._members)

    def __call__(cls, value: str) -> "Scheme":
        for member in cls._members:
            if member.value == value:
                return member
        raise ValueError(f"{value!r} is not a valid {cls.__name__}")


class Scheme(metaclass=_SchemeType):
    """A label scheme: ``REL_OFFSET``, ``REL_POS`` or ``BRACKETS``, each the
    one instance with its ``name`` and ``value``, compared by identity."""

    __slots__ = ("name", "value")
    _members: tuple[Scheme, ...]
    REL_OFFSET: Scheme
    REL_POS: Scheme
    BRACKETS: Scheme

    def __repr__(self) -> str:
        return f"<Scheme.{self.name}: {self.value!r}>"

    def __str__(self) -> str:
        return f"Scheme.{self.name}"

    def __reduce__(self):
        # copies and unpickled members are the member itself
        return Scheme, (self.value,)

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        key = text.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown scheme {text!r}")


def _scheme(name: str, value: str) -> Scheme:
    member = object.__new__(Scheme)
    member.name, member.value = name, value
    setattr(Scheme, name, member)
    return member


# Code that runs per token or per sentence compares schemes against these
# names: reading ``Scheme.BRACKETS`` off the class takes about 12 ns with
# CPython 3.11 on a 2-CPU x86-64 machine (72 ns when it was an ``enum.Enum``),
# a module global about 2.5 ns.
Scheme._members = _REL_OFFSET, _REL_POS, _BRACKETS = (
    _scheme("REL_OFFSET", "rel-offset"), _scheme("REL_POS", "rel-pos"),
    _scheme("BRACKETS", "brackets"),
)


class NonProjectiveError(DataError):
    """Raised when BRACKETS encoding meets crossing arcs."""

    def __init__(self, pair):
        (h1, d1), (h2, d2) = pair
        super().__init__(
            f"crossing arcs: head {h1} -> dependent {d1} and head {h2} -> dependent {d2}"
        )
        self.arcs = pair


class SyntaxLabel(namedtuple("SyntaxLabel", "scheme payload deprel")):
    """One token's label: a ``Scheme``, its payload and the token's relation."""

    __slots__ = ()


# what the bracket symbols of one label may hold between their leading '\'
# and their trailing '/'
_BRACKET_MIDDLES = frozenset(("", "<", ">", "<>"))


def _bracket_symbols_ok(symbols: str) -> bool:
    """True if ``symbols`` is ``\\*<?>?/*``: the bracket symbols of one
    label, in their order, and nothing else."""
    return symbols.lstrip("\\").rstrip("/") in _BRACKET_MIDDLES


def _payload_ok(scheme: Scheme, payload: Payload) -> bool:
    if scheme is Scheme.REL_OFFSET:
        return isinstance(payload, int)
    if scheme is Scheme.REL_POS:
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[0], str)
            and payload[0] != ""
            and isinstance(payload[1], int)
        )
    return isinstance(payload, str) and _bracket_symbols_ok(payload)


class LabelSeq(_Record, frozen=True):
    """Labels for one sentence, one per token, all in the same scheme.

    ``_trusted`` is for callers that built every label themselves: at least
    one, all in ``scheme``, each payload of the shape ``_payload_ok`` wants."""

    _fields = ("labels", "scheme", "sentence_polarity")

    def __init__(
        self,
        labels: Sequence[SyntaxLabel],
        scheme: Scheme,
        sentence_polarity: str | None = None,
    ) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("empty label sequence")
        for lab in labels:
            if lab.scheme is not scheme:
                raise ValueError("mixed schemes in one label sequence")
            if not _payload_ok(scheme, lab.payload):
                raise ValueError(f"malformed payload {lab.payload!r} for {scheme}")
        self.__dict__.update(labels=labels, scheme=scheme, sentence_polarity=sentence_polarity)

    def __len__(self) -> int:
        return len(self.labels)


class RepairStats(_Record, frozen=True):
    """How many head proposals each repair rule had to touch."""

    _fields = ("out_of_range", "extra_roots", "missing_root", "cycles_broken")

    def __init__(self, out_of_range: int = 0, extra_roots: int = 0, missing_root: int = 0,
                 cycles_broken: int = 0) -> None:
        self.__dict__.update(out_of_range=out_of_range, extra_roots=extra_roots,
                             missing_root=missing_root, cycles_broken=cycles_broken)

    @property
    def total(self) -> int:
        return self.out_of_range + self.extra_roots + self.missing_root + self.cycles_broken

    def __add__(self, other: "RepairStats") -> "RepairStats":
        return RepairStats(
            self.out_of_range + other.out_of_range,
            self.extra_roots + other.extra_roots,
            self.missing_root + other.missing_root,
            self.cycles_broken + other.cycles_broken,
        )


class DecodeResult(namedtuple("DecodeResult", "tree repairs")):
    """A decoded ``DepTree`` and the ``RepairStats`` of its decoding."""

    __slots__ = ()


def _positions(upos: Sequence[str]) -> dict[str, list[int]]:
    """The 1-based positions of each UPOS tag, in ascending order."""
    where: dict[str, list[int]] = {}
    for j, tag in enumerate(upos, start=1):
        where.setdefault(tag, []).append(j)
    return where


def encode(tree: DepTree, scheme: Scheme) -> LabelSeq:
    """Labels for a validated tree. BRACKETS requires projectivity."""
    heads = tree.heads
    deprels: Sequence[str] = tree.deprels
    payloads: list[Payload]
    if scheme is _REL_OFFSET:
        payloads = [0 if head == 0 else head - dep for dep, head in enumerate(heads, start=1)]
    elif scheme is _REL_POS:
        upos = tree.upos
        where = _positions(upos)
        payloads = []
        for dep, head in enumerate(heads, start=1):
            if head == 0:
                payloads.append((ROOT_UPOS, 0))
                continue
            tag = upos[head - 1]
            spots = where[tag]
            # k counts the tag's tokens from the word outward to the head,
            # the head included: two bisects, whatever the arc's length
            if head > dep:
                k = bisect_right(spots, head) - bisect_right(spots, dep)
            else:
                k = bisect_left(spots, head) - bisect_left(spots, dep)
            payloads.append((tag, k))
    elif scheme is _BRACKETS:
        pair = crossing_arcs(tree)
        if pair is not None:
            raise NonProjectiveError(pair)
        n = len(heads)
        left_closes = [0] * (n + 1)  # '\' count per head
        right_opens = [0] * (n + 1)  # '/' count per head
        for dep, head in enumerate(heads, start=1):
            if head > dep:
                left_closes[head] += 1
            elif head != 0:
                right_opens[head] += 1
        payloads = [
            "\\" * closes + ("<" if head > dep else ">" if head else "") + "/" * opens
            for dep, head, closes, opens in zip(
                range(1, n + 1), heads, left_closes[1:], right_opens[1:]
            )
        ]
        deprels = ["root" if head == 0 else deprel for head, deprel in zip(heads, deprels)]
    else:  # pragma: no cover
        raise ValueError(f"unhandled scheme {scheme}")
    # tuple.__new__ makes the same label SyntaxLabel(...) makes, in a C-level
    # loop without a call to the named tuple's Python __new__ per label
    labels = map(tuple.__new__, repeat(SyntaxLabel), zip(repeat(scheme), payloads, deprels))
    return LabelSeq._trusted(labels=tuple(labels), scheme=scheme, sentence_polarity=None)


def repair(proposals: Sequence[int | None], n: int) -> tuple[list[int], RepairStats]:
    """Normalize raw head proposals into a valid head vector.

    Rules, applied in order and counted separately: out-of-range,
    self-pointing or missing proposals become a provisional root; with
    several roots the leftmost stays and the rest attach to it; with no
    root token 1 becomes the root; each remaining cycle is broken by
    reattaching its smallest-id member to the root.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(proposals) != n:
        raise ValueError(f"expected {n} proposals, got {len(proposals)}")
    out_of_range = 0
    heads: list[int] = [0] * (n + 1)
    for i, p in enumerate(proposals, start=1):
        if p is None or p < 0 or p > n or p == i:
            heads[i] = 0
            out_of_range += 1
        else:
            heads[i] = p
    roots = [i for i in range(1, n + 1) if heads[i] == 0]
    extra_roots = 0
    missing_root = 0
    if not roots:
        heads[1] = 0
        root = 1
        missing_root = 1
    else:
        root = roots[0]
        for other in roots[1:]:
            heads[other] = root
            extra_roots += 1
    cycles_broken = 0
    state = [0] * (n + 1)
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        j = start
        while j != 0 and state[j] == 0:
            state[j] = 1
            path.append(j)
            j = heads[j]
        if j != 0 and state[j] == 1:
            cycle = path[path.index(j):]
            heads[min(cycle)] = root
            cycles_broken += 1
        for v in path:
            state[v] = 2
    stats = RepairStats(out_of_range, extra_roots, missing_root, cycles_broken)
    return heads[1:], stats


def _propose_heads(seq: LabelSeq, upos: Sequence[str]) -> list[int | None]:
    n = len(seq.labels)
    scheme = seq.scheme
    if scheme is Scheme.REL_OFFSET:
        return [0 if lab.payload == 0 else i + lab.payload
                for i, lab in enumerate(seq.labels, start=1)]
    if scheme is Scheme.REL_POS:
        # the k-th match outward from i is a fixed offset from where i
        # would be inserted among the positions of its tag
        where = _positions(upos)
        proposals: list[int | None] = []
        for i, lab in enumerate(seq.labels, start=1):
            tag, k = lab.payload
            if tag == ROOT_UPOS and k == 0:
                proposals.append(0)
                continue
            found: int | None = None
            spots = where.get(tag)
            if spots and k:
                at = bisect_right(spots, i) + k - 1 if k > 0 else bisect_left(spots, i) + k
                if 0 <= at < len(spots):
                    found = spots[at]
            proposals.append(found)
        return proposals
    # BRACKETS: scan both planes left to right, stacks give nearest-open
    # matching. Tokens never assigned a head become root proposals.
    proposals = [None] * n
    left_stack: list[int] = []
    right_stack: list[int] = []
    for i, lab in enumerate(seq.labels, start=1):
        sym: str = lab.payload
        pos = 0
        while pos < len(sym) and sym[pos] == "\\":
            if left_stack:
                proposals[left_stack.pop() - 1] = i
            pos += 1
        if pos < len(sym) and sym[pos] == "<":
            left_stack.append(i)
            pos += 1
        if pos < len(sym) and sym[pos] == ">":
            if right_stack:
                proposals[i - 1] = right_stack.pop()
            pos += 1
        while pos < len(sym) and sym[pos] == "/":
            right_stack.append(i)
            pos += 1
    return [0 if p is None else p for p in proposals]


def decode(
    seq: LabelSeq,
    words: Sequence[tuple[str, str]] | None = None,
    sentence_id: str = "",
) -> DecodeResult:
    """Rebuild a tree from labels, repairing whatever does not fit.

    ``words`` supplies (form, upos) per token; REL_POS decoding is only
    meaningful when real UPOS tags are given. Lemmas are set to the
    forms, which is all the label stream carries.
    """
    n = len(seq.labels)
    if words is None:
        words = [(f"w{i}", "X") for i in range(1, n + 1)]
    if len(words) != n:
        raise ValueError(f"expected {n} words, got {len(words)}")
    forms = tuple([w[0] for w in words])
    upos = tuple([w[1] for w in words])
    if not all(upos):
        first = next(i for i, tag in enumerate(upos, start=1) if not tag)
        raise TreeError(f"token {first}: empty upos")
    proposals = _propose_heads(seq, upos)
    heads, stats = repair(proposals, n)
    deprels = tuple([lab.deprel for lab in seq.labels])
    # repair() returns in-range, single-rooted, acyclic heads, one per
    # label, so the tree is valid without checking it again
    tree = DepTree._trusted(forms, forms, upos, tuple(heads), deprels, sentence_id)
    return DecodeResult(tree, stats)


def emit_multitask_labels(tree: DepTree, scheme: Scheme, polarity_class: str) -> LabelSeq:
    """Syntax labels plus a sentence polarity tag carried on the sequence."""
    if not polarity_class or any(c.isspace() for c in polarity_class) or "@" in polarity_class:
        raise ValueError(f"bad polarity class {polarity_class!r}")
    return LabelSeq._trusted(labels=encode(tree, scheme).labels, scheme=scheme,
                             sentence_polarity=polarity_class)


# ---------------------------------------------------------------------------
# Tagger bridge: one sentence per line,
#   sent_id TAB form/upos/label SPACE form/upos/label ...
# with an optional @class suffix on the last label.


def _has_space(text: str) -> bool:
    """True if ``text`` holds a character that ``str.isspace`` accepts,
    the characters ``str.split`` splits at."""
    return bool(text) and text.split(None, 1) != [text]


class BridgeError(LineError, DataError):
    """A bridge line that cannot be parsed, with its line number."""


class BridgeStats(_Tally):
    """Tallies filled in by ``parse_tagger_output`` as it goes."""

    _fields = ("records", "skipped", "repairs")

    def __init__(self, records: int = 0, skipped: int = 0,
                 repairs: RepairStats = RepairStats()) -> None:
        self.records = records
        self.skipped = skipped
        self.repairs = repairs


def _fields(
    scheme: Scheme, forms: Sequence[str], upos: Sequence[str], labels: Sequence[SyntaxLabel]
) -> list[str]:
    """``form/upos/label`` per token, one comprehension per scheme.

    This is the one spelling of label texts: ``<k>:<deprel>`` for
    REL_OFFSET, ``<tag>,<k>:<deprel>`` for REL_POS and
    ``<symbols>:<deprel>`` for BRACKETS, with k signed unless it is 0.
    """
    if scheme is _REL_OFFSET:
        return [f"{f}/{u}/{k:+d}:{r}" if k else f"{f}/{u}/0:{r}"
                for f, u, (_, k, r) in zip(forms, upos, labels)]
    if scheme is _REL_POS:
        return [f"{f}/{u}/{t},{k:+d}:{r}" if k else f"{f}/{u}/{t},0:{r}"
                for f, u, (_, (t, k), r) in zip(forms, upos, labels)]
    return [f"{f}/{u}/{s}:{r}" for f, u, (_, s, r) in zip(forms, upos, labels)]


def format_label(label: SyntaxLabel) -> str:
    """The text of one label, as a bridge line spells it."""
    # the field of an empty form and upos is "//" and then the label text
    return _fields(label.scheme, ("",), ("",), (label,))[0][2:]


# Non-greedy form: the earliest form/upos split that lets the whole field
# parse wins, which keeps bracket symbols out of the upos slot while still
# allowing slashes inside forms. The symbol order is checked afterwards
# (``_bracket_symbols_ok``), since checking it here would change which split wins.
_BRACKET_FIELD = r"^(?P<form>.+?)/(?P<upos>[^/]+)/(?P<label>[\\<>/]*:[^/]*)$"


def _match_bracket_field(field: str):
    """``_BRACKET_FIELD`` matched at the start of ``field``. The first call
    imports ``re`` and puts the compiled pattern's ``match`` in its place, so
    that only a brackets reader loads ``re``, once it reads a field."""
    global _match_bracket_field
    import re

    _match_bracket_field = re.compile(_BRACKET_FIELD).match
    return _match_bracket_field(field)


def _parse_field(
    field: str, scheme: Scheme, known: dict[str, SyntaxLabel] | None = None
) -> tuple[str, str, SyntaxLabel]:
    """Form, UPOS and label of one token field; ValueError if it does not parse.

    ``known`` maps label texts parsed before to their labels: a label text
    found there is not parsed again, and a new one is added once it parsed.
    """
    if scheme is _BRACKETS:
        m = _match_bracket_field(field)
        if m is None:
            raise ValueError(f"bad token field {field!r}")
        form, upos, raw = m.groups()
    else:
        parts = field.rsplit("/", 2)
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise ValueError(f"bad token field {field!r}")
        form, upos, raw = parts
    if known is not None:
        label = known.get(raw)
        if label is not None:
            return form, upos, label
    if scheme is _BRACKETS:
        symbols, _, deprel = raw.partition(":")  # the symbols hold no ':'
        label = SyntaxLabel(scheme, symbols, deprel)
    else:
        # REL_OFFSET labels are "<k>:<deprel>", REL_POS labels "<tag>,<k>:<deprel>"
        # with a tag free of ',' and ':'; k is an optional sign and decimal digits
        if scheme is _REL_OFFSET:
            tag = None
            number, colon, deprel = raw.partition(":")
        else:
            tag, comma, rest = raw.partition(",")
            if not comma or not tag or ":" in tag:
                raise ValueError(f"bad label {raw!r}")
            number, colon, deprel = rest.partition(":")
        if not colon or not (
            number.isdecimal() or (number[1:].isdecimal() and number[0] in "+-")
        ):
            raise ValueError(f"bad label {raw!r}")
        if "\n" in deprel:
            # a deprel may end in one newline, which is dropped, and hold no other
            if "\n" in deprel[:-1]:
                raise ValueError(f"bad label {raw!r}")
            deprel = deprel[:-1]
        k = int(number)
        label = SyntaxLabel(scheme, k if tag is None else (tag, k), deprel)
    if known is not None:
        known[raw] = label
    return form, upos, label


def _split_polarity(
    last: str, scheme: Scheme, known: dict[str, SyntaxLabel] | None = None
) -> tuple[str, str | None]:
    """The last token field of a bridge line and its polarity class: the text
    after its last ``@``, if that is not empty and the text before parses."""
    field, at, polarity = last.rpartition("@")
    if at and polarity:
        try:
            _parse_field(field, scheme, known)
            return field, polarity
        except ValueError:
            pass  # the @ belongs to the field
    return last, None


class UnreadableFieldError(ValueError):
    """A bridge line field that ``parse_tagger_output`` would misread."""


_DEPREL_OF = itemgetter(2)
# UPOS characters that can make a field read back wrong: '/' splits it, ',' or
# ':' a REL_POS label naming the tag, and bracket symbols let a '/' in the form
# be the earliest form/upos split that parses (see _BRACKET_FIELD)
_RISKY_UPOS = {_REL_OFFSET: "/", _REL_POS: "/,:", _BRACKETS: "/\\<>"}


def format_tagger_line(tree: DepTree, seq: LabelSeq) -> str:
    """One bridge line for a sentence and its labels.

    ValueError if the line would not read back: whitespace inside the
    sentence id, a form, a UPOS tag, a label or the polarity class would
    split it, and ``UnreadableFieldError`` names the first token field
    that ``parse_tagger_output`` would read back as something else.
    """
    if len(seq.labels) != len(tree):
        raise ValueError("label count does not match sentence length")
    sent_id = tree.sentence_id or "s"
    fields = _fields(seq.scheme, tree.forms, tree.upos, seq.labels)
    if seq.sentence_polarity:
        fields[-1] += f"@{seq.sentence_polarity}"
    if _has_space(sent_id) or _has_space("".join(fields)):
        raise _whitespace_error(sent_id, tree, seq)
    # every line that could read back wrong, found without a Python loop per
    # token, given that a REL_POS label's tag is a UPOS tag of the sentence
    if (
        "@" in (seq.sentence_polarity or fields[-1])
        or "" in tree.forms
        or any(map("".join(tree.upos).__contains__, _RISKY_UPOS[seq.scheme]))
        or "/" in "".join(map(_DEPREL_OF, seq.labels))
    ):
        _check_read_back(tree, seq, fields)
    return sent_id + "\t" + " ".join(fields)


def _whitespace_error(sent_id: str, tree: DepTree, seq: LabelSeq) -> ValueError:
    """The error naming the first part of a bridge line that holds whitespace."""
    named = [("sentence id", sent_id)]
    for i, (form, upos, label) in enumerate(zip(tree.forms, tree.upos, seq.labels), start=1):
        named += [(f"token {i}: form", form), (f"token {i}: upos", upos),
                  (f"token {i}: label", format_label(label))]
    named.append(("sentence polarity", seq.sentence_polarity or ""))
    what, text = next((what, text) for what, text in named if _has_space(text))
    return ValueError(f"{what} {text!r} contains whitespace")


def _check_read_back(tree: DepTree, seq: LabelSeq, fields: list[str]) -> None:
    """Read ``fields`` back as ``parse_tagger_output`` does, and raise
    ``UnreadableFieldError`` on the first that reads back as something else."""
    # a polarity class split off at the wrong '@' moves the end of the last field
    last = _split_polarity(fields[-1], seq.scheme)[0]
    written = zip(tree.forms, tree.upos, seq.labels)
    for i, (field, word) in enumerate(zip([*fields[:-1], last], written), start=1):
        try:
            misread = _parse_field(field, seq.scheme) != word
        except ValueError:
            misread = True
        if misread:
            raise UnreadableFieldError(f"token {i}: field {fields[i - 1]!r} would not read back")


# A tagger picks each label from the closed set it was trained on, so its
# output repeats label texts however varied its words are: each distinct
# label text is parsed once per parse_tagger_output call; the decode
# command reads its input a chunk at a time and keeps one memo per chunk. A
# stream that brings this many distinct labels is not repeating them, and
# the rest of it is parsed without the memo.
_LABEL_MEMO_LIMIT = 4096


def parse_tagger_output(
    source: Source,
    scheme: Scheme,
    on_error: str = "skip",
    stats: BridgeStats | None = None,
) -> Iterator[tuple[LabelSeq, DecodeResult]]:
    """Parse bridge lines and decode each one, repairs included.

    Yields ``(labels, decode_result)`` per record. Unparseable records
    are skipped (tallied in ``stats.skipped``) or abort, depending on
    ``on_error``; any other value raises ``ValueError`` here, not when the
    first record is drawn. Blank lines are ignored. A label text that
    repeats an earlier one in the same call is looked up, not parsed again;
    the decode command runs this loop once per chunk of its input, so there
    the memo is kept per chunk.
    """
    if on_error not in _ON_ERROR:
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    return _parse_tagger_lines(enumerate(iter_raw_lines(source), start=1), scheme,
                               on_error == "abort", BridgeStats() if stats is None else stats)


def _parse_tagger_lines(
    numbered: Iterable[tuple[int, Line]], scheme: Scheme, abort: bool, stats: BridgeStats
) -> Iterator[tuple[LabelSeq, DecodeResult]]:
    """``parse_tagger_output`` over ``(lineno, raw line)`` pairs, which may
    be any run of an input's lines with the numbers they have in it."""
    known: dict[str, SyntaxLabel] | None = {}
    for lineno, raw in numbered:
        text = decode_line(raw)
        try:
            if text is None:
                raise BridgeError("not valid UTF-8", lineno)
            line = text.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if known is not None and len(known) >= _LABEL_MEMO_LIMIT:
                known = None
            yield _parse_bridge_line(line, lineno, scheme, stats, known)
        except BridgeError:
            if abort:
                raise
            stats.skipped += 1


def _parse_bridge_line(
    line: str,
    lineno: int,
    scheme: Scheme,
    stats: BridgeStats,
    known: dict[str, SyntaxLabel] | None,
) -> tuple[LabelSeq, DecodeResult]:
    sent_id, tab, rest = line.partition("\t")
    if not tab or not rest.strip():
        raise BridgeError("expected 'sent_id<TAB>token fields'", lineno)
    fields = rest.split(" ")
    fields[-1], polarity = _split_polarity(fields[-1], scheme, known)
    words: list[tuple[str, str]] = []
    labels: list[SyntaxLabel] = []
    for field_text in fields:
        try:
            form, upos, label = _parse_field(field_text, scheme, known)
        except ValueError as exc:
            raise BridgeError(str(exc), lineno) from None
        words.append((form, upos))
        labels.append(label)
    # _parse_field gives every label this scheme and a payload of its type;
    # only the bracket symbol order is left to check
    if scheme is _BRACKETS:
        for label in labels:
            if not _bracket_symbols_ok(label.payload):
                raise BridgeError(f"malformed payload {label.payload!r} for {scheme}", lineno)
    if "\t" in rest:
        # last, so that every other fault keeps its message; a tab in a form
        # or relation would split its CoNLL-U column in two
        raise BridgeError("tab inside the token fields", lineno)
    seq = LabelSeq._trusted(labels=tuple(labels), scheme=scheme, sentence_polarity=polarity)
    result = decode(seq, words, sentence_id=sent_id)
    stats.records += 1
    stats.repairs = stats.repairs + result.repairs
    return seq, result
