"""Polarity lexicons and shifter inventories.

Lexicon files are UTF-8 TSV: ``term<TAB>upos-or-empty<TAB>spec`` where the
spec field is a signed decimal valence, ``NEG`` (negator), ``INT:<s>``
(intensifier of strength ``s``), or ``ADV`` (adversative marker). ``#``
starts a comment line. A collocation table maps an adjacent lowercase token
pair to a single merged lemma (``token1 token2<TAB>merged_lemma``) so that
multiword shifters like "at all" can be looked up as one term.

Lexicons are immutable once loaded; ``overlay`` stacks a domain-specific
layer on top of a base lexicon without touching either input.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .conllu import numbered_lines
from .tree import _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

    from .conllu import Source

VALENCE_LIMIT = 5.0
# an intensifier scales a value by (1 + strength): at most by VALENCE_LIMIT
STRENGTH_LIMIT = VALENCE_LIMIT - 1

NEGATOR = "negator"
INTENSIFIER = "intensifier"
ADVERSATIVE = "adversative"


class LexiconError(ValueError):
    """Malformed lexicon or collocation data, or an inconsistent merge."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.message, self.line)


class LexEntry(namedtuple("LexEntry", "term upos_filter valence")):
    """One effective lexicon entry: a term, its UPOS filter or None, its valence."""

    __slots__ = ()


class Shifter(namedtuple("Shifter", "kind strength", defaults=(None,))):
    """Classification result for a shifter lemma."""

    __slots__ = ()


class ShifterInventory(_Record, frozen=True):
    """Negator, intensifier, and adversative lemma sets.

    The three classes are pairwise disjoint. An intensifier of strength s
    scales a value by (1 + s), so s must lie in (-1, STRENGTH_LIMIT].
    """

    _fields = ("negators", "intensifiers", "adversatives")

    def __init__(
        self,
        negators: Iterable[str] = frozenset(),
        intensifiers: Mapping[str, float] | None = None,
        adversatives: Iterable[str] = frozenset(),
    ) -> None:
        negators, adversatives = frozenset(negators), frozenset(adversatives)
        intensifiers = {} if intensifiers is None else dict(intensifiers)
        for one, other in (
            (negators, adversatives),
            (negators, intensifiers.keys()),
            (adversatives, intensifiers.keys()),
        ):
            clash = one & other
            if clash:
                raise LexiconError(f"shifter classes overlap on {sorted(clash)}")
        # classify_shifter() lowercases its query, so no other lemma could be
        # found; "" is what a collocation leaves of its second lemma
        for lemma in chain(negators, intensifiers, adversatives):
            if not lemma:
                raise LexiconError("empty shifter lemma")
            if lemma != lemma.lower():
                raise LexiconError(f"shifter lemma {lemma!r} is not lowercase")
        for lemma, strength in intensifiers.items():
            # written so that NaN, which fails every comparison, is rejected
            if not -1 < strength <= STRENGTH_LIMIT:
                raise LexiconError(f"intensifier strength for {lemma!r} must be > -1 "
                                   f"and <= {STRENGTH_LIMIT:g}, got {strength}")
        # lemma -> Shifter over all three classes, built once here
        by_lemma = dict.fromkeys(negators, Shifter(NEGATOR))
        by_lemma.update(dict.fromkeys(adversatives, Shifter(ADVERSATIVE)))
        for lemma, strength in intensifiers.items():
            by_lemma[lemma] = Shifter(INTENSIFIER, strength)
        self.__dict__.update(negators=negators, intensifiers=intensifiers,
                             adversatives=adversatives, _by_lemma=by_lemma)


def _merge_shifters(base: ShifterInventory, domain: ShifterInventory) -> ShifterInventory:
    # Any lemma the domain classifies loses its base classification first,
    # so a cross-class reassignment cannot trip the disjointness check.
    claimed = domain.negators | domain.adversatives | set(domain.intensifiers)
    intensifiers = {k: v for k, v in base.intensifiers.items() if k not in claimed}
    intensifiers.update(domain.intensifiers)
    return ShifterInventory(
        (base.negators - claimed) | domain.negators,
        intensifiers,
        (base.adversatives - claimed) | domain.adversatives,
    )


class PolarityLexicon(_Record, frozen=True):
    """Layered (term, upos) -> valence store plus a shifter inventory.

    ``layers`` runs bottom to top. The topmost layer that knows a term wins,
    and within a layer a UPOS-constrained entry beats the unconstrained one.
    Construction compiles the layers into one flat table, so a lookup costs
    the same however many layers are stacked.
    """

    _fields = ("layers", "shifters", "language", "collocations")

    def __init__(
        self,
        layers: Iterable[Mapping[tuple, float]] = (),
        shifters: ShifterInventory | None = None,
        language: str = "und",
        collocations: Mapping[tuple, str] | None = None,
    ) -> None:
        if not language:
            raise LexiconError("language tag must be non-empty")
        layers = tuple(dict(layer) for layer in layers)
        for layer in layers:
            for (term, _upos), valence in layer.items():
                if not term:
                    raise LexiconError("empty term")
                if term != term.lower():
                    # lookup() lowercases its query, so the entry could never be found
                    raise LexiconError(f"term {term!r} is not lowercase")
                if not abs(valence) <= VALENCE_LIMIT:
                    raise LexiconError(f"valence for {term!r} outside [-5, 5]: {valence}")
        collocations = {} if collocations is None else dict(collocations)
        for pair, merged in collocations.items():
            # lemmas are lowered and split at whitespace before they are paired
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(_is_word(lemma) and lemma == lemma.lower() for lemma in pair)):
                raise LexiconError(f"collocation {pair!r} is not a pair of lowercase words")
            if not _is_word(merged):
                raise LexiconError(f"bad merged lemma {merged!r} for {pair!r}")
        # Top layer first: a key keeps the first valence it gets, and a term
        # with an unconstrained entry in some layer takes nothing from the
        # layers below it, whatever their UPOS filters.
        valences: dict = {}
        closed: set = set()
        for layer in reversed(layers):
            for (term, upos), valence in layer.items():
                if term not in closed:
                    valences.setdefault(term, {}).setdefault(upos, valence)
            closed.update(term for term, upos in layer if upos is None)
        self.__dict__.update(
            layers=layers,
            shifters=ShifterInventory() if shifters is None else shifters,
            language=language,
            collocations=collocations,
            # term -> {upos-or-None: valence} after shadowing, and first lemma ->
            # {second lemma: merged}; the rule engine reads both and
            # ``shifters._by_lemma`` directly with already-lowered lemmas
            _valences=valences,
            _collocations_after=_by_first(collocations),
        )

    def lookup(self, lemma: str, upos: Optional[str] = None) -> Optional[float]:
        """Valence for a lowercased lemma, or None on a miss."""
        senses = self._valences.get(lemma.lower(), {})
        hit = senses.get(upos)
        return senses.get(None) if hit is None else hit

    def classify_shifter(self, lemma: str) -> Optional[Shifter]:
        return self.shifters._by_lemma.get(lemma.lower())

    def entries(self) -> Iterator[LexEntry]:
        """Effective entries after shadowing, topmost layer first."""
        seen = set()
        for layer in reversed(self.layers):
            for key, valence in layer.items():
                if key not in seen:
                    seen.add(key)
                    yield LexEntry(key[0], key[1], valence)

    def overlay(self, domain: PolarityLexicon) -> PolarityLexicon:
        """Stack ``domain`` on top of this lexicon.

        Domain entries shadow base entries key by key; shifter inventories
        union, with the domain winning whenever both classify a lemma.
        """
        if domain.language != self.language:
            raise LexiconError(
                f"language mismatch: {self.language!r} vs {domain.language!r}"
            )
        return PolarityLexicon(
            self.layers + domain.layers,
            _merge_shifters(self.shifters, domain.shifters),
            self.language,
            {**self.collocations, **domain.collocations},
        )

    def with_collocations(self, table: Mapping) -> PolarityLexicon:
        return PolarityLexicon(self.layers, self.shifters, self.language, table)


def load_lexicon(source: Source, language: str) -> PolarityLexicon:
    """Read one TSV file into a fresh single-layer lexicon."""
    entries: dict = {}
    negators: set = set()
    intensifiers: dict = {}
    adversatives: set = set()
    seen: dict = {}
    for lineno, raw in numbered_lines(source):
        if raw is None:
            raise LexiconError("not valid UTF-8", lineno)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
        term, upos_raw, spec = (part.strip() for part in parts)
        if not term:
            raise LexiconError("empty term", lineno)
        term = term.lower()
        key = (term, upos_raw or None)
        if key in seen:
            raise LexiconError(
                f"duplicate entry for {term!r}/{upos_raw or '*'} (first at line {seen[key]})",
                lineno,
            )
        seen[key] = lineno
        if spec in ("NEG", "ADV") or spec.startswith("INT:"):
            if key[1] is not None:
                raise LexiconError("shifter rows take no UPOS filter", lineno)
            if spec == "NEG":
                negators.add(term)
            elif spec == "ADV":
                adversatives.add(term)
            else:
                try:
                    strength = float(spec[len("INT:"):])
                except ValueError:
                    raise LexiconError(f"bad intensifier strength {spec!r}", lineno) from None
                if not -1 < strength <= STRENGTH_LIMIT:
                    raise LexiconError(f"intensifier strength must be > -1 and "
                                       f"<= {STRENGTH_LIMIT:g}, got {strength}", lineno)
                intensifiers[term] = strength
        else:
            try:
                valence = float(spec)
            except ValueError:
                raise LexiconError(f"unknown entry spec {spec!r}", lineno) from None
            if not abs(valence) <= VALENCE_LIMIT:
                raise LexiconError(f"valence outside [-5, 5]: {valence}", lineno)
            entries[key] = valence
    # within one file the duplicate-key check already guarantees disjointness
    shifters = ShifterInventory(negators, intensifiers, adversatives)
    return PolarityLexicon((entries,), shifters, language)


def load_collocations(source: Source) -> dict:
    """Read an adjacent-pair table: ``token1 token2<TAB>merged_lemma``."""
    table: dict = {}
    for lineno, raw in numbered_lines(source):
        if raw is None:
            raise LexiconError("not valid UTF-8", lineno)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"expected 2 tab-separated fields, got {len(parts)}", lineno)
        pair = parts[0].split()
        merged = parts[1].strip().lower()
        if len(pair) != 2:
            raise LexiconError(f"left side must be exactly two tokens, got {parts[0]!r}", lineno)
        if not _is_word(merged):
            raise LexiconError(f"bad merged lemma {parts[1]!r}", lineno)
        key = (pair[0].lower(), pair[1].lower())
        if key in table:
            raise LexiconError(f"duplicate collocation {' '.join(key)!r}", lineno)
        table[key] = merged
    return table


def _is_word(text) -> bool:
    """Whether ``text`` is a non-empty string without whitespace."""
    return isinstance(text, str) and text.split() == [text]


def _by_first(table: Mapping) -> dict:
    """A pair table as ``{first lemma: {second lemma: merged}}``."""
    after: dict = {}
    for pair, merged in table.items():
        if isinstance(pair, tuple) and len(pair) == 2:  # no other key matches a pair
            after.setdefault(pair[0], {})[pair[1]] = merged
    return after


def merge_collocations(lemmas: Sequence[str], table: Mapping) -> list:
    """Greedy left-to-right pass replacing known adjacent lemma pairs.

    The first token of a matched pair takes the merged lemma; the second is
    blanked out so downstream lookups treat it as inert.
    """
    return merge_lowered(lemmas, _by_first(table))[0]


def merge_lowered(lemmas: Sequence[str], after: Mapping) -> Tuple[List[str], List[str]]:
    """``merge_collocations`` over a table compiled by ``_by_first``, plus the
    same lemmas lowercased, as lookups see them."""
    merged = list(lemmas)
    lowered = list(map(str.lower, lemmas))
    free = 0  # the first position no merge has taken
    for i in [i for i, lemma in enumerate(lowered[:-1]) if lemma in after]:
        hit = after[lowered[i]].get(lowered[i + 1]) if i >= free else None
        if hit is not None:
            merged[i], merged[i + 1] = hit, ""
            lowered[i], lowered[i + 1] = hit.lower(), ""
            free = i + 2
    return merged, lowered
