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

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .conllu import Source, numbered_lines

VALENCE_LIMIT = 5.0

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


class LexEntry(NamedTuple):
    term: str
    upos_filter: Optional[str]
    valence: float


class Shifter(NamedTuple):
    """Classification result for a shifter lemma."""

    kind: str
    strength: Optional[float] = None


@dataclass(frozen=True)
class ShifterInventory:
    """Negator, intensifier, and adversative lemma sets.

    The three classes are pairwise disjoint. An intensifier of strength s
    scales a value by (1 + s), so s must stay above -1.
    """

    negators: frozenset = frozenset()
    intensifiers: Mapping[str, float] = field(default_factory=dict)
    adversatives: frozenset = frozenset()
    # lemma -> Shifter over all three classes, built once here
    _by_lemma: Mapping[str, Shifter] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "negators", frozenset(self.negators))
        object.__setattr__(self, "intensifiers", dict(self.intensifiers))
        object.__setattr__(self, "adversatives", frozenset(self.adversatives))
        for one, other in (
            (self.negators, self.adversatives),
            (self.negators, self.intensifiers.keys()),
            (self.adversatives, self.intensifiers.keys()),
        ):
            clash = one & other
            if clash:
                raise LexiconError(f"shifter classes overlap on {sorted(clash)}")
        # classify_shifter() lowercases its query, so no other lemma could be found
        for lemma in chain(self.negators, self.intensifiers, self.adversatives):
            if lemma != lemma.lower():
                raise LexiconError(f"shifter lemma {lemma!r} is not lowercase")
        for lemma, strength in self.intensifiers.items():
            # not (s > -1) also rejects NaN
            if not strength > -1:
                raise LexiconError(
                    f"intensifier strength for {lemma!r} must be > -1, got {strength}"
                )
        by_lemma = dict.fromkeys(self.negators, Shifter(NEGATOR))
        by_lemma.update(dict.fromkeys(self.adversatives, Shifter(ADVERSATIVE)))
        for lemma, strength in self.intensifiers.items():
            by_lemma[lemma] = Shifter(INTENSIFIER, strength)
        object.__setattr__(self, "_by_lemma", by_lemma)


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


@dataclass(frozen=True)
class PolarityLexicon:
    """Layered (term, upos) -> valence store plus a shifter inventory.

    ``layers`` runs bottom to top. The topmost layer that knows a term wins,
    and within a layer a UPOS-constrained entry beats the unconstrained one.
    Construction compiles the layers into one flat table, so a lookup costs
    the same however many layers are stacked.
    """

    layers: tuple = ()
    shifters: ShifterInventory = field(default_factory=ShifterInventory)
    language: str = "und"
    collocations: Mapping[tuple, str] = field(default_factory=dict)
    # (term, upos-or-None) -> valence after shadowing; the rule engine reads
    # it and ``shifters._by_lemma`` directly with already-lowered lemmas
    _valence_of: Mapping[tuple, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.language:
            raise LexiconError("language tag must be non-empty")
        object.__setattr__(self, "layers", tuple(dict(layer) for layer in self.layers))
        object.__setattr__(self, "collocations", dict(self.collocations))
        for layer in self.layers:
            for (term, _upos), valence in layer.items():
                if not term:
                    raise LexiconError("empty term")
                if term != term.lower():
                    # lookup() lowercases its query, so the entry could never be found
                    raise LexiconError(f"term {term!r} is not lowercase")
                if not abs(valence) <= VALENCE_LIMIT:
                    raise LexiconError(f"valence for {term!r} outside [-5, 5]: {valence}")
        # Top layer first: a key keeps the first valence it gets, and a term
        # with an unconstrained entry in some layer takes nothing from the
        # layers below it, whatever their UPOS filters.
        valence_of: dict = {}
        closed: set = set()
        for layer in reversed(self.layers):
            for key, valence in layer.items():
                if key[0] not in closed:
                    valence_of.setdefault(key, valence)
            closed.update(term for term, upos in layer if upos is None)
        object.__setattr__(self, "_valence_of", valence_of)

    def lookup(self, lemma: str, upos: Optional[str] = None) -> Optional[float]:
        """Valence for a lowercased lemma, or None on a miss."""
        lemma = lemma.lower()
        hit = self._valence_of.get((lemma, upos))
        if hit is None and upos is not None:
            hit = self._valence_of.get((lemma, None))
        return hit

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
        return replace(self, collocations=dict(table))


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
                if not strength > -1:
                    raise LexiconError(
                        f"intensifier strength must be > -1, got {strength}", lineno
                    )
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
        if not merged or merged.split() != [merged]:
            raise LexiconError(f"bad merged lemma {parts[1]!r}", lineno)
        key = (pair[0].lower(), pair[1].lower())
        if key in table:
            raise LexiconError(f"duplicate collocation {' '.join(key)!r}", lineno)
        table[key] = merged
    return table


def merge_collocations(lemmas: Sequence[str], table: Mapping) -> list:
    """Greedy left-to-right pass replacing known adjacent lemma pairs.

    The first token of a matched pair takes the merged lemma; the second is
    blanked out so downstream lookups treat it as inert.
    """
    return merge_lowered(lemmas, table)[0]


def merge_lowered(lemmas: Sequence[str], table: Mapping) -> Tuple[List[str], List[str]]:
    """``merge_collocations`` plus the same lemmas lowercased, as lookups see them."""
    merged = list(lemmas)
    lowered = [lemma.lower() for lemma in lemmas]
    i = 0
    while i + 1 < len(merged):
        hit = table.get((lowered[i], lowered[i + 1]))
        if hit is None:
            i += 1
        else:
            merged[i] = hit
            merged[i + 1] = ""
            lowered[i] = hit.lower()
            lowered[i + 1] = ""
            i += 2
    return merged, lowered
