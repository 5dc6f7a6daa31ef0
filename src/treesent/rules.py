"""Compositional sentiment rules over dependency trees.

A post-order walk assigns each node a lexicon valence, lets intensifier
dependents scale it, and lets negator dependents shift the node's whole
subtree total toward (and possibly past) zero, clamped to a cap. An
adversative marker splits the sentence linearly and reweights the two
halves. Every rule application can be recorded as a trace step so a score
can be audited or replayed after the fact.

A bag-of-words baseline with no syntax and no shifters is included for
contrast experiments.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .conllu import settings_lines
from .lexicon import ADVERSATIVE as _ADV_KIND
from .lexicon import INTENSIFIER as _INT_KIND
from .lexicon import NEGATOR as _NEG_KIND
from .lexicon import VALENCE_LIMIT, PolarityLexicon, merge_lowered
from .tree import DepTree, Token, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, List, Optional, Sequence, Tuple, Union

    from .conllu import Source

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"
CLASSES = (POSITIVE, NEGATIVE, NEUTRAL)

# trace step rule names
LEXICON = "LEXICON"
INTENSIFY = "INTENSIFY"
NEGATE = "NEGATE"
ADVERSATIVE = "ADVERSATIVE"
AGGREGATE = "AGGREGATE"

# deprels whose dependents extend a nominal target span and disqualify
# their own token from heading a separate candidate
_NOMINAL_MODIFIERS = ("compound", "flat", "amod")
_NOUN_TAGS = ("NOUN", "PROPN")


class RuleError(ValueError):
    """Bad rule configuration or an invalid scoring request."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.message, self.line)


def classify_valence(valence: float, threshold: float) -> str:
    """Threshold a valence; ties at exactly +-threshold stay neutral."""
    if valence > threshold:
        return POSITIVE
    if valence < -threshold:
        return NEGATIVE
    return NEUTRAL


class RuleConfig(_Record, frozen=True):
    """Numeric policy for the rule engine.

    negation shifts a subtree total toward zero by ``negation_shift`` and
    clamps the result to [-negation_cap, +negation_cap]; an adversative
    marker reweights the material before/after it by ``adversative_weights``.
    """

    _fields = ("negation_shift", "negation_cap", "adversative_weights", "neutral_threshold")

    def __init__(
        self,
        negation_shift: float = 4.0,
        negation_cap: float = 5.0,
        adversative_weights: Tuple[float, float] = (0.5, 1.5),
        neutral_threshold: float = 0.5,
    ) -> None:
        weights = tuple(float(w) for w in adversative_weights)
        if len(weights) != 2:
            raise RuleError(f"adversative_weights needs 2 values, got {len(weights)}")
        negation_shift, negation_cap = float(negation_shift), float(negation_cap)
        neutral_threshold = float(neutral_threshold)
        # written as "not x >= 0" so that NaN, which fails every comparison, is rejected
        if not negation_shift >= 0:
            raise RuleError(f"negation_shift must be >= 0, got {negation_shift}")
        if not 0 < negation_cap <= VALENCE_LIMIT:
            raise RuleError(f"negation_cap must be in (0, {VALENCE_LIMIT:g}], got {negation_cap}")
        # a weight scales a value as an intensifier does, and by no more than one can
        if not all(0 <= w <= VALENCE_LIMIT for w in weights):
            raise RuleError(
                f"adversative_weights must be in [0, {VALENCE_LIMIT:g}], got {weights}"
            )
        if not neutral_threshold >= 0:
            raise RuleError(f"neutral_threshold must be >= 0, got {neutral_threshold}")
        self.__dict__.update(negation_shift=negation_shift, negation_cap=negation_cap,
                             adversative_weights=weights, neutral_threshold=neutral_threshold)

    @classmethod
    def from_file(cls, source: Source) -> "RuleConfig":
        """Parse a flat ``key = value`` file; keys are the field names."""
        values: dict = {}
        for lineno, key, value in settings_lines(source, RuleError):
            if key not in cls._fields:
                raise RuleError(f"unknown key {key!r}", lineno)
            try:
                weights = key == "adversative_weights"
                values[key] = tuple(map(float, value.split(","))) if weights else float(value)
                cls(**{key: values[key]})  # the field's own checks, while its line is known
            except RuleError as exc:
                raise RuleError(exc.message, lineno) from None
            except ValueError:
                raise RuleError(f"bad value for {key!r}: {value!r}", lineno) from None
        return cls(**values)


class TraceStep(namedtuple("TraceStep", "token_id rule before after note", defaults=("",))):
    """One rule application: token it applied at, values before and after."""

    __slots__ = ()


class TargetOpinion(_Record, frozen=True):
    """Sentiment attributed to one nominal target span."""

    _fields = ("target_token_ids", "target_text", "valence", "opinion_class",
               "evidence_token_ids")

    def __init__(
        self,
        target_token_ids: Sequence[int],
        target_text: str,
        valence: float,
        opinion_class: str,
        evidence_token_ids: Sequence[int],
    ) -> None:
        span, evidence = tuple(target_token_ids), tuple(evidence_token_ids)
        if not span:
            raise RuleError("target span must be non-empty")
        if list(span) != list(range(span[0], span[-1] + 1)):
            raise RuleError(f"target span must be contiguous, got {span}")
        if opinion_class not in CLASSES:
            raise RuleError(f"bad opinion class {opinion_class!r}")
        if opinion_class != NEUTRAL and not evidence:
            raise RuleError("non-neutral opinion needs evidence tokens")
        self.__dict__.update(target_token_ids=span, target_text=target_text, valence=valence,
                             opinion_class=opinion_class, evidence_token_ids=evidence)


class SentimentResult(_Record, frozen=True):
    """Sentence-level score plus per-target opinions and the full trace."""

    _fields = ("sentence_valence", "sentence_class", "opinions", "trace")

    def __init__(
        self,
        sentence_valence: float,
        sentence_class: str,
        opinions: Sequence[TargetOpinion] = (),
        trace: Sequence[TraceStep] = (),
    ) -> None:
        if sentence_class not in CLASSES:
            raise RuleError(f"bad sentence class {sentence_class!r}")
        self.__dict__.update(sentence_valence=sentence_valence, sentence_class=sentence_class,
                             opinions=tuple(opinions), trace=tuple(trace))


class _Composition(namedtuple("_Composition", "valence trace contribution lemmas")):
    """The sentence ``valence``; its ``trace``, a list of TraceStep, or None
    unless asked for; the ``contribution`` of each token, indexed by token id
    ([0] unused); and the ``lemmas`` lowercased, after the collocation pre-pass."""

    __slots__ = ()


def _compose(
    tree: DepTree, lex: PolarityLexicon, cfg: RuleConfig, trace: bool = True
) -> _Composition:
    n = len(tree)
    heads = tree.heads
    upos = tree.upos
    lemmas, lowered = merge_lowered(tree.lemmas, lex._collocations_after)
    # the lexicon's compiled tables, read with the lemmas lowered once here
    valences = lex._valences
    shifter_of = lex.shifters._by_lemma
    shifter_deps: dict = {}  # head id -> its shifter dependents (id, Shifter), left to right
    pivot = None  # the leftmost adversative marker, which splits the sentence
    for node in [node for node, lemma in enumerate(lowered, 1) if lemma in shifter_of]:
        kind = shifter_of[lowered[node - 1]]
        shifter_deps.setdefault(heads[node - 1], []).append((node, kind))
        if pivot is None and kind.kind == _ADV_KIND:
            pivot = node
    contribution = [0.0] * (n + 1)
    # children's subtree totals summed left to right, exactly as sum() would;
    # never -0.0, so a node that adds 0.0 to one passes it up unchanged
    below = [0.0] * (n + 1)
    steps: Optional[List[TraceStep]] = [] if trace else None

    for node in tree.post_order:
        senses = valences.get(lowered[node - 1])  # "", a merge's blank, is no term
        deps = shifter_deps.get(node, ())
        if senses is None and not deps:  # no rule applies at this node
            total = below[node]
        else:
            value = 0.0
            if senses is not None:
                base = senses.get(upos[node - 1])
                if base is None:
                    base = senses.get(None)
                if base is not None:
                    value = float(base)
            if steps is not None and value != 0.0:
                steps.append(TraceStep(node, LEXICON, 0.0, value, lemmas[node - 1]))
            for dep, kind in deps:
                if kind.kind == _INT_KIND and value != 0.0:
                    scaled = value * (1.0 + kind.strength)
                    if steps is not None:
                        steps.append(TraceStep(node, INTENSIFY, value, scaled, lemmas[dep - 1]))
                    value = scaled
            contribution[node] = value
            total = value + below[node]
            for dep, kind in deps:
                if kind.kind != _NEG_KIND:
                    continue
                if total == 0.0:
                    if steps is not None:
                        steps.append(TraceStep(node, NEGATE, 0.0, 0.0, "vacuous"))
                    continue
                shifted = total - math.copysign(cfg.negation_shift, total)
                clamped = max(-cfg.negation_cap, min(cfg.negation_cap, shifted))
                if steps is not None:
                    steps.append(TraceStep(node, NEGATE, total, clamped, lemmas[dep - 1]))
                contribution[node] += clamped - total
                total = clamped
        below[heads[node - 1]] += total

    sentence = total  # the root is the last node of the post-order
    if pivot is not None:
        before = sum(contribution[1:pivot])
        after = sum(contribution[pivot + 1:])
        w_before, w_after = cfg.adversative_weights
        weighted = w_before * before + w_after * after
        if steps is not None:
            steps.append(
                TraceStep(
                    pivot,
                    ADVERSATIVE,
                    sentence,
                    weighted,
                    f"{w_before:g}*before + {w_after:g}*after",
                )
            )
        sentence = weighted
    if steps is not None:
        steps.append(
            TraceStep(
                0, AGGREGATE, sentence, sentence,
                classify_valence(sentence, cfg.neutral_threshold),
            )
        )
    return _Composition(sentence, steps, contribution, lowered)


def score_tree(
    tree: DepTree, lex: PolarityLexicon, cfg: RuleConfig
) -> Tuple[float, List[TraceStep]]:
    """Sentence valence and the trace of every rule application."""
    composed = _compose(tree, lex, cfg)
    return composed.valence, composed.trace


def replay_trace(trace: Sequence[TraceStep]) -> float:
    """Re-run a trace against a zero accumulator.

    Node-level steps fold in their delta; sentence-level steps re-assign the
    accumulator outright, so the replayed value matches the engine exactly.
    """
    acc = 0.0
    for step in trace:
        if step.rule in (ADVERSATIVE, AGGREGATE):
            acc = step.after
        else:
            acc += step.after - step.before
    return acc


def _base_deprels(tree: DepTree) -> List[str]:
    """Each token's deprel without its subtype, by token id; [0] is unused."""
    deprels = tree.deprels
    if ":" in "".join(deprels):
        deprels = [deprel.partition(":")[0] for deprel in deprels]
    return ["", *deprels]


def _target_candidates(
    tree: DepTree, deprels: List[str]
) -> List[Tuple[int, Tuple[int, ...]]]:
    children = tree.children
    heads = tree.heads
    upos = tree.upos
    candidates = []
    for node, tag in enumerate(upos, start=1):
        if tag not in _NOUN_TAGS:
            continue
        # a nominal hanging off another nominal as part of a compound/flat/
        # amod chain belongs to the bigger span, not to a span of its own
        head = heads[node - 1]
        if head != 0:
            if deprels[node] in _NOMINAL_MODIFIERS and upos[head - 1] in _NOUN_TAGS:
                continue
        modifier_deps = {
            dep for dep in children[node] if deprels[dep] in _NOMINAL_MODIFIERS
        }
        lo = node
        while lo - 1 in modifier_deps:
            lo -= 1
        hi = node
        while hi + 1 in modifier_deps:
            hi += 1
        candidates.append((node, tuple(range(lo, hi + 1))))
    candidates.sort(key=lambda item: item[1][0])
    return candidates


def extract_targets(tree: DepTree) -> List[Tuple[int, ...]]:
    """Candidate aspect spans, left to right: nominal heads plus their
    adjacent compound/flat/amod dependents."""
    return [span for _head, span in _target_candidates(tree, _base_deprels(tree))]


def _evidence(
    tree: DepTree,
    lex: PolarityLexicon,
    head: int,
    composed: _Composition,
    deprels: List[str],
) -> List[Tuple[int, float]]:
    """(token id, contribution) of each scored token that speaks about the
    target headed at ``head``, left to right."""
    children = tree.children
    evidence = set()
    # adjectival / participial modifiers of the target head
    for dep in children[head]:
        if deprels[dep] in ("amod", "acl"):
            evidence.add(dep)
    relation = deprels[head]
    governor = tree.heads[head - 1]
    if governor != 0:
        governor_upos = tree.upos[governor - 1]
        if relation == "nsubj":
            # copular or adjectival predicate the target is subject of
            has_copula = any(deprels[dep] == "cop" for dep in children[governor])
            if has_copula or governor_upos == "ADJ":
                evidence.add(governor)
        elif relation in ("obj", "iobj", "obl") and governor_upos == "VERB":
            if lex.lookup(composed.lemmas[governor - 1], governor_upos):
                evidence.add(governor)
    contribution = composed.contribution
    return [(e, contribution[e]) for e in sorted(evidence) if contribution[e] != 0.0]


def _opinion(
    tree: DepTree, cfg: RuleConfig, span: Tuple[int, ...], kept: List[Tuple[int, float]]
) -> TargetOpinion:
    forms = tree.forms
    valence = sum(v for _e, v in kept)
    return TargetOpinion(
        span,
        " ".join(forms[i - 1] for i in span),
        valence,
        classify_valence(valence, cfg.neutral_threshold),
        tuple(e for e, _v in kept),
    )


def analyze(
    tree: DepTree, lex: PolarityLexicon, cfg: RuleConfig, trace: bool = True
) -> SentimentResult:
    """Full pipeline: sentence score plus one opinion per surviving target.

    With ``trace=False`` no trace steps are built and ``trace`` is empty;
    every other field is the same.
    """
    composed = _compose(tree, lex, cfg, trace)
    deprels = _base_deprels(tree)
    opinions = []
    for head, span in _target_candidates(tree, deprels):
        kept = _evidence(tree, lex, head, composed, deprels)
        # a target with no evidence is neutral, and is left out
        if kept:
            opinions.append(_opinion(tree, cfg, span, kept))
    return SentimentResult(
        composed.valence,
        classify_valence(composed.valence, cfg.neutral_threshold),
        tuple(opinions),
        composed.trace or (),
    )


def baseline_wordcount(
    tokens: Union[DepTree, Iterable[Token]],
    lex: PolarityLexicon,
    cfg: RuleConfig,
) -> Tuple[float, str]:
    """Plain valence sum over tokens: no syntax, no shifters."""
    if isinstance(tokens, DepTree):
        words = zip(tokens.lemmas, tokens.upos)
    else:
        words = ((token.lemma, token.upos) for token in tokens)
    valence = 0.0
    for lemma, upos in words:
        hit = lex.lookup(lemma, upos)
        if hit is not None:
            valence += hit
    return valence, classify_valence(valence, cfg.neutral_threshold)
