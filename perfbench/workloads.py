"""Seeded input generator for the benchmark workloads.

The generator is self-contained on purpose: it imports nothing from
``treesent``, so a change to the package's own synthetic corpora, label
encoders or writers cannot change the bytes a workload feeds the commands.
Labels and bridge lines are computed here from the generated gold trees
(``test_perfbench.py`` checks that they agree with ``treesent.encode``).

Sentences are review-like clauses ("the battery is not very good",
"I don't love the screen") joined by "and" or by contrast markers, with
mixed-case forms, lowercase lemmas that differ from their forms, multiword
token ranges ("isn't", "don't"), and ``sent_id``/``text`` metadata.
Target lengths sit at evenly spaced quantiles of a log-normal
distribution, so they have a long right tail and the same mix for every
seed. Every tree the generator builds is projective; the decode
workload makes a stated share non-projective afterwards.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMES = ("rel-offset", "rel-pos", "brackets")

# (lemma, upos, surface forms). The polar words and shifters are terms of
# the bundled English demo lexicon; the neutral ones are not.
POLAR_ADJ = [
    ("good", ["good", "Good"]), ("great", ["great", "GREAT"]),
    ("excellent", ["excellent"]), ("amazing", ["amazing", "Amazing"]),
    ("nice", ["nice"]), ("solid", ["solid"]), ("reliable", ["reliable"]),
    ("sturdy", ["sturdy"]), ("fast", ["fast"]), ("comfortable", ["comfortable"]),
    ("bad", ["bad", "BAD"]), ("terrible", ["terrible", "Terrible"]),
    ("awful", ["awful"]), ("poor", ["poor"]), ("expensive", ["expensive"]),
    ("overpriced", ["overpriced"]), ("slow", ["slow"]), ("noisy", ["noisy"]),
    ("flimsy", ["flimsy"]), ("broken", ["broken"]), ("useless", ["useless"]),
    ("disappointing", ["disappointing"]),
]
NEUTRAL_ADJ = [
    ("new", ["new", "New"]), ("black", ["black"]), ("small", ["small", "smaller"]),
    ("big", ["big", "bigger"]), ("old", ["old", "older"]), ("white", ["white"]),
    ("heavy", ["heavy", "heavier"]), ("light", ["light", "lighter"]),
]
POLAR_VERB = [
    ("love", ["love", "loved", "Love"]), ("like", ["like", "liked"]),
    ("recommend", ["recommend", "recommended"]), ("enjoy", ["enjoy", "enjoyed"]),
    ("hate", ["hate", "hated"]), ("fail", ["fail", "failed"]),
]
NEUTRAL_VERB = [
    ("buy", ["bought", "buy"]), ("use", ["use", "used"]), ("get", ["got", "get"]),
    ("return", ["returned", "return"]), ("charge", ["charged", "charge"]),
]
NOUNS = [
    ("battery", ["battery", "Battery", "batteries"]), ("screen", ["screen", "screens"]),
    ("camera", ["camera", "Camera", "cameras"]), ("price", ["price", "prices"]),
    ("charger", ["charger", "chargers"]), ("speaker", ["speaker", "speakers"]),
    ("keyboard", ["keyboard"]), ("case", ["case", "cases"]), ("design", ["design"]),
    ("display", ["display", "Display"]), ("sound", ["sound"]), ("app", ["app", "apps"]),
    ("seller", ["seller"]), ("delivery", ["delivery"]), ("problem", ["problem", "problems"]),
    ("issue", ["issue", "issues"]), ("bargain", ["bargain"]), ("phone", ["phone", "Phone"]),
]
INTENSIFIERS = [
    ("really", ["really", "Really"]), ("very", ["very", "VERY"]), ("extremely", ["extremely"]),
    ("so", ["so"]), ("quite", ["quite"]), ("totally", ["totally"]),
    ("slightly", ["slightly"]), ("somewhat", ["somewhat"]),
]
NEGATORS = [("not", ["not", "NOT"]), ("never", ["never", "Never"])]
CONTRASTS = [("but", ["but", "But"]), ("however", ["however"]), ("though", ["though"]),
             ("although", ["although"])]
DETS = [("the", ["the", "The"]), ("this", ["this", "This"]), ("my", ["my"]), ("a", ["a"])]
PRONOUNS = [("I", ["I"]), ("we", ["we", "We"]), ("they", ["they"])]
PREPS = [("for", ["for"]), ("with", ["with"]), ("after", ["after"])]

POLAR_LEMMAS = frozenset(l for l, _ in POLAR_ADJ + POLAR_VERB) | {"problem", "issue", "bargain"}
SHIFTER_LEMMAS = frozenset(
    l for l, _ in INTENSIFIERS + NEGATORS + CONTRASTS
) | {"n't", "kind", "at"}


# shares of the adjective and verb slots filled with a sentiment word, and
# of noun phrases given an adjective
P_POLAR = 0.5
P_AMOD = 0.3


@dataclass(frozen=True)
class Params:
    """Knobs of one generated corpus; ``p_*`` are per-clause probabilities."""

    sentences: int
    median_len: float
    sigma: float
    min_len: int
    max_len: int
    p_negate: float
    p_intensify: float
    p_contrast: float


@dataclass
class Sentence:
    sent_id: str
    # one row per syntactic word: [form, lemma, upos, head, deprel]
    rows: List[list]
    # first token id -> (last token id, surface form) of multiword tokens
    ranges: Dict[int, Tuple[int, str]] = field(default_factory=dict)

    @property
    def heads(self) -> Tuple[int, ...]:
        return tuple(r[3] for r in self.rows)

    def add(self, word: Tuple[str, list], upos: str, rng: random.Random) -> int:
        lemma, forms = word
        form = rng.choice(forms)
        self.rows.append([form, lemma, upos, 0, "dep"])
        return len(self.rows)

    def attach(self, dep: int, head: int, deprel: str) -> None:
        self.rows[dep - 1][3] = head
        self.rows[dep - 1][4] = deprel

    def text(self) -> str:
        words = []
        i = 1
        while i <= len(self.rows):
            if i in self.ranges:
                last, surface = self.ranges[i]
                words.append(surface)
                i = last + 1
            else:
                words.append(self.rows[i - 1][0])
                i += 1
        return " ".join(words)


def _negation(s: Sentence, rng: random.Random, aux_lemma: str, head_later: List[int]) -> None:
    """Aux plus negator; half of them as a multiword token ("isn't")."""
    aux_forms = {"be": ["is", "was"], "do": ["do", "did"]}[aux_lemma]
    aux_form = rng.choice(aux_forms)
    if rng.random() < 0.5:
        aux = s.add((aux_lemma, [aux_form]), "AUX", rng)
        neg = s.add(("n't", ["n't"]), "PART", rng)
        s.ranges[aux] = (neg, aux_form + "n't")
    else:
        aux = s.add((aux_lemma, [aux_form]), "AUX", rng)
        neg = s.add(rng.choice(NEGATORS), "PART", rng)
    head_later.extend((aux, neg))


def _intensifiers(s: Sentence, rng: random.Random, p: float, out: List[int]) -> None:
    if rng.random() >= p:
        return
    if rng.random() < 0.1:
        kind = s.add(("kind", ["kind"]), "ADV", rng)
        of = s.add(("of", ["of"]), "ADP", rng)
        s.attach(of, kind, "fixed")
        out.append(kind)
        return
    out.append(s.add(rng.choice(INTENSIFIERS), "ADV", rng))
    if rng.random() < p * 0.3:  # chained intensifiers: "really very"
        out.append(s.add(rng.choice(INTENSIFIERS), "ADV", rng))


def _noun_phrase(s: Sentence, rng: random.Random, pr: Params) -> int:
    det = s.add(rng.choice(DETS), "DET", rng)
    mods = []
    if rng.random() < P_AMOD:
        pool = POLAR_ADJ if rng.random() < P_POLAR else NEUTRAL_ADJ
        mods.append(s.add(rng.choice(pool), "ADJ", rng))
    if rng.random() < 0.2:
        mods.append(s.add(rng.choice(NOUNS), "NOUN", rng))  # compound: "phone battery"
    noun = s.add(rng.choice(NOUNS), "NOUN", rng)
    s.attach(det, noun, "det")
    for mod in mods:
        s.attach(mod, noun, "amod" if s.rows[mod - 1][2] == "ADJ" else "compound")
    return noun


def _copular_clause(s: Sentence, rng: random.Random, pr: Params) -> int:
    """[det] [amod] noun is [not] [very] adj [at all]."""
    subj = _noun_phrase(s, rng, pr)
    pre: List[int] = []
    negated = rng.random() < pr.p_negate
    if negated:
        _negation(s, rng, "be", pre)
        cop = pre[0]
    else:
        cop = s.add(("be", [rng.choice(["is", "was"])]), "AUX", rng)
        pre.append(cop)
    _intensifiers(s, rng, pr.p_intensify, pre)
    pool = POLAR_ADJ if rng.random() < P_POLAR else NEUTRAL_ADJ
    adj = s.add(rng.choice(pool), "ADJ", rng)
    s.attach(subj, adj, "nsubj")
    for dep in pre:
        s.attach(dep, adj, "cop" if dep == cop else "advmod")
    if negated and rng.random() < 0.3:
        at = s.add(("at", ["at"]), "ADP", rng)
        all_ = s.add(("all", ["all"]), "DET", rng)
        s.attach(at, adj, "advmod")
        s.attach(all_, at, "fixed")
    return adj


def _verbal_clause(s: Sentence, rng: random.Random, pr: Params) -> int:
    """pron [don't] [really] verb det [adj] noun [for the noun]."""
    subj = s.add(rng.choice(PRONOUNS), "PRON", rng)
    pre: List[int] = []
    if rng.random() < pr.p_negate:
        if rng.random() < 0.7:
            _negation(s, rng, "do", pre)
        else:
            pre.append(s.add(rng.choice(NEGATORS), "PART", rng))
    _intensifiers(s, rng, pr.p_intensify, pre)
    pool = POLAR_VERB if rng.random() < P_POLAR else NEUTRAL_VERB
    verb = s.add(rng.choice(pool), "VERB", rng)
    s.attach(subj, verb, "nsubj")
    for dep in pre:
        rel = "aux" if s.rows[dep - 1][1] == "do" else "advmod"
        s.attach(dep, verb, rel)
    obj = _noun_phrase(s, rng, pr)
    s.attach(obj, verb, "obj")
    if rng.random() < 0.3:
        case = s.add(rng.choice(PREPS), "ADP", rng)
        obl = _noun_phrase(s, rng, pr)
        s.attach(case, obl, "case")
        s.attach(obl, verb, "obl")
    return verb


def target_lengths(pr: Params, rng: random.Random) -> List[int]:
    """One target length per sentence, at evenly spaced quantiles of the
    log-normal, in a seeded order: every seed gets the same length mix, so
    the amount of work does not drift with the seed."""
    normal = NormalDist(math.log(pr.median_len), pr.sigma)
    lengths = [int(round(math.exp(normal.inv_cdf((i + 0.5) / pr.sentences))))
               for i in range(pr.sentences)]
    rng.shuffle(lengths)
    return [max(pr.min_len, min(pr.max_len, n)) for n in lengths]


def make_sentence(sent_id: str, target: int, rng: random.Random, pr: Params) -> Sentence:
    s = Sentence(sent_id, [])
    root = 0
    while True:
        connector: List[int] = []
        if root:
            if rng.random() < 0.5:
                connector.append(s.add((",", [","]), "PUNCT", rng))
            if rng.random() < pr.p_contrast:
                connector.append(s.add(rng.choice(CONTRASTS), "CCONJ", rng))
            else:
                connector.append(s.add(("and", ["and"]), "CCONJ", rng))
        clause = _copular_clause if rng.random() < 0.6 else _verbal_clause
        head = clause(s, rng, pr)
        if root:
            for dep in connector:
                s.attach(dep, head, "punct" if s.rows[dep - 1][2] == "PUNCT" else "cc")
            s.attach(head, root, "conj")
        else:
            root = head
            s.attach(root, 0, "root")
        if len(s.rows) + 1 >= target or len(s.rows) + 1 >= pr.max_len - 12:
            break
    stop = s.add((".", ["."]), "PUNCT", rng)
    s.attach(stop, root, "punct")
    first = s.rows[0]
    if first[0][:1].islower():
        first[0] = first[0][:1].upper() + first[0][1:]
        if 1 in s.ranges:
            last, surface = s.ranges[1]
            s.ranges[1] = (last, surface[:1].upper() + surface[1:])
    return s


def make_corpus(pr: Params, seed: int, tag: str) -> List[Sentence]:
    rng = random.Random(f"{tag}:{seed}")
    return [make_sentence(f"{tag}-{i:06d}", n, rng, pr)
            for i, n in enumerate(target_lengths(pr, rng))]


# ----------------------------------------------------------------- trees


def crossing(heads: Sequence[int]) -> bool:
    """True if two arcs cross; the root arc counts from position 0."""
    spans = [(min(h, d), max(h, d)) for d, h in enumerate(heads, start=1)]
    for a, (lo1, hi1) in enumerate(spans):
        for lo2, hi2 in spans[a + 1:]:
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                return True
    return False


def _descendants(heads: Sequence[int], node: int) -> set:
    out = {node}
    changed = True
    while changed:
        changed = False
        for d, h in enumerate(heads, start=1):
            if h in out and d not in out:
                out.add(d)
                changed = True
    return out


def make_nonprojective(s: Sentence, rng: random.Random) -> None:
    """Reattach one word so that two arcs cross, if a try finds one."""
    heads = list(s.heads)
    n = len(heads)
    for _ in range(60):
        dep = rng.randint(1, n)
        if heads[dep - 1] == 0:
            continue
        inside = _descendants(heads, dep)
        head = rng.randint(1, n)
        if head in inside or head == heads[dep - 1]:
            continue
        trial = heads[:]
        trial[dep - 1] = head
        if crossing(trial):
            s.rows[dep - 1][3] = head
            return


# ---------------------------------------------------------------- labels


def _rel_pos(upos: Sequence[str], dep: int, head: int) -> Tuple[str, int]:
    if head == 0:
        return "ROOT", 0
    tag = upos[head - 1]
    if head > dep:
        return tag, sum(1 for j in range(dep + 1, head + 1) if upos[j - 1] == tag)
    return tag, -sum(1 for j in range(head, dep) if upos[j - 1] == tag)


def labels_for(heads: Sequence[int], upos: Sequence[str], scheme: str) -> List[str]:
    """Label payloads (without the relation) for one tree."""
    n = len(heads)
    if scheme == "rel-offset":
        return ["0" if h == 0 else f"{h - d:+d}" for d, h in enumerate(heads, start=1)]
    if scheme == "rel-pos":
        out = []
        for d, h in enumerate(heads, start=1):
            tag, k = _rel_pos(upos, d, h)
            out.append(f"{tag},{'0' if k == 0 else f'{k:+d}'}")
        return out
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for d, h in enumerate(heads, start=1):
        if h > d:
            left[h] += 1
        elif h != 0:
            right[h] += 1
    out = []
    for d, h in enumerate(heads, start=1):
        sym = "\\" * left[d] + ("<" if h > d else ">" if h != 0 else "") + "/" * right[d]
        out.append(sym)
    return out


CORRUPTIONS = ("out_of_range", "extra_root", "missing_root", "cycle")


def corrupt(heads: Sequence[int], upos: Sequence[str], labels: List[str], scheme: str,
            rng: random.Random) -> str:
    """Damage one or two labels in place so that a repair rule must fire.

    Returns the name of the corruption applied. Bracket labels keep their
    canonical symbol order, so they still parse.
    """
    n = len(heads)
    root = heads.index(0) + 1
    if scheme == "brackets":
        i = rng.randint(1, n)
        sym = labels[i - 1]
        choice = rng.choice(("drop_open", "extra_close", "extra_open", "drop_attach"))
        if choice == "drop_open" and "<" in sym:
            labels[i - 1] = sym.replace("<", "")
        elif choice == "drop_attach" and ">" in sym:
            labels[i - 1] = sym.replace(">", "")
        elif choice == "extra_open" and "<" not in sym and ">" not in sym:
            labels[i - 1] = sym.rstrip("/") + "<" + "/" * sym.count("/")
        else:
            labels[i - 1] = "\\" + sym
        return "brackets_" + choice

    def point(dep: int, head: int) -> None:
        if scheme == "rel-offset":
            labels[dep - 1] = "0" if head == 0 else f"{head - dep:+d}"
        else:
            tag, k = _rel_pos(upos, dep, head)
            labels[dep - 1] = f"{tag},{'0' if k == 0 else f'{k:+d}'}"

    kind = rng.choice(CORRUPTIONS)
    others = [d for d in range(1, n + 1) if d != root]
    if kind == "cycle":
        pairs = [(d, heads[d - 1]) for d in others if heads[d - 1] != root]
        if not pairs:
            kind = "extra_root"
        else:
            dep, head = rng.choice(pairs)
            point(head, dep)
            return kind
    if kind == "extra_root" and others:
        point(rng.choice(others), 0)
    elif kind == "missing_root" and n > 1:
        point(root, rng.choice(others))
    else:
        kind = "out_of_range"
        dep = rng.randint(1, n)
        if scheme == "rel-offset":
            labels[dep - 1] = f"{n + 3 - dep:+d}"
        else:
            labels[dep - 1] = f"{upos[dep - 1]},+{n + 2}"
    return kind


# ---------------------------------------------------------------- writers


def conllu_block(s: Sentence) -> str:
    lines = [f"# sent_id = {s.sent_id}", f"# text = {s.text()}"]
    for i, (form, lemma, upos, head, rel) in enumerate(s.rows, start=1):
        if i in s.ranges:
            last, surface = s.ranges[i]
            lines.append(f"{i}-{last}\t{surface}\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
    return "\n".join(lines) + "\n\n"


def bridge_line(s: Sentence, labels: Sequence[str], scheme: str) -> str:
    fields = []
    for (form, _lemma, upos, head, rel), lab in zip(s.rows, labels):
        if scheme == "brackets" and head == 0:
            rel = "root"
        fields.append(f"{form}/{upos}/{lab}:{rel}")
    return f"{s.sent_id}\t{' '.join(fields)}\n"


# -------------------------------------------------------------- workloads


@dataclass
class Command:
    """One CLI invocation of a workload: ``treesent <args> -i <input>``."""

    name: str
    args: List[str]
    input: Path
    empty: Path
    kind: str  # output format: "jsonl", "conllu" or "bridge"
    scheme: Optional[str] = None
    explain: bool = False
    workers: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    why: str
    commands: List[Command]
    # gold per command name: sent_ids, heads and corrupted ids (decode/encode)
    sent_ids: Dict[str, List[str]]
    gold_heads: Dict[str, List[Tuple[int, ...]]] = field(default_factory=dict)
    corrupted: Dict[str, set] = field(default_factory=dict)
    properties: Dict[str, object] = field(default_factory=dict)

    def digests(self) -> Dict[str, str]:
        paths = sorted({c.input for c in self.commands} | {c.empty for c in self.commands})
        return {p.name: sha256_file(p) for p in paths}


REVIEW = Params(2000, 16, 0.45, 4, 90, p_negate=0.25, p_intensify=0.3, p_contrast=0.2)
SHIFTER_DENSE = Params(600, 48, 0.35, 12, 160, p_negate=0.6, p_intensify=0.7, p_contrast=0.5)
TAGGER = Params(1200, 16, 0.45, 4, 90, p_negate=0.25, p_intensify=0.3, p_contrast=0.2)
TREEBANK = Params(500, 28, 0.75, 3, 240, p_negate=0.25, p_intensify=0.3, p_contrast=0.2)
CORRUPT_SHARE = 0.2
NONPROJECTIVE_SHARE = 0.15

WHY = {
    "analyze": "review CoNLL-U through analyze, one worker: conllu, tree, lexicon, rules and "
               "cli do all the work, encodings none",
    "explain-2w": "long shifter-dense sentences through analyze --explain on two workers: "
                  "traces serialised and trees pickled across the process pool",
    "decode": "tagger output with corrupted labels and non-projective trees, decoded once per "
              "scheme: encodings read side, tree validation and CoNLL-U writing only",
    "encode": "projective treebank with lengths past 100 tokens, encoded once per scheme: "
              "encodings write side and the quadratic crossing_arcs check",
}
WORKLOADS = tuple(WHY)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _length_stats(sentences: Sequence[Sentence]) -> Dict[str, float]:
    lengths = sorted(len(s.rows) for s in sentences)
    n = len(lengths)
    return {
        "sentences": n,
        "tokens": sum(lengths),
        "len_mean": round(sum(lengths) / n, 2),
        "len_median": lengths[n // 2],
        "len_p90": lengths[int(n * 0.9)],
        "len_p99": lengths[int(n * 0.99)],
        "len_max": lengths[-1],
    }


def _density(sentences: Sequence[Sentence]) -> Dict[str, float]:
    tokens = sum(len(s.rows) for s in sentences)
    polar = sum(1 for s in sentences for r in s.rows if r[1] in POLAR_LEMMAS)
    shift = sum(1 for s in sentences for r in s.rows if r[1] in SHIFTER_LEMMAS)
    ranges = sum(len(s.ranges) for s in sentences)
    return {
        "sentiment_per_token": round(polar / tokens, 4),
        "shifters_per_token": round(shift / tokens, 4),
        "multiword_ranges": ranges,
    }


def _write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate the inputs of one workload into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if name in ("analyze", "explain-2w"):
        pr = REVIEW if name == "analyze" else SHIFTER_DENSE
        corpus = make_corpus(pr, seed, name)
        src = _write(out_dir / f"{name}.conllu", "".join(conllu_block(s) for s in corpus))
        empty = _write(out_dir / "empty.conllu", "")
        if name == "analyze":
            args, explain, workers = ["analyze", "--workers", "1"], False, 1
        else:
            args, explain, workers = ["analyze", "--explain", "--workers", "2"], True, 2
        cmd = Command(name, args, src, empty, "jsonl",
                      explain=explain, workers=workers)
        props = {**_length_stats(corpus), **_density(corpus)}
        return Workload(name, seed, WHY[name], [cmd], {name: [s.sent_id for s in corpus]},
                        properties=props)
    if name == "decode":
        rng = random.Random(f"decode-damage:{seed}")
        base = make_corpus(TAGGER, seed, "tag")
        empty = _write(out_dir / "empty.bridge", "")
        wl = Workload(name, seed, WHY[name], [], {})
        nonproj = set()
        for s in base:
            if rng.random() < NONPROJECTIVE_SHARE:
                nonproj.add(s.sent_id)
        kinds: Dict[str, int] = {}
        for scheme in SCHEMES:
            lines = []
            heads_out = []
            damaged = set()
            for s in base:
                if scheme != "brackets" and s.sent_id in nonproj:
                    s = Sentence(s.sent_id, [r[:] for r in s.rows], s.ranges)
                    make_nonprojective(s, rng)
                upos = [r[2] for r in s.rows]
                labels = labels_for(s.heads, upos, scheme)
                if rng.random() < CORRUPT_SHARE:
                    kind = corrupt(s.heads, upos, labels, scheme, rng)
                    kinds[kind] = kinds.get(kind, 0) + 1
                    damaged.add(s.sent_id)
                lines.append(bridge_line(s, labels, scheme))
                heads_out.append(s.heads)
            src = _write(out_dir / f"decode.{scheme}.bridge", "".join(lines))
            cname = f"decode.{scheme}"
            wl.commands.append(Command(cname, ["decode", "--scheme", scheme],
                                       src, empty, "conllu", scheme=scheme))
            wl.sent_ids[cname] = [s.sent_id for s in base]
            wl.gold_heads[cname] = heads_out
            wl.corrupted[cname] = damaged
        wl.properties = {
            **_length_stats(base), **_density(base),
            "corrupted_share": CORRUPT_SHARE,
            "corrupted_per_scheme": {c.name: len(wl.corrupted[c.name]) for c in wl.commands},
            "corruption_kinds": dict(sorted(kinds.items())),
            "nonprojective_share": {
                name: round(sum(map(crossing, wl.gold_heads[name])) / len(base), 4)
                for name in ("decode.rel-offset", "decode.rel-pos")},
        }
        return wl
    if name == "encode":
        corpus = make_corpus(TREEBANK, seed, "bank")
        src = _write(out_dir / "encode.conllu", "".join(conllu_block(s) for s in corpus))
        empty = _write(out_dir / "empty.conllu", "")
        wl = Workload(name, seed, WHY[name], [], {})
        for scheme in SCHEMES:
            cname = f"encode.{scheme}"
            wl.commands.append(Command(cname, ["encode", "--scheme", scheme],
                                       src, empty, "bridge", scheme=scheme))
            wl.sent_ids[cname] = [s.sent_id for s in corpus]
            wl.gold_heads[cname] = [s.heads for s in corpus]
        wl.properties = {**_length_stats(corpus), **_density(corpus), "nonprojective_share": 0.0}
        return wl
    raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
