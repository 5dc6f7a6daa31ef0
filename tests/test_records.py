"""The records the package builds: repr, equality, hashing, pickling and
immutability, pinned field by field.

Each entry builds a record twice from equal fields and once with one field
changed. The expected texts are the ones these classes have printed since
they were written, so a change to how a record is declared shows here as a
change of behaviour.
"""

import copy
import json
import pickle
from collections import Counter

import pytest

from treesent import cli
from treesent.cli import PipelineConfig
from treesent.conllu import ReadStats
from treesent.encodings import (
    BridgeStats,
    DecodeResult,
    LabelSeq,
    RepairStats,
    Scheme,
    SyntaxLabel,
)
from treesent.lexicon import LexEntry, PolarityLexicon, Shifter, ShifterInventory
from treesent.rules import RuleConfig, SentimentResult, TargetOpinion, TraceStep, _Composition
from treesent.tree import DepTree, Token


def _tree(sentence_id="s1"):
    return DepTree.build([2, 0], deprels=["advmod", "root"], forms=["very", "good"],
                         upos=["ADV", "ADJ"], sentence_id=sentence_id)


TREE_REPR = ("DepTree(forms=('very', 'good'), lemmas=('very', 'good'), upos=('ADV', 'ADJ'), "
             "heads=(2, 0), deprels=('advmod', 'root'), sentence_id='s1', metadata={})")


def _labels(offset=1):
    return LabelSeq((SyntaxLabel(Scheme.REL_OFFSET, offset, "advmod"),
                     SyntaxLabel(Scheme.REL_OFFSET, 0, "root")), Scheme.REL_OFFSET)


def _shifters(intensity=0.5):
    return ShifterInventory({"not"}, {"very": intensity}, {"but"})


SHIFTERS_REPR = ("ShifterInventory(negators=frozenset({'not'}), intensifiers={'very': 0.5}, "
                 "adversatives=frozenset({'but'}))")


def _opinion(valence=1.5):
    return TargetOpinion((2,), "good", valence, "positive", (1,))


OPINION_REPR = ("TargetOpinion(target_token_ids=(2,), target_text='good', valence=1.5, "
                "opinion_class='positive', evidence_token_ids=(1,))")


# (id, factory of one record from a field value, the value, another value,
#  the field names in order, repr of factory(value), hash error or None,
#  whether the record refuses assignment)
RECORDS = [
    ("Token", lambda head: Token(1, "good", "good", "ADJ", head, "root"), 0, 2,
     ("id", "form", "lemma", "upos", "head", "deprel"),
     "Token(id=1, form='good', lemma='good', upos='ADJ', head=0, deprel='root')", None, True),
    ("DepTree", _tree, "s1", "s2",
     ("forms", "lemmas", "upos", "heads", "deprels", "sentence_id", "metadata"),
     TREE_REPR, "unhashable type: 'dict'", True),
    ("ReadStats", lambda skipped: ReadStats(3, skipped, 1, 0, Counter(bad=skipped)), 2, 1,
     ("sentences", "skipped", "dropped_ranges", "dropped_empty_nodes", "skipped_by"),
     "ReadStats(sentences=3, skipped=2, dropped_ranges=1, dropped_empty_nodes=0, "
     "skipped_by=Counter({'bad': 2}))", "unhashable type: 'ReadStats'", False),
    ("SyntaxLabel", lambda k: SyntaxLabel(Scheme.REL_POS, ("NOUN", k), "nsubj"), 1, -1,
     ("scheme", "payload", "deprel"),
     "SyntaxLabel(scheme=<Scheme.REL_POS: 'rel-pos'>, payload=('NOUN', 1), deprel='nsubj')",
     None, True),
    ("LabelSeq", _labels, 1, 2, ("labels", "scheme"),
     "LabelSeq(labels=(SyntaxLabel(scheme=<Scheme.REL_OFFSET: 'rel-offset'>, payload=1, "
     "deprel='advmod'), SyntaxLabel(scheme=<Scheme.REL_OFFSET: 'rel-offset'>, payload=0, "
     "deprel='root')), scheme=<Scheme.REL_OFFSET: 'rel-offset'>)",
     None, True),
    ("RepairStats", lambda cycles: RepairStats(1, 2, 0, cycles), 3, 4,
     ("out_of_range", "extra_roots", "missing_root", "cycles_broken"),
     "RepairStats(out_of_range=1, extra_roots=2, missing_root=0, cycles_broken=3)", None, True),
    ("DecodeResult", lambda cycles: DecodeResult(_tree(), RepairStats(cycles_broken=cycles)),
     1, 0, ("tree", "repairs"),
     f"DecodeResult(tree={TREE_REPR}, repairs=RepairStats(out_of_range=0, extra_roots=0, "
     "missing_root=0, cycles_broken=1))", "unhashable type: 'dict'", True),
    ("BridgeStats", lambda skipped: BridgeStats(5, skipped, RepairStats(missing_root=1)), 1, 0,
     ("records", "skipped", "repairs"),
     "BridgeStats(records=5, skipped=1, repairs=RepairStats(out_of_range=0, extra_roots=0, "
     "missing_root=1, cycles_broken=0))", "unhashable type: 'BridgeStats'", False),
    ("PipelineConfig", lambda workers: PipelineConfig(input="in.conllu", workers=workers), 1, 2,
     ("language", "lexicon", "domain_lexicon", "rules", "scheme", "input", "output",
      "on_error", "workers", "seed"),
     "PipelineConfig(language='en', lexicon=None, domain_lexicon=None, rules=None, "
     "scheme=<Scheme.REL_OFFSET: 'rel-offset'>, input='in.conllu', output=None, "
     "on_error='abort', workers=1, seed=0)", None, True),
    ("LexEntry", lambda valence: LexEntry("good", None, valence), 1.5, -1.5,
     ("term", "upos_filter", "valence"),
     "LexEntry(term='good', upos_filter=None, valence=1.5)", None, True),
    ("Shifter", lambda strength: Shifter("intensifier", strength), 0.5, None,
     ("kind", "strength"), "Shifter(kind='intensifier', strength=0.5)", None, True),
    ("ShifterInventory", _shifters, 0.5, 0.25, ("negators", "intensifiers", "adversatives"),
     SHIFTERS_REPR, "unhashable type: 'dict'", True),
    ("PolarityLexicon",
     lambda language: PolarityLexicon(({("good", None): 1.5},), _shifters(), language,
                                      {("at", "all"): "at_all"}),
     "en", "es", ("layers", "shifters", "language", "collocations"),
     f"PolarityLexicon(layers=({{('good', None): 1.5}},), shifters={SHIFTERS_REPR}, "
     "language='en', collocations={('at', 'all'): 'at_all'})", "unhashable type: 'dict'", True),
    ("RuleConfig", lambda cap: RuleConfig(negation_cap=cap), 5, 3,
     ("negation_shift", "negation_cap", "adversative_weights", "neutral_threshold"),
     "RuleConfig(negation_shift=4.0, negation_cap=5.0, adversative_weights=(0.5, 1.5), "
     "neutral_threshold=0.5)", None, True),
    ("TraceStep", lambda after: TraceStep(2, "LEXICON", 0.0, after, "good"), 1.5, 2.0,
     ("token_id", "rule", "before", "after", "note"),
     "TraceStep(token_id=2, rule='LEXICON', before=0.0, after=1.5, note='good')", None, True),
    ("TargetOpinion", _opinion, 1.5, 2.5,
     ("target_token_ids", "target_text", "valence", "opinion_class", "evidence_token_ids"),
     OPINION_REPR, None, True),
    ("SentimentResult",
     lambda valence: SentimentResult(valence, "positive", [_opinion()],
                                     [TraceStep(2, "LEXICON", 0.0, 1.5)]),
     1.5, 2.5, ("sentence_valence", "sentence_class", "opinions", "trace"),
     f"SentimentResult(sentence_valence=1.5, sentence_class='positive', opinions=("
     f"{OPINION_REPR},), trace=(TraceStep(token_id=2, rule='LEXICON', before=0.0, after=1.5, "
     "note=''),))", None, True),
    ("_Composition", lambda valence: _Composition(valence, None, [0.0, valence], ["good"]),
     1.5, 0.5, ("valence", "trace", "contribution", "lemmas"),
     "_Composition(valence=1.5, trace=None, contribution=[0.0, 1.5], lemmas=['good'])",
     "unhashable type: 'list'", True),
]

TUPLES = {"Token", "SyntaxLabel", "DecodeResult", "LexEntry", "Shifter", "TraceStep",
          "_Composition"}


@pytest.mark.parametrize(
    "name, make, value, other, fields, text, hash_error, frozen", RECORDS,
    ids=[record[0] for record in RECORDS],
)
def test_a_record_prints_compares_hashes_and_pickles_as_declared(
    name, make, value, other, fields, text, hash_error, frozen
):
    record, twin, different = make(value), make(value), make(other)
    assert type(record).__name__ == name
    assert repr(record) == text
    values = tuple(getattr(record, field) for field in fields)

    assert record == twin and not record != twin
    assert record != different and not record == different
    # a named tuple equals the plain tuple of its fields; the other records equal nothing else
    assert (record == values) is (name in TUPLES)

    if hash_error is None:
        assert hash(record) == hash(twin) == hash(values)
    else:
        with pytest.raises(TypeError, match=hash_error):
            hash(record)

    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and repr(back) == text

    if frozen:
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(different, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert record == twin
    else:
        setattr(record, fields[1], getattr(different, fields[1]))
        assert record != twin


# The seven named tuples: the class, its fields by keyword and the defaults
# of its trailing fields. They behave as ``collections.namedtuple`` classes.
ROWS = [
    (Token, {"id": 1, "form": "good", "lemma": "good", "upos": "ADJ", "head": 0,
             "deprel": "root"}, {}),
    (SyntaxLabel, {"scheme": Scheme.REL_POS, "payload": ("NOUN", 1), "deprel": "nsubj"}, {}),
    (DecodeResult, {"tree": _tree(), "repairs": RepairStats(cycles_broken=1)}, {}),
    (LexEntry, {"term": "good", "upos_filter": "ADJ", "valence": 1.5}, {}),
    (Shifter, {"kind": "intensifier", "strength": 0.5}, {"strength": None}),
    (TraceStep, {"token_id": 2, "rule": "NEGATE", "before": 1.5, "after": -2.5, "note": "not"},
     {"note": ""}),
    (_Composition, {"valence": 1.5, "trace": [TraceStep(2, "LEXICON", 0.0, 1.5)],
                    "contribution": [0.0, 1.5], "lemmas": ["good"]}, {}),
]
ROW_IDS = [cls.__name__ for cls, _, _ in ROWS]


@pytest.mark.parametrize("cls, fields, defaults", ROWS, ids=ROW_IDS)
def test_a_named_tuple_is_the_tuple_of_its_fields_however_it_is_built(cls, fields, defaults):
    row = cls(**fields)
    values = tuple(fields.values())
    assert isinstance(row, tuple) and type(row) is cls
    assert tuple(row) == values and row == cls(*values) and len(row) == len(fields)
    assert cls._fields == tuple(fields) == cls.__match_args__
    assert [getattr(row, name) for name in fields] == list(values)
    assert not hasattr(row, "__dict__")
    assert cls._field_defaults == defaults
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**required) == (*required.values(), *defaults.values())
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, fields, defaults", ROWS, ids=ROW_IDS)
def test_a_named_tuple_makes_replaces_and_lists_its_fields(cls, fields, defaults):
    row = cls(**fields)
    made = cls._make(iter(fields.values()))
    assert type(made) is cls and made == row
    with pytest.raises(TypeError, match=f"Expected {len(fields)} arguments, got 1"):
        cls._make(["only one"])
    last = cls._fields[-1]
    replaced = row._replace(**{last: "changed"})
    assert type(replaced) is cls and replaced == (*tuple(row)[:-1], "changed")
    assert row == cls(**fields)  # the original is left as it was
    with pytest.raises(ValueError, match=r"Got unexpected field names: \['nope'\]"):
        row._replace(nope=1)
    listed = row._asdict()
    assert type(listed) is dict and listed == fields and list(listed) == list(fields)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls, fields, defaults", ROWS, ids=ROW_IDS)
def test_a_named_tuple_pickles_and_copies_as_itself(cls, fields, defaults, protocol):
    row = cls(**fields)
    for back in (pickle.loads(pickle.dumps(row, protocol)), copy.copy(row), copy.deepcopy(row)):
        assert type(back) is cls and back == row and repr(back) == repr(row)


def test_a_trace_step_is_written_as_a_json_array():
    step = TraceStep(2, "NEGATE", 1.5, -2.5, "not")
    record = {"trace": [step, TraceStep(1, "LEXICON", 0.0, 1.5)]}
    text = '{"trace": [[2, "NEGATE", 1.5, -2.5, "not"], [1, "LEXICON", 0.0, 1.5, ""]]}'
    assert cli._record_encoder()(record) == json.dumps(record) == text


def test_a_scheme_pickled_from_the_encodings_module_loads_as_the_member():
    # how a pickle of Scheme.REL_POS names its class, at protocol 0
    old = b"ctreesent.encodings\nScheme\n(Vrel-pos\ntR."
    assert pickle.loads(old) is Scheme.REL_POS


# a fresh interpreter whose _collections lacks _tuplegetter, as some
# interpreters' do: the rows read their fields through properties instead
NO_TUPLEGETTER_RUN = """
import copy, pickle, sys, types
import _collections
stub = types.ModuleType("_collections")
stub.deque = _collections.deque
sys.modules["_collections"] = stub
from treesent.rules import TraceStep
step = TraceStep(2, "NEGATE", 1.5, -2.5)
assert (step.rule, step.note, step._replace(note="x").note) == ("NEGATE", "", "x")
assert pickle.loads(pickle.dumps(step)) == copy.copy(step) == step
assert type(TraceStep.note) is property and TraceStep.note.__doc__ == "Alias for field number 4"
print(repr(step))
"""


def test_the_named_tuples_work_without_the_c_field_getter():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import treesent

    src = Path(treesent.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", NO_TUPLEGETTER_RUN], check=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.stdout == "TraceStep(token_id=2, rule='NEGATE', before=1.5, after=-2.5, note='')\n"
