"""What importing treesent and starting a command load.

``import treesent`` resolves its public names lazily. The command line
imports the evaluation and benchmark modules only for the commands that
use them, the lexicon, rules and demo-data modules only for the commands
that score, ``json`` only for eval and bench, which print their reports
with it, and none of ``concurrent.futures``, ``multiprocessing``, ``pickle``
and ``signal`` even when it forks a pool, which uses the C module
``_signal``. The pool's chunks and results cross as ``marshal`` data, and
its parent splits each chunk into sentences without a regex and sends those,
so a pooled analyze, encode or decode loads neither ``_pickle`` nor ``re``
either, and a pooled bench, whose workers inherit its lexicon, no
``_pickle``. Nothing else crosses: a chunk that fails in a worker, whose
exception ``marshal`` cannot write, runs again in the parent, so a run
that fails there loads no ``_pickle`` either. The pool reads and writes
blocking pipes a chunk at a time, so no run loads ``select``. None of analyze,
aspects, encode and decode loads the standard modules that cost the most
to import and that they can do without, argparse among them: the command
line is read from a table of flags. None of them loads ``json``, ``re``, ``enum``, ``functools``,
``contextlib``, ``importlib``, ``types`` or ``collections``: records go
straight through the C encoder of ``_json``, ``Scheme`` is a plain class,
the CoNLL-U reader and the bridge writer test their text with string
methods, the package resolves its public names with ``__import__``, its
named tuples are built on ``tuple`` and the pool takes ``deque`` from
``_collections``; the one regex a brackets reader needs imports ``re`` when
it reads its first field. analyze and aspects do not load the encodings
either: ``Scheme``, which the command line reads for ``--scheme``, lives in
``treesent.tree``. The start-up checks run in a fresh interpreter, since
this test process has imported everything already.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import treesent
from treesent import demo_gold_path, demo_treebank_path, demo_ud_path

SRC = Path(treesent.__file__).resolve().parents[1]

# modules that analyze, encode and decode never call
UNUSED_BY_THE_HOT_COMMANDS = (
    # eval's and bench's reports; records are written by the C module _json
    "json",
    "concurrent.futures",
    "multiprocessing",
    # nor does the forked pool load these: it uses blocking pipes, marshal
    # and the C core _signal
    "select",
    "pickle",
    "signal",
    "importlib.resources",
    "treesent.bench",
    "treesent.evaluation",
    "treesent.opinions",
    # each of these costs from 5 to 30 ms to import in a fresh interpreter
    "dataclasses",
    "inspect",
    "typing",
    "pathlib",
    "random",
    # argparse, and what its help and error messages import
    "argparse",
    "gettext",
    "shutil",
    "locale",
)


def _fresh_python(code, *args):
    """Run ``code`` in a new ``python -S`` on this checkout; its stdout as JSON."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_import_treesent_loads_no_submodule():
    loaded = _fresh_python(
        "import json, sys, treesent; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('treesent.'))))"
    )
    assert loaded == []


def test_the_scheme_enum_loads_neither_the_encodings_nor_the_conllu_reader():
    loaded = _fresh_python(
        "import json, sys, treesent; treesent.Scheme; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('treesent.'))))"
    )
    assert loaded == ["treesent.tree"]


CLI_RUN = """
import sys
reviews, ud, out, watched = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
import treesent.cli
after_import = [m for m in watched if m in sys.modules]
codes = [
    treesent.cli.main(["analyze", "--workers", "1", "-i", reviews, "-o", out + "/a.jsonl"]),
    treesent.cli.main(["encode", "-i", ud, "-o", out + "/u.bridge"]),
    treesent.cli.main(["decode", "-i", out + "/u.bridge", "-o", out + "/u.conllu"]),
]
after_run = [m for m in watched if m in sys.modules]
import json
print(json.dumps({"codes": codes, "after_import": after_import, "after_run": after_run}))
"""


def test_analyze_encode_decode_leave_eval_bench_and_the_pool_unloaded(tmp_path):
    seen = _fresh_python(
        CLI_RUN, demo_treebank_path(), demo_ud_path(), tmp_path, *UNUSED_BY_THE_HOT_COMMANDS
    )
    assert seen == {"codes": [0, 0, 0], "after_import": [], "after_run": []}
    assert (tmp_path / "u.conllu").stat().st_size > 0


POOL_RUN = """
import sys
corpus, out, chunk_bytes, watched = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
from treesent import conllu
import treesent.cli
conllu.CHUNK_BYTES = chunk_bytes
chunks = sum(1 for _ in conllu._cuts(corpus, conllu._block_end))
codes = [treesent.cli.main([*argv, "--workers", "2", "-i", source, "-o", f"{out}/{name}.2"])
         for name, argv, source in [("analyze", ["analyze"], corpus),
                                    ("explain", ["analyze", "--explain"], corpus),
                                    ("encode", ["encode"], corpus),
                                    ("decode", ["decode"], f"{out}/encode.2")]]
loaded = [m for m in watched if m in sys.modules]
# runs that fail on a record in a chunk a worker holds: that chunk runs again
# in this process, so no exception crosses the pool
failed = [treesent.cli.main([command, "--workers", "2", "-i", f"{out}/{source}",
                             "-o", f"{out}/{source}.2"])
          for command, source in [("analyze", "bad.conllu"), ("decode", "bad.bridge")]]
failed_loaded = [m for m in watched if m in sys.modules]
# bench imports json and random, and so copyreg, but its workers inherit the
# lexicon, so its chunks and results cross the pool as marshal data too
failed.append(treesent.cli.main(["bench", "--warmup", "0", "--workers", "2",
                                 "-i", f"{out}/bad.bridge", "-o", f"{out}/bad.json"]))
codes.append(treesent.cli.main(["bench", "--sentences", "200", "--workers", "2",
                                "-o", f"{out}/bench.json"]))
bench_loaded = [m for m in ("_pickle", "select") if m in sys.modules]
import json
print(json.dumps({"chunks": chunks, "codes": codes, "loaded": loaded, "failed": failed,
                  "failed_loaded": failed_loaded, "bench_loaded": bench_loaded}))
"""

# what the pool would import if its messages were pickles, not marshal data
PICKLE_MODULES = ("_pickle", "copyreg")


def test_the_pool_loads_neither_concurrent_futures_nor_multiprocessing(tmp_path):
    # nor re and what it imports: the parent splits each chunk into the
    # sentences it sends without a regex
    from treesent.cli import main

    corpus = tmp_path / "pool.conllu"
    assert main(["gen", "--sentences", "200", "--length", "6", "--format", "conllu",
                 "-o", str(corpus)]) == 0
    # a bad head in sentence 150 and a bad bridge line 150 of 200, past the
    # first chunk, which runs in this process
    data = corpus.read_bytes().split(b"\n\n")
    data[149] = data[149].replace(b"\t0\troot", b"\tx\troot")
    (tmp_path / "bad.conllu").write_bytes(b"\n\n".join(data))
    assert main(["encode", "-i", str(corpus), "-o", str(tmp_path / "bad.bridge")]) == 0
    lines = (tmp_path / "bad.bridge").read_bytes().splitlines(keepends=True)
    lines[149] = b"a\tno/fields\n"
    (tmp_path / "bad.bridge").write_bytes(b"".join(lines))
    watched = ("concurrent.futures", "multiprocessing", "pickle", "signal", "select",
               *UNUSED_BY_THE_LEAN_COMMANDS, *PICKLE_MODULES)
    seen = _fresh_python(POOL_RUN, corpus, tmp_path, 4096, *watched)
    assert seen["chunks"] >= 3
    assert (seen["codes"], seen["loaded"], seen["bench_loaded"]) == ([0] * 5, [], [])
    assert (seen["failed"], seen["failed_loaded"]) == ([1] * 3, [])
    for source, command in [("bad.conllu", "analyze"), ("bad.bridge", "decode")]:
        one = tmp_path / f"{source}.1"
        assert main([command, "-i", str(tmp_path / source), "-o", str(one)]) == 1
        assert (tmp_path / f"{source}.2").read_bytes() == one.read_bytes()
    assert json.loads((tmp_path / "bench.json").read_text())["workers"] == 2
    for name, argv in [("analyze", ["analyze"]), ("explain", ["analyze", "--explain"]),
                       ("encode", ["encode"])]:
        one = tmp_path / f"{name}.1"
        assert main([*argv, "-i", str(corpus), "-o", str(one)]) == 0
        assert (tmp_path / f"{name}.2").read_bytes() == one.read_bytes()
    assert len((tmp_path / "analyze.2").read_text().splitlines()) == 200
    assert (tmp_path / "encode.2").stat().st_size > 3 * 4096  # decode's pool runs too
    assert (tmp_path / "decode.2").read_bytes() == corpus.read_bytes()


# modules that only the scoring commands (analyze, aspects, eval, bench, gen) call
SCORING_MODULES = ("treesent.lexicon", "treesent.rules", "treesent.assets")

ENCODE_DECODE_RUN = """
import sys
source, out, watched = sys.argv[1], sys.argv[2], sys.argv[3:]
import treesent.cli
codes = []
for scheme in ("rel-offset", "rel-pos", "brackets"):
    bridge = f"{out}/{scheme}.bridge"
    codes.append(treesent.cli.main(["encode", "--scheme", scheme, "-i", source, "-o", bridge]))
    codes.append(treesent.cli.main(["decode", "--scheme", scheme, "-i", bridge,
                                    "-o", f"{out}/{scheme}.conllu"]))
loaded = [m for m in watched if m in sys.modules]
import json
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_encode_and_decode_leave_the_scoring_modules_unloaded(tmp_path):
    seen = _fresh_python(
        ENCODE_DECODE_RUN, demo_ud_path(), tmp_path,
        *SCORING_MODULES, *UNUSED_BY_THE_HOT_COMMANDS,
    )
    assert seen == {"codes": [0] * 6, "loaded": []}
    assert (tmp_path / "brackets.conllu").read_bytes() == demo_ud_path().read_bytes()


# what ``re`` imports, with ``contextlib`` and ``importlib``: each of encode,
# decode, analyze and aspects loads none of them, but a brackets reader,
# which imports ``re`` when it reads its first field
UNUSED_BY_THE_LEAN_COMMANDS = ("re", "enum", "functools", "contextlib", "importlib", "types",
                               "collections")

ONE_COMMAND_RUN = """
import sys
watched, argv = sys.argv[1].split(","), sys.argv[2:]
import treesent.cli
from treesent import encodings

parse_field, before_first_field = encodings._parse_field, []


def first_field_watched(*args):
    if not before_first_field:
        before_first_field.append([m for m in watched if m in sys.modules])
    return parse_field(*args)


encodings._parse_field = first_field_watched
code = treesent.cli.main(argv)
loaded = [m for m in watched if m in sys.modules]
import json
print(json.dumps({"code": code, "before_first_field": before_first_field, "loaded": loaded}))
"""


def _one_command(tmp_path, command, scheme):
    """What a fresh interpreter loads to run one command on the demo data."""
    from treesent.cli import main

    source = demo_ud_path()
    if command == "decode":
        source = tmp_path / f"{scheme}.bridge"
        assert main(["encode", "--scheme", scheme, "-i", str(demo_ud_path()),
                     "-o", str(source)]) == 0
    out = tmp_path / f"{command}.{scheme}.out"
    seen = _fresh_python(ONE_COMMAND_RUN, ",".join(UNUSED_BY_THE_LEAN_COMMANDS), command,
                         "--scheme", scheme, "-i", source, "-o", out)
    if command == "decode":
        assert out.read_bytes() == demo_ud_path().read_bytes()
    return seen


@pytest.mark.parametrize("command, scheme", [
    ("encode", "rel-offset"), ("encode", "rel-pos"), ("encode", "brackets"),
    ("decode", "rel-offset"), ("decode", "rel-pos"),
])
def test_encode_and_decode_load_neither_re_nor_what_it_imports(tmp_path, command, scheme):
    seen = _one_command(tmp_path, command, scheme)
    assert (seen["code"], seen["loaded"]) == (0, [])


# one command in a fresh interpreter that imports no more of treesent than the
# command does, as ONE_COMMAND_RUN imports the encodings
BARE_RUN = """
import sys
watched, argv = sys.argv[1].split(","), sys.argv[2:]
import treesent.cli
code = treesent.cli.main(argv)
loaded = [m for m in watched if m in sys.modules]
import json
print(json.dumps({"code": code, "loaded": loaded}))
"""


@pytest.mark.parametrize("argv", [
    ("analyze",), ("aspects",), ("analyze", "--explain"), ("analyze", "--baseline"),
], ids=["analyze", "aspects", "explain", "baseline"])
def test_the_scoring_commands_load_neither_json_nor_re(tmp_path, argv):
    # nor the encodings; the demo reviews are one chunk, which no pool worker runs
    out = tmp_path / "out.jsonl"
    watched = ("json", "treesent.encodings", *UNUSED_BY_THE_LEAN_COMMANDS)
    seen = _fresh_python(BARE_RUN, ",".join(watched), *argv, "-i", demo_treebank_path(), "-o", out)
    assert seen == {"code": 0, "loaded": []}
    assert len(out.read_text().splitlines()) == 3


def test_a_brackets_decode_loads_re_only_once_it_reads_a_field(tmp_path):
    seen = _one_command(tmp_path, "decode", "brackets")
    assert (seen["code"], seen["before_first_field"]) == (0, [[]])
    assert "re" in seen["loaded"]


def test_every_public_name_is_its_modules_object():
    exports = treesent._EXPORTS
    assert treesent.__all__ == [*exports, "__version__"]
    for name, module in exports.items():
        assert getattr(treesent, name) is getattr(import_module(f"treesent.{module}"), name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from treesent import *", namespace)
    assert set(treesent.__all__) <= set(namespace)
    assert set(treesent.__all__) <= set(dir(treesent))


def test_unknown_and_removed_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        treesent.no_such_name
    for removed in ("write_tagger_output", "classify_sentence", "score_target"):
        with pytest.raises(AttributeError, match=removed):
            getattr(treesent, removed)
    with pytest.raises(ImportError):
        exec("from treesent import no_such_name", {})


@pytest.mark.parametrize(
    "getter, name",
    [
        (demo_treebank_path, "demo_reviews.conllu"),
        (demo_ud_path, "demo_ud.conllu"),
        (demo_gold_path, "demo_reviews.gold.jsonl"),
    ],
)
def test_demo_paths_are_the_package_data_files(getter, name):
    from importlib import resources

    path = getter()
    assert path == resources.files("treesent") / "data" / name
    assert isinstance(path, Path) and path.is_file()
