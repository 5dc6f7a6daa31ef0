"""What importing treesent and starting a command load.

``import treesent`` resolves its public names lazily, and the command line
imports the evaluation, benchmark and process-pool modules only for the
commands that use them, the lexicon, rules and demo-data modules only for
the commands that score, and ``json`` only for the commands that write it.
None of analyze, aspects, encode and decode loads the standard modules that
cost the most to import and that they can do without. The start-up checks
run in a fresh interpreter, since this test process has imported
everything already.
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
    "concurrent.futures",
    "multiprocessing",
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
        *SCORING_MODULES, "json", *UNUSED_BY_THE_HOT_COMMANDS,
    )
    assert seen == {"codes": [0] * 6, "loaded": []}
    assert (tmp_path / "brackets.conllu").read_bytes() == demo_ud_path().read_bytes()


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
