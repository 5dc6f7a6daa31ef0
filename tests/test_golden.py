"""Command output pinned to stored copies.

Every case runs one command through ``main()`` at ``--workers 1`` and
``--workers 2`` and compares its output file, stderr and exit code with
the copy in ``tests/golden``. Outputs on the demo data are stored whole;
outputs on the generated 300-sentence corpora are stored as sha256
digests. The analyze, explain and aspects cases run twice: with the demo
lexicon, and with ``golden/lexicon.tsv`` under the ``golden/domain.tsv``
overlay, whose unfiltered entries the demo lexicon lacks. A change that
alters any output byte fails here, so output stays byte-identical across
refactors unless a change means to alter it.

To rewrite the stored copies after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from treesent import demo_treebank_path, demo_ud_path
from treesent.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
SCHEMES = ("rel-offset", "rel-pos", "brackets")
ANALYZE_MODES = {
    "analyze": ("analyze",),
    "explain": ("analyze", "--explain"),
    "baseline": ("analyze", "--baseline"),
    "aspects": ("aspects",),
}
# the same commands with a lexicon that has unfiltered entries, under a domain overlay
LEXICON_MODES = {
    f"lexicon.{mode}": (*ANALYZE_MODES[mode], "--lexicon", str(GOLDEN / "lexicon.tsv"),
                        "--domain-lexicon", str(GOLDEN / "domain.tsv"))
    for mode in ("analyze", "explain", "aspects")
}
GEN = ("gen", "--sentences", "300", "--seed", "0")
GENERATED = ("gen.conllu", *(f"gen.{scheme}.bridge" for scheme in SCHEMES))


def _cases():
    """``(name, argv, input)`` per case, every decode case after the encodes."""
    cases, decodes = [], []
    for data in ("demo_reviews", "demo_ud", "gen"):
        conllu = f"{data}.conllu"
        for mode, argv in {**ANALYZE_MODES, **LEXICON_MODES}.items():
            cases.append((f"{data}.{mode}", argv, conllu))
        for scheme in SCHEMES:
            cases.append((f"{data}.encode.{scheme}", ("encode", "--scheme", scheme), conllu))
            bridge = f"{data}.{scheme}.bridge"
            decodes.append((f"{data}.decode.{scheme}", ("decode", "--scheme", scheme), bridge))
    return cases + decodes


CASES = _cases()


def _make_inputs(work):
    """Input path per name: the demo files, the stored bridge lines that
    encode wrote for them, and the corpora ``treesent gen`` writes."""
    paths = {
        "demo_reviews.conllu": demo_treebank_path(),
        "demo_ud.conllu": demo_ud_path(),
        "gen.conllu": work / "gen.conllu",
    }
    assert main([*GEN, "--format", "conllu", "-o", str(paths["gen.conllu"])]) == 0
    for scheme in SCHEMES:
        for data in ("demo_reviews", "demo_ud"):
            paths[f"{data}.{scheme}.bridge"] = GOLDEN / f"{data}.encode.{scheme}.out"
        bridge = paths[f"gen.{scheme}.bridge"] = work / f"gen.{scheme}.bridge"
        assert main([*GEN, "--format", "bridge", "--scheme", scheme, "-o", str(bridge)]) == 0
    return paths


def _run(argv, source, workers, out):
    """Exit code, output bytes and stderr of one command."""
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with redirect_stderr(err):
        code = main([*argv, "--workers", workers, "-i", str(source), "-o", str(out)])
    return code, out.read_bytes() if out.exists() else b"", err.getvalue()


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _make_inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_generated_corpora_are_pinned(inputs, manifest):
    for name in GENERATED:
        assert _digest(inputs[name]) == manifest["inputs"][name], name


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name, argv, source", CASES, ids=[case[0] for case in CASES])
def test_command_output_equals_the_stored_copy(
    name, argv, source, workers, inputs, manifest, tmp_path
):
    entry = manifest["cases"][name]
    code, stdout, stderr = _run(argv, inputs[source], workers, tmp_path / "out")
    assert (code, stderr) == (entry["exit"], entry["stderr"])
    if "stdout" in entry:
        assert stdout == (GOLDEN / entry["stdout"]).read_bytes()
    else:
        assert hashlib.sha256(stdout).hexdigest() == entry["sha256"]


def _write_golden():
    """Run every case at both worker counts and store what it wrote."""
    GOLDEN.mkdir(exist_ok=True)
    manifest = {"inputs": {}, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = _make_inputs(work)
        manifest["inputs"] = {name: _digest(paths[name]) for name in GENERATED}
        for name, argv, source in CASES:
            first, second = (_run(argv, paths[source], w, work / "out") for w in "12")
            assert first == second, f"{name}: worker counts disagree"
            code, stdout, stderr = first
            entry = manifest["cases"][name] = {"exit": code, "stderr": stderr}
            if name.startswith("gen."):
                entry["sha256"] = hashlib.sha256(stdout).hexdigest()
            else:
                entry["stdout"] = f"{name}.out"
                (GOLDEN / entry["stdout"]).write_bytes(stdout)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
