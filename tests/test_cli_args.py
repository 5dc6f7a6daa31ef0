"""How ``main`` reads its command line: each case is run through ``main``
with the command itself replaced by a recorder, so only the reading of
``argv`` and the merging of settings are tested. The cases are the
behaviours of an ``argparse`` command line that scripts may rely on."""

import sys

import pytest

from treesent import Scheme, __version__, cli
from treesent.cli import PipelineConfig, main

SETTINGS = PipelineConfig._fields
COMMON = dict.fromkeys(("config", *SETTINGS))
DEFAULTS = {
    "analyze": {**COMMON, "explain": False, "baseline": False},
    "aspects": COMMON,
    "encode": COMMON,
    "decode": COMMON,
    "eval": {**COMMON, "pred": None, "gold": None, "pred_parse": None},
    "bench": {**COMMON, "sentences": 10_000, "length": 20, "warmup": 50},
    "gen": {**COMMON, "sentences": 1000, "length": 20, "format": "bridge"},
}
COMMON_FLAGS = ("--config", "--language", "--lexicon", "--domain-lexicon", "--rules", "--scheme",
                "-i", "--input", "-o", "--output", "--on-error", "--workers", "--seed")
FLAGS = {
    "analyze": ("--explain", "--baseline"),
    "aspects": (),
    "encode": (),
    "decode": (),
    "eval": ("--pred", "--gold", "--pred-parse"),
    "bench": ("--sentences", "--length", "--warmup"),
    "gen": ("--sentences", "--length", "--format"),
}


@pytest.fixture
def recorded(monkeypatch):
    """The (settings, arguments) each ``main`` call hands to the command."""
    calls = []

    def record(cfg, args):
        calls.append((cfg, vars(args)))
        return 0

    monkeypatch.setattr(cli, "_run", record)
    return calls


ACCEPTED = [
    (["analyze"], {}),
    (["analyze", "--input", "a"], {"input": "a"}),
    (["analyze", "--input=a"], {"input": "a"}),
    (["analyze", "-ia"], {"input": "a"}),
    (["analyze", "-i=a"], {"input": "a"}),
    (["analyze", "-io"], {"input": "o"}),
    (["analyze", "--input="], {"input": ""}),
    (["analyze", "--in=a=b"], {"input": "a=b"}),
    (["analyze", "--input", "a b"], {"input": "a b"}),
    (["analyze", "--work", "2"], {"workers": 2}),
    (["analyze", "--ex"], {"explain": True}),
    (["analyze", "--on", "skip"], {"on_error": "skip"}),
    (["analyze", "--on-error=skip"], {"on_error": "skip"}),
    (["analyze", "--workers", "2", "--workers", "3"], {"workers": 3}),
    (["analyze", "-ix", "--in", "y", "--i", "z"], {"input": "z"}),
    (["analyze", "--explain", "--explain", "--baseline"], {"explain": True, "baseline": True}),
    (["analyze", "-i", "-"], {"input": "-"}),
    (["analyze", "-o", "-"], {"output": "-"}),
    (["analyze", "-i", "-1", "-o", "-2.5"], {"input": "-1", "output": "-2.5"}),
    (["analyze", "--seed", "-3"], {"seed": -3}),
    (["analyze", "--seed", "+3"], {"seed": 3}),
    (["analyze", "--workers", " 4 "], {"workers": 4}),
    (["analyze", "--workers", "1_0"], {"workers": 10}),
    (["analyze", "--workers", "٣"], {"workers": 3}),  # ARABIC-INDIC DIGIT THREE
    (["analyze", "--domain-lexicon", "d", "--language", "de"],
     {"domain_lexicon": "d", "language": "de"}),
    (["encode", "--scheme", "brackets", "-o", "out"], {"scheme": "brackets", "output": "out"}),
    (["decode", "--sch=rel-pos", "--rules", "r"], {"scheme": "rel-pos", "rules": "r"}),
    (["aspects", "--lexicon", "lex.tsv"], {"lexicon": "lex.tsv"}),
    (["eval", "--pred", "p", "--gold", "g"], {"pred": "p", "gold": "g"}),
    (["eval", "--gold", "g", "--pred-p", "x", "--pred", "p"],
     {"pred": "p", "gold": "g", "pred_parse": "x"}),
    (["bench", "--sentences", "5", "--warm", "0", "--workers", "2"],
     {"sentences": 5, "warmup": 0, "workers": 2}),
    (["gen", "--format=conllu", "--sentences", "-5", "--len", "3"],
     {"format": "conllu", "sentences": -5, "length": 3}),
]


@pytest.mark.parametrize("argv, given", ACCEPTED, ids=[" ".join(a) for a, _ in ACCEPTED])
def test_a_valid_command_line_gives_its_settings(recorded, argv, given):
    assert main(argv) == 0
    [(cfg, args)] = recorded
    command = argv[0]
    assert args == {"command": command, **DEFAULTS[command], **given}
    settings = {key: given[key] for key in SETTINGS if key in given}
    if "scheme" in settings:
        settings["scheme"] = Scheme.parse(settings["scheme"])
    assert cfg == PipelineConfig(**settings)


TOP = "treesent: error: "
AN = "treesent analyze: error: "
REFUSED = [
    ([], TOP + "the following arguments are required: command"),
    (["--bogus"], TOP + "the following arguments are required: command"),
    (["anal"], TOP + "argument command: invalid choice: 'anal' (choose from 'analyze', "
     "'aspects', 'encode', 'decode', 'eval', 'bench', 'gen')"),
    (["--workers", "2", "analyze"], TOP + "argument command: invalid choice: '2' (choose from "
     "'analyze', 'aspects', 'encode', 'decode', 'eval', 'bench', 'gen')"),
    (["--explain", "analyze"], TOP + "unrecognized arguments: --explain"),
    (["analyze", "--bogus"], TOP + "unrecognized arguments: --bogus"),
    (["analyze", "-x", "pos", "-"], TOP + "unrecognized arguments: -x pos -"),
    (["analyze", "--domain_lexicon", "d"], TOP + "unrecognized arguments: --domain_lexicon d"),
    (["aspects", "--explain"], TOP + "unrecognized arguments: --explain"),
    (["analyze", "--version"], TOP + "unrecognized arguments: --version"),
    (["analyze", "--"], TOP + "unrecognized arguments: --"),
    (["analyze", "--l", "x"], AN + "ambiguous option: --l could match --language, --lexicon"),
    (["gen", "--le", "3"],
     "treesent gen: error: ambiguous option: --le could match --lexicon, --length"),
    (["bench", "--w", "3"],
     "treesent bench: error: ambiguous option: --w could match --workers, --warmup"),
    (["analyze", "--input", "-x"], AN + "argument -i/--input: expected one argument"),
    (["analyze", "--input", "-1x"], AN + "argument -i/--input: expected one argument"),
    (["analyze", "--input", "--"], AN + "argument -i/--input: expected one argument"),
    (["analyze", "-o"], AN + "argument -o/--output: expected one argument"),
    (["analyze", "--workers"], AN + "argument --workers: expected one argument"),
    (["analyze", "--seed", "-1e3"], AN + "argument --seed: expected one argument"),
    (["analyze", "--workers", "x"], AN + "argument --workers: invalid int value: 'x'"),
    (["analyze", "--workers", "2.0"], AN + "argument --workers: invalid int value: '2.0'"),
    (["analyze", "--workers", ""], AN + "argument --workers: invalid int value: ''"),
    (["analyze", "--seed", "0x10"], AN + "argument --seed: invalid int value: '0x10'"),
    (["analyze", "--explain=1"], AN + "argument --explain: ignored explicit argument '1'"),
    (["analyze", "--on-error", "x"],
     AN + "argument --on-error: invalid choice: 'x' (choose from 'skip', 'abort')"),
    (["analyze", "--on-e", "sk"],
     AN + "argument --on-error: invalid choice: 'sk' (choose from 'skip', 'abort')"),
    (["gen", "--format", "x"], "treesent gen: error: argument --format: invalid choice: 'x' "
     "(choose from 'bridge', 'conllu')"),
    (["eval"], "treesent eval: error: the following arguments are required: --pred, --gold"),
    (["eval", "--pred", "p", "--bogus"],
     "treesent eval: error: the following arguments are required: --gold"),
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(a) or "empty" for a, _ in REFUSED])
def test_a_usage_error_exits_2_with_the_usage_and_the_error(recorded, capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2 and recorded == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: treesent")
    assert err.splitlines()[-1] == message


def test_version_prints_the_version_and_exits_0(recorded, capsys):
    for argv in (["--version"], ["--vers"], ["--version", "analyze"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr() == (f"treesent {__version__}\n", "")
    assert recorded == []


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_command(recorded, capsys, flag):
    with pytest.raises(SystemExit) as info:
        main([flag])
    assert info.value.code == 0 and recorded == []
    out, err = capsys.readouterr()
    assert out.startswith("usage: treesent") and err == ""
    assert all(command in out for command in FLAGS)
    assert "--version" in out


@pytest.mark.parametrize("command", FLAGS)
def test_a_commands_help_names_every_flag_it_takes(recorded, capsys, command):
    # help is printed where it is read, before the flags after it are checked
    for argv in ([command, "--help"], [command, "-h", "--bogus", "--workers"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0 and recorded == []
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: treesent {command}") and err == ""
        words = out.replace(",", " ").split()
        assert all(flag in words for flag in ("-h", "--help", *COMMON_FLAGS, *FLAGS[command]))


def test_main_without_arguments_reads_sys_argv(recorded, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["treesent", "encode", "--seed", "5"])
    assert main() == 0
    [(cfg, args)] = recorded
    assert args == {"command": "encode", **DEFAULTS["encode"], "seed": 5}
    assert cfg == PipelineConfig(seed=5)
