"""Command line front end.

Subcommands:
  analyze  CoNLL-U in, one JSON record per sentence out
  aspects  like analyze but records carry only the target opinions
  encode   CoNLL-U to tagger-bridge lines for the chosen scheme
  decode   tagger-bridge lines back to CoNLL-U (repair stats on stderr)
  eval     predictions + gold JSON-lines to a metrics report
  bench    throughput benchmark over a synthetic or file corpus
  gen      write a synthetic corpus (bridge lines or CoNLL-U)

Settings resolve in three layers: built-in defaults, then a key=value
config file (--config), then explicit flags. Lexicon paths that do not
exist as given are retried under $TREESENT_LEXICON_DIR ($SALSA_LEXICON_DIR,
its former name, is still read when the new one is unset, for one more
release). Exit codes: 0 on success, 1 for data errors under the abort
policy, 2 for config and usage errors, an input or settings file that
cannot be read and a worker process that cannot start, 130 when
interrupted (Ctrl-C).

analyze, aspects, encode and decode stream their input in byte chunks of
whole records, cut at blank lines (at any newline for decode's bridge
lines). The first read is of 4 KiB and each later one twice the last, up
to 64 KiB, so the first records come soon. A chunk's records are written
and flushed when the chunk is done. With --workers N and input of more
than 64 KiB, the command runs the first chunk itself and writes its
records, then forks up to N workers, one as each of the next N chunks is
sent, each fed chunks down a pipe, and writes their records in input
order, byte-identical to one worker; past the first chunk this process
only cuts the input, counts the lines and sentences that number each
chunk, and writes. A run that does not fork numbers each chunk from the
blocks it split. Without os.fork the command runs in one process.

The command line is read from one table of commands and flags
(``_COMMANDS``), without argparse, and encode and decode import neither
``re`` nor ``enum``, ``functools``, ``contextlib``, ``importlib`` and
``types``. In a fresh ``python -S`` with the bytecode cached (CPython 3.11,
2-CPU x86-64, medians of 50 runs) they start and end on an empty input in
about 10 ms, against 15 ms when they imported those modules and 5.7 ms for
an empty interpreter.
"""

from __future__ import annotations

import io
import os
import sys
from collections import deque
from itertools import chain

from . import __version__, conllu
from .conllu import (
    _ON_ERROR,
    UNREADABLE,
    ReadStats,
    _Skip,
    chunk_blocks,
    chunk_lines,
    format_sentence,
    parse_blocks,
    read_conllu,
    settings_lines,
)
from .encodings import (
    BridgeStats,
    NonProjectiveError,
    Scheme,
    UnreadableFieldError,
    _parse_tagger_lines,
    encode,
    format_tagger_line,
)
from .tree import ConfigError, DataError, DepTree, _Record

# The lexicon, rules, assets, json, evaluation, bench and pool (select and
# the C modules _pickle and _signal) modules are imported where they are
# used: encode and decode start without any of them, analyze without the
# last three.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import (
        IO, Callable, Deque, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence,
        Tuple,
    )

    from .conllu import Source
    from .lexicon import PolarityLexicon
    from .rules import RuleConfig
    from .tree import _Tally

    # a run's work on the blocks or numbered lines of a chunk, given as
    # ``job(blocks, stats)``: ``parse_blocks`` with the run's ``on_error`` and ``line``
    Job = Callable[..., Iterator[str]]

LEXICON_DIR_ENV = "TREESENT_LEXICON_DIR"
# the former name, read only when LEXICON_DIR_ENV is unset; to be removed
FORMER_LEXICON_DIR_ENV = "SALSA_LEXICON_DIR"


# Each setting every command takes: its default, the type its flag reads
# (str, int or the tuple of values it may take), how a config file's text
# becomes its value, and its help line. A config file and the command line
# set the same keys.
_SETTINGS = {
    "language": ("en", str, str, "lexicon language code (default en)"),
    "lexicon": (None, str, str, "base lexicon TSV (default: built-in demo)"),
    "domain_lexicon": (None, str, str, "overlay lexicon TSV"),
    "rules": (None, str, str, "rule engine key=value config file"),
    "scheme": (Scheme.REL_OFFSET, str, Scheme.parse,
               "label scheme: rel-offset, rel-pos, or brackets"),
    "input": (None, str, str, "input path (default: stdin)"),
    "output": (None, str, str, "output path (default: stdout)"),
    "on_error": ("abort", _ON_ERROR, str, "bad-sentence policy (default abort)"),
    "workers": (1, int, int, "parallel worker count"),
    "seed": (0, int, int, "random seed for synthetic data"),
}


class PipelineConfig(_Record, frozen=True):
    """Resolved settings shared by every subcommand, one field per ``_SETTINGS`` row."""

    _fields = tuple(_SETTINGS)

    def __init__(self, **given) -> None:
        unknown = sorted(given.keys() - _SETTINGS.keys())
        if unknown:
            raise TypeError(f"PipelineConfig got an unexpected keyword argument {unknown[0]!r}")
        values = {key: given.get(key, row[0]) for key, row in _SETTINGS.items()}
        if values["workers"] < 1:
            raise ConfigError(f"worker count must be >= 1, got {values['workers']}")
        if values["on_error"] not in _ON_ERROR:
            raise ConfigError(f"on_error must be 'skip' or 'abort', got {values['on_error']!r}")
        self.__dict__.update(values)

    def load_lexicon(self) -> PolarityLexicon:
        from .assets import demo_lexicon
        from .lexicon import LexiconError, load_lexicon

        try:
            if self.lexicon is None:
                lexicon = demo_lexicon(self.language)
            else:
                lexicon = load_lexicon(_find_lexicon(self.lexicon), language=self.language)
            if self.domain_lexicon is not None:
                overlay = load_lexicon(
                    _find_lexicon(self.domain_lexicon), language=self.language
                )
                lexicon = lexicon.overlay(overlay)
            return lexicon
        except LexiconError as exc:
            raise ConfigError(f"lexicon: {exc}") from None

    def load_rules(self) -> RuleConfig:
        from .rules import RuleConfig, RuleError

        if self.rules is None:
            return RuleConfig()
        try:
            return RuleConfig.from_file(_file_to_read(self.rules, "rule config file"))
        except RuleError as exc:
            raise ConfigError(f"rule config: {exc}") from None


def _file_to_read(path: str, what: str) -> str:
    """``path``, when something that is not a directory is there: a regular
    file, or a named pipe or device such as ``/dev/stdin``. It is not opened
    here, so that a pipe is read once, by the one reader that opens it."""
    if os.path.isdir(path):
        raise ConfigError(f"{what} is a directory: {path}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _find_lexicon(path: str) -> str:
    search_dir = os.environ.get(LEXICON_DIR_ENV, os.environ.get(FORMER_LEXICON_DIR_ENV))
    if search_dir and not os.path.exists(path):
        fallback = os.path.join(search_dir, path)
        if not os.path.exists(fallback):
            raise ConfigError(f"lexicon file not found: {path} (also tried {fallback})")
        path = fallback
    return _file_to_read(path, "lexicon file")


def _read_config_file(path: str) -> Dict[str, object]:
    values: Dict[str, object] = {}
    lines = settings_lines(_file_to_read(path, "config file"),
                           lambda message, lineno: ConfigError(f"{path}:{lineno}: {message}"))
    for lineno, key, value in lines:
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _SETTINGS[key][2](value)
            PipelineConfig(**{key: values[key]})  # the field's own checks, while its line is known
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return values


def _build_config(args: _Args) -> PipelineConfig:
    """defaults, then config file entries, then explicit flags."""
    merged = _read_config_file(args.config) if getattr(args, "config", None) else {}
    try:
        for key, row in _SETTINGS.items():
            flag = getattr(args, key, None)
            if flag is not None:
                merged[key] = row[2](flag)
    except ValueError as exc:  # --scheme; _read_argv has checked the others
        raise ConfigError(str(exc)) from None
    return PipelineConfig(**merged)


def _same_file(first: str, second: str) -> bool:
    try:
        return os.path.samefile(first, second)
    except OSError:  # either one missing
        return False


class _Stdout:
    """``sys.stdout`` as a context manager that leaves it open."""

    def __enter__(self) -> IO[str]:
        return sys.stdout

    def __exit__(self, *exc_info) -> None:
        return None


def _open_output(cfg: PipelineConfig) -> _Stdout | IO[str]:
    """The output as a context manager: the ``-o`` file, closed on leaving it,
    or stdout."""
    if cfg.output is None:
        return _Stdout()
    # the input is read lazily, so truncating it first would lose it
    if cfg.input is not None and _same_file(cfg.output, cfg.input):
        raise ConfigError(f"output file {cfg.output} is the input file {cfg.input}")
    try:
        return open(cfg.output, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {cfg.output}: {exc.strerror}") from None


def _input_source(cfg: PipelineConfig):
    if cfg.input is None:
        # bytes, so that a line that is not UTF-8 fails as data, with its line
        # number; a stdin that is only a text stream is read whole and encoded
        # back, so that text decoded from bytes that were not UTF-8 stays so
        stdin = getattr(sys.stdin, "buffer", None)
        if stdin is None:
            stdin = io.BytesIO(sys.stdin.read().encode("utf-8", "surrogatepass"))
        return stdin
    return _file_to_read(cfg.input, "input file")


# ------------------------------------------------- analyze, aspects, encode
# A run turns each valid CoNLL-U tree into one output line with a function
# made once per run, a closure over what the command loaded, so that a
# sentence imports nothing; pool workers inherit it through the fork. The
# run's job is ``parse_blocks`` with that function as its ``line``, which
# raises ``_Skip`` for a tree that has no output line.


# encode's skip reasons by error type, in the order their tallies are printed
_ENCODE_SKIPS = {
    NonProjectiveError: "non-projective sentences",
    ValueError: "sentences with whitespace inside a field",
    UnreadableFieldError: "sentences with a field that would read back wrong",
}


def _opinions(result) -> list:
    return [
        {
            "target": [op.target_token_ids[0], op.target_token_ids[-1]],
            "text": op.target_text,
            "polarity": op.opinion_class,
            "valence": op.valence,
            "evidence": op.evidence_token_ids,
        }
        for op in result.opinions
    ]


def _scored(tree: DepTree, result) -> dict:
    return {
        "sent_id": tree.sentence_id,
        "class": result.sentence_class,
        "valence": result.sentence_valence,
        "opinions": _opinions(result),
    }


def _json_line(
    to_json: Callable[[dict], str], record: Callable[[DepTree], dict], tree: DepTree
) -> str:
    fields = record(tree)
    try:
        return to_json(fields) + "\n"
    except ValueError:  # an overflowed score
        raise _Skip("score is not a finite number", UNREADABLE) from None


def _bridge_line(scheme: Scheme, tree: DepTree) -> str:
    try:
        return format_tagger_line(tree, encode(tree, scheme)) + "\n"
    except ValueError as exc:  # crossing arcs, or a field the line cannot carry
        reason = _ENCODE_SKIPS.get(type(exc), _ENCODE_SKIPS[ValueError])
        raise _Skip(str(exc), reason) from None


class _Worker:
    """A forked pool process: its pid, the pipe its chunks go down and the
    pipe its results come up, with the bytes and results still in transit."""

    __slots__ = ("pid", "send", "recv", "outbox", "inbox", "results", "ended")

    def __init__(self, pid: int, send: int, recv: int) -> None:
        self.pid, self.send, self.recv = pid, send, recv
        self.outbox, self.inbox = bytearray(), bytearray()
        self.results: Deque[tuple] = deque()
        self.ended = False  # its result pipe is closed


def _frame(data: bytes) -> bytes:
    return len(data).to_bytes(8, "little") + data


def _serve(fn: Callable, requests: int, results: int) -> None:
    """A worker's loop: ``fn`` of each chunk pickled down ``requests``,
    until it closes, with ``(True, result)`` or ``(False, exception)``
    pickled back up ``results``."""
    import _pickle as pickle

    with open(requests, "rb") as source, open(results, "wb") as sink:
        while True:
            head = source.read(8)
            if len(head) < 8:
                return
            chunk = pickle.loads(source.read(int.from_bytes(head, "little")))
            try:
                reply = True, fn(chunk)
            except Exception as exc:
                reply = False, exc
            try:
                data = pickle.dumps(reply, -1)
            except Exception as exc:  # a result or an exception that does not pickle
                data = pickle.dumps((False, RuntimeError(f"worker result: {exc!r}")))
            sink.write(_frame(data))
            sink.flush()


def _fork_worker(fn: Callable, number: int) -> _Worker:
    import _signal as signal

    ends: List[int] = []
    try:
        ends += os.pipe()
        ends += os.pipe()
        pid = os.fork()
    except OSError as exc:  # out of processes or descriptors
        for fd in ends:
            os.close(fd)
        raise OSError(f"cannot start worker process {number}: {exc}") from None
    requests, send, recv, results = ends
    if pid == 0:  # the worker: it never returns into the caller's stack
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
            # every descriptor but its own pipe ends, so that it holds no other pipe open
            low, high = sorted((requests, results))
            os.closerange(3, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            _serve(fn, requests, results)
            code = 0
        finally:
            os._exit(code)
    os.close(requests)
    os.close(results)
    os.set_blocking(send, False)
    return _Worker(pid, send, recv)


def _ended(worker: _Worker) -> DataError:
    _, status = os.waitpid(worker.pid, 0)
    worker.pid = 0
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return DataError(f"a worker process ended before sending its result ({how})")


def _map_chunks(fn: Callable, chunks: Iterable, workers: int) -> Iterator:
    """``fn`` over ``chunks`` in ``workers`` forked processes, results in submission order.

    Chunk k goes to worker k mod ``workers``, pickled down its request pipe;
    the result comes back up its result pipe, each as a length-prefixed
    pickle. Worker k is forked when chunk k is sent, so that a short input
    starts no idle worker. ``fn`` is inherited through the fork, never
    pickled. At most ``2 * workers`` chunks are in flight, so memory stays
    bounded however long the input is. An exception ``fn`` raises is raised
    here with its own type; a worker that dies first is a ``DataError`` naming
    its exit status. However the generator ends, every worker has been reaped
    when it does. Without ``os.fork``, ``fn`` runs in this process.
    """
    if not hasattr(os, "fork"):
        yield from map(fn, chunks)
        return
    import _pickle as pickle  # -1 is its highest protocol
    import _signal as signal
    import select

    pool: List[_Worker] = []
    owner: Dict[int, _Worker] = {}
    poll = select.poll()
    finished = False
    try:
        in_flight: Deque[_Worker] = deque()
        todo: Optional[Iterator] = iter(chunks)
        sent = 0
        while True:
            while todo is not None and len(in_flight) < 2 * workers:
                try:
                    chunk = next(todo)
                except StopIteration:
                    todo = None
                    break
                if len(pool) < workers:  # worker k is forked when chunk k is sent
                    pool.append(_fork_worker(fn, len(pool) + 1))
                    owner[pool[-1].recv] = pool[-1]
                    poll.register(pool[-1].recv, select.POLLIN)
                w = pool[sent % workers]
                sent += 1
                if not w.outbox and not w.ended:
                    owner[w.send] = w
                    poll.register(w.send, select.POLLOUT)
                w.outbox += _frame(pickle.dumps(chunk, -1))
                in_flight.append(w)
            if not in_flight:
                break
            head = in_flight[0]
            if head.results:
                in_flight.popleft()
                ok, value = head.results.popleft()
                if not ok:
                    raise value
                yield value
                continue
            if head.ended:
                raise _ended(head)
            for fd, _ in poll.poll():
                w = owner[fd]
                if fd == w.send:
                    try:
                        with memoryview(w.outbox) as pending:
                            written = os.write(fd, pending)
                    except BlockingIOError:
                        continue
                    except BrokenPipeError:  # the worker is gone; its result pipe says so
                        written = len(w.outbox)
                    del w.outbox[:written]
                    if not w.outbox:
                        poll.unregister(fd)
                    continue
                data = os.read(fd, 1 << 16)
                if not data:
                    w.ended = True
                    poll.unregister(fd)
                    continue
                w.inbox += data
                while len(w.inbox) >= 8:
                    end = 8 + int.from_bytes(w.inbox[:8], "little")
                    if len(w.inbox) < end:
                        break
                    w.results.append(pickle.loads(w.inbox[8:end]))
                    del w.inbox[:end]
        finished = True
    finally:
        for w in pool:
            os.close(w.send)  # the worker's end of input: it exits once idle
            os.close(w.recv)
        for w in pool:
            if w.pid:
                if not finished:
                    os.kill(w.pid, signal.SIGKILL)
                os.waitpid(w.pid, 0)


def _run_chunk(
    job: Job, split: Callable, tally: type, chunk
) -> Tuple[str, _Tally, Optional[Exception]]:
    """Pool task: the output lines of ``job`` over ``split(chunk)`` as one
    text, the chunk's tallies, and the exception that ended it, if one did.

    Lines before a bad record, or before a fault of the program, are
    returned with its exception, so the parent writes exactly what a single
    process would before it stops.
    """
    stats, lines = tally(), []
    try:
        for line in job(split(chunk), stats=stats):
            lines.append(line)
    except Exception as exc:
        return "".join(lines), stats, exc
    return "".join(lines), stats, None


def _parent_first(run: Callable, chunks: Iterator, workers: int) -> Iterator:
    """``run`` of the first chunk in this process, then of the others in the
    pool, which is started only once the first chunk's result is taken."""
    yield run(next(chunks))
    yield from _map_chunks(run, chunks, workers)


def _write_records(job: Job, source: Source, workers: int, stats: _Tally, out: IO[str],
                   lines: bool = False) -> None:
    """Run ``job`` over the records of byte ``source`` a chunk at a time, and
    write and flush each chunk's lines to ``out`` as the chunk is done.

    ``source`` is CoNLL-U, its chunks split into blocks, or with ``lines``
    bridge lines, its chunks split into numbered lines; ``stats`` sums the
    tallies of each chunk, which ``job`` fills in a new ``type(stats)``.
    With one worker, or input of at most ``CHUNK_BYTES``, everything runs in
    this process, each chunk numbered from the blocks split before it.
    Otherwise the first chunk, of about ``FIRST_CHUNK_BYTES``, runs in this
    process and is written before the pool starts, so that the pool's
    imports and forks come after the first records and an error in the
    first chunk forks nothing. Past it this process only cuts, counts and
    writes; the chunks go to the pool and finished lines come back.
    """
    cuts = conllu._cuts(source, conllu._line_end if lines else conllu._block_end)
    head: List[bytes] = []
    size = 0
    # the look-ahead holds a slow pipe's first records back until CHUNK_BYTES or
    # its end has come; it stays, as a pool for an input that fits made such
    # runs slower, and running chunks here while it reads slowed the pool
    if workers > 1:
        for data in cuts:
            head.append(data)
            size += len(data)
            if size > conllu.CHUNK_BYTES:
                break
    chained = chain(head, cuts)
    pooled = size > conllu.CHUNK_BYTES
    if lines:
        chunks, split = conllu._line_numbered(chained), chunk_lines
    elif pooled:  # the pool parses its chunks, so this process counts their sentences
        chunks, split = conllu._numbered(chained), chunk_blocks
    else:
        chunks, split = conllu._split_chunks(chained), iter
    tally = type(stats)

    def run(chunk) -> Tuple[str, _Tally, Optional[Exception]]:
        return _run_chunk(job, split, tally, chunk)

    results = _parent_first(run, chunks, workers) if pooled else (run(chunk) for chunk in chunks)
    try:
        for text, counts, error in results:
            out.write(text)
            out.flush()
            stats.add(counts)
            if error is not None:
                raise error
    finally:
        # however the run ends, closing ``results`` reaps a pool's workers
        # and closing ``cuts`` the input file it reads
        try:
            results.close()
        finally:
            cuts.close()


def _run_job(cfg: PipelineConfig, line: Callable[[DepTree], str]) -> int:
    """Write ``line`` of each sentence of the input, then the skip tallies."""
    stats = ReadStats()
    source = _input_source(cfg)
    with _open_output(cfg) as out:
        def job(blocks: Iterable, stats: ReadStats) -> Iterator[str]:
            return parse_blocks(blocks, cfg.on_error, stats, line)

        _write_records(job, source, cfg.workers, stats, out)
    for reason in (UNREADABLE, *_ENCODE_SKIPS.values()):
        if stats.skipped_by[reason]:
            print(f"skipped {stats.skipped_by[reason]} {reason}", file=sys.stderr)
    return 0


def cmd_analyze(cfg: PipelineConfig, args: _Args) -> int:
    from json import JSONEncoder

    from .rules import analyze, baseline_wordcount

    lexicon, rules_cfg = cfg.load_lexicon(), cfg.load_rules()
    if args.command == "aspects":
        def record(tree: DepTree) -> dict:
            result = analyze(tree, lexicon, rules_cfg, trace=False)
            return {"sent_id": tree.sentence_id, "opinions": _opinions(result)}
    elif args.baseline:
        def record(tree: DepTree) -> dict:
            valence, label = baseline_wordcount(tree, lexicon, rules_cfg)
            return {"sent_id": tree.sentence_id, "class": label, "valence": valence,
                    "baseline": True}
    elif args.explain:
        def record(tree: DepTree) -> dict:
            result = analyze(tree, lexicon, rules_cfg, trace=True)
            # TraceStep tuples encode as the JSON arrays [token_id, rule, before, after, note]
            return {**_scored(tree, result), "trace": result.trace}
    else:
        def record(tree: DepTree) -> dict:
            return _scored(tree, analyze(tree, lexicon, rules_cfg, trace=False))
    to_json = JSONEncoder(ensure_ascii=False, allow_nan=False).encode
    return _run_job(cfg, lambda tree: _json_line(to_json, record, tree))


def cmd_encode(cfg: PipelineConfig) -> int:
    scheme = cfg.scheme
    return _run_job(cfg, lambda tree: _bridge_line(scheme, tree))


# ------------------------------------------------------------------- decode


def _with_sent_id_comment(tree: DepTree) -> DepTree:
    """The same valid tree, sharing its columns, with its id as the only comment."""
    return DepTree._trusted(
        tree.forms, tree.lemmas, tree.upos, tree.heads, tree.deprels,
        tree.sentence_id, {"sent_id": tree.sentence_id},
    )


def _decoded(scheme: Scheme, abort: bool, numbered: Iterable, stats: BridgeStats
             ) -> Iterator[str]:
    """The CoNLL-U block of each record of ``(lineno, bridge line)`` pairs."""
    for _, result in _parse_tagger_lines(numbered, scheme, abort, stats):
        yield format_sentence(_with_sent_id_comment(result.tree)) + "\n\n"


def cmd_decode(cfg: PipelineConfig) -> int:
    stats = BridgeStats()
    source = _input_source(cfg)  # before the output is opened, which empties it
    scheme, abort = cfg.scheme, cfg.on_error == "abort"
    with _open_output(cfg) as out:
        def job(numbered: Iterable, stats: BridgeStats) -> Iterator[str]:
            return _decoded(scheme, abort, numbered, stats)

        _write_records(job, source, cfg.workers, stats, out, lines=True)
    repairs = stats.repairs
    print(
        f"decoded {stats.records} sentences, repairs total={repairs.total} "
        f"(out_of_range={repairs.out_of_range}, extra_roots={repairs.extra_roots}, "
        f"missing_root={repairs.missing_root}, cycles_broken={repairs.cycles_broken}), "
        f"skipped={stats.skipped}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------- eval


def cmd_eval(cfg: PipelineConfig, args: _Args) -> int:
    import json

    from .evaluation import (
        EvalError,
        MetricsReport,
        conversion_coverage,
        eval_parse,
        eval_sentences,
        eval_targets,
        load_gold,
        load_predictions,
    )

    for path in (args.pred, args.gold):
        _file_to_read(path, "file")
    gold_records = list(load_gold(args.gold))
    preds = load_predictions(args.pred)

    def joined(layer: str, predicted: Dict[str, object], what: str) -> Tuple[list, list]:
        """Each ``predicted[sent_id]`` that is not None, with the gold ``layer`` it is
        scored against; a gold record with that layer and no prediction stops an abort run."""
        found, gold = [], []
        for record in gold_records:
            if getattr(record, layer) is None:
                continue
            if predicted.get(record.sentence_id) is not None:
                found.append(predicted[record.sentence_id])
                gold.append(getattr(record, layer))
            elif cfg.on_error == "abort":
                raise EvalError(f"{what} for {record.sentence_id!r}")
        return found, gold

    classes = {sid: entry["class"] for sid, entry in preds.items()}
    pred_labels, gold_labels = joined("gold_class", classes, "no predicted class")
    sentence_metrics = eval_sentences(pred_labels, gold_labels) if gold_labels else None

    gold_sets = {
        record.sentence_id: record.gold_opinions
        for record in gold_records
        if record.gold_opinions is not None
    }
    targets_exact = targets_overlap = None
    if gold_sets:
        items = {sid: entry["items"] for sid, entry in preds.items()}
        found, opinion_sets = joined("gold_opinions", items, "no prediction record")
        pred_map = {gold.sentence_id: payload for payload, gold in zip(found, opinion_sets)}
        targets_exact = eval_targets(pred_map, gold_sets, mode="exact")
        targets_overlap = eval_targets(pred_map, gold_sets, mode="overlap")

    parse_metrics = None
    if getattr(args, "pred_parse", None):
        if all(record.parse is None for record in gold_records):
            raise EvalError("gold file has no parses to score against")
        by_id = {
            tree.sentence_id: tree
            for tree in read_conllu(_file_to_read(args.pred_parse, "file"), on_error="abort")
        }
        pred_trees, gold_trees = joined("parse", by_id, "no predicted parse")
        if not gold_trees:  # under skip, every gold parse went without its prediction
            raise EvalError(f"{args.pred_parse} has no parse of a sentence the gold file parses")
        parse_metrics = eval_parse(pred_trees, gold_trees)

    report = MetricsReport(
        sentences=len(gold_records),
        opinions=sum(len(s.opinions) for s in gold_sets.values()),
        conversion_coverage=conversion_coverage(gold_sets.values()),
        sentence=sentence_metrics,
        targets_exact=targets_exact,
        targets_overlap=targets_overlap,
        parse=parse_metrics,
    )
    with _open_output(cfg) as out:
        out.write(
            json.dumps(report.to_dict(), ensure_ascii=False, indent=2, allow_nan=False) + "\n"
        )
    return 0


# ----------------------------------------------------------------- bench/gen


def cmd_bench(cfg: PipelineConfig, args: _Args) -> int:
    import json
    import warnings

    from .bench import run_bench, synthetic_corpus

    lexicon = cfg.load_lexicon()
    rules_cfg = cfg.load_rules()
    if cfg.input is not None:
        source = _input_source(cfg)
    else:
        source = list(synthetic_corpus(args.sentences, args.length, lexicon, seed=cfg.seed,
                                       scheme=cfg.scheme))
    # run_bench warns a library caller of a small corpus; a user of the
    # command gets one plain line on stderr, also when the run then fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            report = run_bench(
                source,
                lexicon,
                rules_cfg,
                scheme=cfg.scheme,
                workers=cfg.workers,
                warmup=args.warmup,
            )
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    with _open_output(cfg) as out:
        out.write(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
    return 0


def cmd_gen(cfg: PipelineConfig, args: _Args) -> int:
    from .bench import synthetic_corpus, synthetic_trees

    lexicon = cfg.load_lexicon()
    # both generators check their arguments when called, so bad ones
    # raise before the output is opened and leave an -o file as it was
    if args.format == "bridge":
        lines = synthetic_corpus(args.sentences, args.length, lexicon, seed=cfg.seed,
                                 scheme=cfg.scheme)
        records = (line + "\n" for line in lines)
    else:
        trees = synthetic_trees(args.sentences, args.length, lexicon, seed=cfg.seed)
        records = (format_sentence(_with_sent_id_comment(tree)) + "\n\n" for tree in trees)
    with _open_output(cfg) as out:
        out.writelines(records)
    return 0


# ------------------------------------------------------------- command line
# The command line is read from one table, without argparse: its import and
# its seven subparsers took a third of a command's start-up. A flag
# is (type, default, required, help): the type is str, int, a tuple of the
# values it may take, or bool for a switch that takes no value. Its key is
# the attribute it sets; its long form is the key with "-" for "_".

_ABOUT = ("Sentiment analysis over dependency trees, plus the label encodings\n"
          "that let a tagger produce those trees.")
# the flags every command takes: --config, then one for each setting
_COMMON_FLAGS = {
    "config": (str, None, False, "key=value settings file"),
    **{key: (kind, None, False, text) for key, (_, kind, _, text) in _SETTINGS.items()},
}
_SHORT_FLAGS = {"input": "-i", "output": "-o"}
# each command: its help line and the flags it takes besides the common ones
_COMMANDS = {
    "analyze": ("score sentences from CoNLL-U", {
        "explain": (bool, False, False, "include rule traces"),
        "baseline": (bool, False, False, "syntax-free word-count scoring"),
    }),
    "aspects": ("emit only per-target opinions", {}),
    "encode": ("CoNLL-U to tagger bridge lines", {}),
    "decode": ("tagger bridge lines to CoNLL-U", {}),
    "eval": ("score predictions against gold", {
        "pred": (str, None, True, "predictions JSON-lines file"),
        "gold": (str, None, True, "gold JSON-lines file"),
        "pred_parse": (str, None, False, "predicted parses (CoNLL-U) for UAS/LAS"),
    }),
    "bench": ("throughput benchmark", {
        "sentences": (int, 10_000, False, "synthetic corpus size"),
        "length": (int, 20, False, "synthetic sentence length"),
        "warmup": (int, 50, False, "untimed warmup sentences"),
    }),
    "gen": ("write a synthetic corpus", {
        "sentences": (int, 1000, False, "corpus size"),
        "length": (int, 20, False, "sentence length"),
        "format": (("bridge", "conllu"), "bridge", False, "output format"),
    }),
}
_TOP_FLAGS = {"version": (bool, False, False, "print the version and exit")}
# a word that looks like a negative number is a value, as argparse has it
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class _Args:
    """The command named on the command line and the value of each flag it takes."""

    def __init__(self, **values) -> None:
        self.__dict__.update(values)


def _flags(command: Optional[str]) -> Dict[str, tuple]:
    """The flags ``command`` takes; None for those before the command."""
    return _TOP_FLAGS if command is None else {**_COMMON_FLAGS, **_COMMANDS[command][1]}


def _long(key: str) -> str:
    return "--" + key.replace("_", "-")


def _option_names(flags: Dict[str, tuple]) -> Dict[str, str]:
    """Each option string, -h and --help first, and the key of the flag it names."""
    names = {"-h": "help", "--help": "help"}
    for key in flags:
        if key in _SHORT_FLAGS:
            names[_SHORT_FLAGS[key]] = key
        names[_long(key)] = key
    return names


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: treesent [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    required = "".join(f" {_long(key)} {key.upper()}"
                       for key, flag in _flags(command).items() if flag[2])
    return f"usage: treesent {command} [-h]{required} [options]"


def _help(command: Optional[str]) -> str:
    flags = _flags(command)
    names = _option_names(flags)
    rows = [("-h, --help", "show this help and exit")]
    for key, (kind, default, _, text) in flags.items():
        shown = ", ".join(name for name, named in names.items() if named == key)
        if kind is not bool:
            shown += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else key.upper())
        rows.append((shown, f"{text} (default {default})" if default else text))
    sections = {"options": rows}
    if command is None:
        sections = {"commands": [(name, entry[0]) for name, entry in _COMMANDS.items()], **sections}
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [_usage(command), "", _ABOUT if command is None else _COMMANDS[command][0]]
    for title, rows in sections.items():
        lines += ["", f"{title}:", *(f"  {left:<{width}}{text}" for left, text in rows)]
    if command is None:
        lines += ["", "Run 'treesent <command> --help' for the options of a command."]
    return "\n".join(lines)


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    """End as argparse does: the usage and the error on stderr, exit status 2."""
    prog = "treesent" if command is None else f"treesent {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flag(
    arg: str, names: Dict[str, str], command: Optional[str]
) -> Optional[Tuple[str, Optional[str]]]:
    """``(option, the value given with it or None)`` when ``arg`` is a flag,
    None when it is a value.

    A flag is an option of ``names``, ``--option=value``, ``-oVALUE``, or a
    unique prefix of a long option, with or without ``=value``. A word that
    looks like a flag but is none of these comes back as itself; a prefix
    of more than one long option is a usage error.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names or arg == "--":
        return arg, None
    head, equals, value = arg.partition("=")
    if equals and head in names:
        return head, value
    if arg.startswith("--"):
        matches = [(name, value if equals else None) for name in names if name.startswith(head)]
    else:
        matches = [(arg[:2], arg[2:])] if arg[:2] in names else []
    if len(matches) > 1:
        _usage_error(command, f"ambiguous option: {arg} could match "
                              f"{', '.join(name for name, _ in matches)}")
    if matches:
        return matches[0]
    import re  # only a word that looks like a flag and is none comes this far

    if " " in arg or re.match(_NEGATIVE_NUMBER, arg):
        return None
    return arg, None


def _read_flags(command: Optional[str], args: List[str]) -> Tuple[Dict[str, object], List[str]]:
    """The value of each flag ``command`` takes, read from ``args``, and the
    words of ``args`` that no flag takes.

    Words are read in order: a flag's value is checked, and -h, --help and
    --version end the run, where each is read; a missing required flag is
    an error after the last word.
    """
    flags = _flags(command)
    names = _option_names(flags)
    read = [_flag(arg, names, command) for arg in args]
    values = {key: flag[1] for key, flag in flags.items()}
    given, left = set(), []
    at = 0
    while at < len(args):
        arg, found = args[at], read[at]
        at += 1
        if arg == "--":
            left += args[at - 1:]
            break
        if found is None or found[0] not in names:
            left.append(arg)
            continue
        option, value = found
        key = names[option]
        label = "/".join(name for name, named in names.items() if named == key)
        kind = bool if key == "help" else flags[key][0]
        if kind is bool:
            if value is not None:
                _usage_error(command, f"argument {label}: ignored explicit argument {value!r}")
            if key in ("help", "version"):
                print(_help(command) if key == "help" else f"treesent {__version__}")
                raise SystemExit(0)
            value = True
        else:
            if value is None:
                if at == len(args) or read[at] is not None:
                    _usage_error(command, f"argument {label}: expected one argument")
                value = args[at]
                at += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(command, f"argument {label}: invalid int value: {value!r}")
            elif kind is not str and value not in kind:
                _usage_error(command, f"argument {label}: invalid choice: {value!r} "
                                      f"(choose from {', '.join(map(repr, kind))})")
        values[key] = value
        given.add(key)
    missing = [_long(key) for key, flag in flags.items() if flag[2] and key not in given]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    return values, left


def _read_argv(argv: Sequence[str]) -> _Args:
    """The command named in ``argv`` and the value of each flag it takes.

    What argparse would accept gives the same values, and what it would
    refuse the same usage error, in its words.
    """
    argv = list(argv)
    names = _option_names(_TOP_FLAGS)
    at = next((at for at, arg in enumerate(argv)
               if arg == "--" or _flag(arg, names, None) is None), len(argv))
    _, stray = _read_flags(None, argv[:at])
    if at == len(argv):
        _usage_error(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, _COMMANDS))})")
    values, left = _read_flags(command, argv[at + 1:])
    if stray or left:
        _usage_error(None, f"unrecognized arguments: {' '.join(stray + left)}")
    return _Args(command=command, **values)


def _run(cfg: PipelineConfig, args: _Args) -> int:
    if args.command in ("analyze", "aspects"):
        return cmd_analyze(cfg, args)
    if args.command == "encode":
        return cmd_encode(cfg)
    if args.command == "decode":
        return cmd_decode(cfg)
    if args.command == "eval":
        return cmd_eval(cfg, args)
    if args.command == "bench":
        return cmd_bench(cfg, args)
    return cmd_gen(cfg, args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        code = _run(_build_config(args), args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): stop quietly, and point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # a file that cannot be read, a worker that cannot start
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C; a pool's workers have been reaped on the way out
        return 130


if __name__ == "__main__":
    sys.exit(main())
