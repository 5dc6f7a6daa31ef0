"""Closed-loop timing of CLI invocations: one client, one command at a time.

Each invocation is a fresh ``treesent`` process, launched the way the
console script launches it. Its wall time runs from just before the
process is created to just after it has been reaped, so the user-visible
start-up is included. CPU time and peak resident set come from ``wait4``,
whose usage covers the process and every worker process it waited for.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

# what the ``treesent`` console script runs
CONSOLE_MAIN = "import sys; from treesent.cli import main; sys.exit(main())"

# bytes that end the first complete output record, per output format
RECORD_END = {"jsonl": b"\n", "bridge": b"\n", "conllu": b"\n\n"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_kib: int
    first_output_s: float  # wall time when the first record was complete
    exit_code: int
    output: bytes
    stderr: bytes


def command_env(root: Path) -> Dict[str, str]:
    """Environment for the commands: the checkout's own sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed package has its bytecode
    env.pop("PYTHONSTARTUP", None)
    return env


def treesent_argv(args: Sequence[str]) -> List[str]:
    # -S: treesent has no dependencies, and hooks that a host's site-packages
    # run at start-up (.pth files) are not the program's start-up cost
    return [sys.executable, "-S", "-c", CONSOLE_MAIN, *args]


def invoke(argv: Sequence[str], env: Dict[str, str], cwd: Path, record_end: bytes,
           stderr_path: Path) -> Invocation:
    """Run one command to completion, reading its stdout as it arrives."""
    chunks: List[bytes] = []
    first = -1.0
    tail = b""
    with open(stderr_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, cwd=cwd, env=env)
        try:
            fd = proc.stdout.fileno()
            while True:
                block = os.read(fd, 1 << 16)
                if not block:
                    break
                if first < 0 and record_end in tail + block:
                    first = perf_counter() - started
                tail = block[-len(record_end):]
                chunks.append(block)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - started
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_kib=usage.ru_maxrss,
        first_output_s=first if first >= 0 else wall,
        exit_code=proc.returncode,
        output=b"".join(chunks),
        stderr=stderr_path.read_bytes(),
    )
