"""One CLI operation per forked child process.

The benchmark process imports `reebforge` and calls nothing in it; every
operation then runs `reebforge.cli.main` in a child forked from it.  So the
`lru_cache`s start cold as in a fresh CLI process, no heap carries over from
one operation to the next, and `os.wait4` reports each operation's peak
RSS.  The parent runs no threads (numpy's pools are pinned to one thread
before numpy is imported), which is what makes forking it safe, and it
waits for each child before starting the next.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# an uncaught exception ends a CLI process with this status
UNCAUGHT_STATUS = 1


@dataclass
class Op:
    rc: int
    wall_s: float
    peak_rss_mib: float
    output: str
    spans: Optional[dict]


def run_cli(argv: list, log_path: Path, traced: bool = False) -> Op:
    """Run `reebforge <argv>` in a forked child; its stdout and stderr go
    to log_path.  With `traced`, the child reports per-layer spans."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd = write_fd = None
    if traced:
        read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, log_path, write_fd)
    spans = None
    if traced:
        os.close(write_fd)
        with os.fdopen(read_fd, "r") as pipe:
            text = pipe.read()
        spans = json.loads(text) if text else None
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Op(rc=os.waitstatus_to_exitcode(status),
              wall_s=wall, peak_rss_mib=usage.ru_maxrss / 1024.0,
              output=log_path.read_text(errors="replace"), spans=spans)


def _child(argv, log_path, write_fd) -> None:
    rc = UNCAUGHT_STATUS
    try:
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        from reebforge import cli
        if write_fd is None:
            rc = cli.main(argv)
        else:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
            start = time.perf_counter()
            rc = cli.main(argv)
            spent = time.perf_counter() - start
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(spans.summary(tracer, spent)))
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(rc)
