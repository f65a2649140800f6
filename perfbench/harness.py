"""Run one CLI command in a child forked from a parent that has imported
``bounded_catalan.cli`` but never run a command.

Every lru cache in the package therefore starts cold in each child, as it
does for a user who starts the CLI once per command.  The child checks
that before it runs (the cold-start guard), writes the command's stdout
into a pipe, and exits; the parent reads the pipe to its end and reaps
the child with ``os.wait4``, which gives the child's CPU time and peak
RSS.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from dataclasses import dataclass

from tracer import Recorder, package_modules

# Exit codes a child uses for failures of the harness itself, outside the
# CLI's own codes (0, 2, 3).
EXIT_WARM_CACHE = 97
EXIT_CRASH = 98


@dataclass
class CommandResult:
    argv: list[str]
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    layers: dict | None = None


def _cached_functions(obj):
    yield obj
    if isinstance(obj, type):
        for value in vars(obj).values():
            yield getattr(value, "__func__", value)


def warm_caches() -> dict[str, int]:
    """Every lru cache in the package's modules that holds an entry."""
    seen: dict[int, tuple[str, int]] = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            for fn in _cached_functions(value):
                info = getattr(fn, "cache_info", None)
                if callable(info) and id(fn) not in seen:
                    seen[id(fn)] = (f"{mod.__name__}.{attr}", info().currsize)
    return {label: size for label, size in seen.values() if size}


def _child(argv: list[str], out_fd: int, trace_fd: int | None, before) -> int:
    from bounded_catalan import cli

    os.dup2(out_fd, 1)
    os.close(out_fd)
    if before is not None:
        before()
    warm = warm_caches()
    if warm:
        print(f"cold-start guard: warm caches before {argv[0]}: {warm}", file=sys.stderr)
        return EXIT_WARM_CACHE
    if trace_fd is None:
        code = cli.main(argv)
        sys.stdout.flush()
        return code
    recorder = Recorder()
    recorder.install()
    code = recorder.run_root(cli.main, argv)
    sys.stdout.flush()
    os.close(1)  # the parent reads stdout to its end before the trace pipe
    with os.fdopen(trace_fd, "w") as f:
        json.dump(recorder.summary(argv[0]), f)
    return code


def run_command(argv: list[str], trace: bool = False, before=None) -> CommandResult:
    """Fork, run ``argv`` through the CLI in the child, wait for it.

    ``before`` runs in the child ahead of the guard; only the guard's own
    self-test uses it.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    trace_r, trace_w = os.pipe() if trace else (None, None)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = EXIT_CRASH
        try:
            os.close(out_r)
            if trace_r is not None:
                os.close(trace_r)
            code = _child(argv, out_w, trace_w, before)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else EXIT_CRASH
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    os.close(out_w)
    if trace_w is not None:
        os.close(trace_w)
    with os.fdopen(out_r, "rb") as f:
        stdout = f.read()
    layers = None
    if trace_r is not None:
        with os.fdopen(trace_r, "r") as f:
            text = f.read()
        layers = json.loads(text) if text else None
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return CommandResult(
        argv=argv,
        code=os.waitstatus_to_exitcode(status),
        stdout=stdout,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        layers=layers,
    )
