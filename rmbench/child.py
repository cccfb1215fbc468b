"""One `rmlab run` in a fresh interpreter, timed from the outside.

    python3 rmbench/child.py CONFIG OUT_DIR [SPANS_JSON]

Runs ``rmlab.cli.main(["run", CONFIG, "--out", OUT_DIR, "--threads", "1"])``
and prints one JSON line with wall_s, setup_s, cpu_s and peak_rss_mb.
Import is not timed. The only instrument is a timestamp pair around the
CLI's ``prepare_scenario`` call; set-up ends when it returns. With
SPANS_JSON the run is traced (see tracing.py) and the spans are written
there. rmlab must be importable from the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracing import MissedHookError, Tracer


def measure(cli, argv: list[str]) -> dict:
    """Call cli.main(argv) with set-up timed through cli.prepare_scenario.

    Raises MissedHookError when main never prepares a scenario, and
    RuntimeError when it returns non-zero.
    """
    stamps: list[float] = []
    prepare = cli.prepare_scenario

    def timed_prepare(cfg):
        try:
            return prepare(cfg)
        finally:
            stamps.append(time.perf_counter())

    cli.prepare_scenario = timed_prepare
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        cli.prepare_scenario = prepare
    if rc != 0:
        raise RuntimeError(f"rmlab {' '.join(argv)} returned {rc}")
    if len(stamps) != 1:
        raise MissedHookError(f"rmlab.cli.prepare_scenario called {len(stamps)} times, expected once")
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return {"wall_s": t1 - t0, "setup_s": stamps[0] - t0, "cpu_s": cpu}


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space, in MiB.

    Not ru_maxrss: Linux carries the spawning process's high-water mark
    across fork and exec into it, so a child of the benchmark process,
    which may hold a large oracle, would report the parent's size.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(args: list[str]) -> int:
    cfg_path, out_dir = args[0], args[1]
    spans_path = args[2] if len(args) > 2 else None
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import rmlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rmlab imported from {cli.__file__}, not from {src}")
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    result = measure(cli, ["run", cfg_path, "--out", out_dir, "--threads", "1"])
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
