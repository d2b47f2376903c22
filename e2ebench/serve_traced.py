"""Run ``repro-omp serve`` with the benchmark's timing wrappers installed.

Usage: ``python3 e2ebench/serve_traced.py SPANS.json serve [serve flags]``.
The traced serve-mixed run starts its server through this file so the
layers the server calls (study expansion, cache, runner, engine,
rendering) are timed inside the process that simulates.  The spans are
written to ``SPANS.json`` when the server exits on SIGTERM, which shuts
it down as an interrupt would.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    # replace this directory on the path, so its modules never shadow
    # the standard library's
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from repro.cli import main as cli_main

    from e2ebench.spans import Recorder, instrument

    signal.signal(signal.SIGTERM, signal.default_int_handler)
    rec = Recorder()
    try:
        with instrument(rec):
            return cli_main(argv[1:])
    finally:
        rec.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
