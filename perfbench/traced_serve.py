"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python traced_serve.py DUMP_PATH serve [serve flags...]``

The wrappers (tracer.py) go in before the server starts; everything
after that is the unmodified ``repro serve`` CLI entry.  The load
generator brackets its timed window with signals:

* ``SIGUSR1`` zeroes the counters (window start);
* ``SIGUSR2`` writes the counters since then to ``DUMP_PATH`` as JSON.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.start_window())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.dump(dump_path))

    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
