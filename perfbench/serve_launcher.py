"""Run ``python -m repro <args>`` with the span wrappers installed.

The traced serve-mixed run starts the server through this launcher so
it keeps the untraced run's process layout.  When the CLI returns (the
server drains on SIGTERM), the span summary is written as JSON to the
file named by ``PERFBENCH_TRACE_OUT``.

    PYTHONPATH=src PERFBENCH_TRACE_OUT=spans.json \\
        python3 perfbench/serve_launcher.py serve --dataset ... --port 0
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import spans


def main() -> int:
    tracer = spans.Tracer(always=True)
    spans.install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[1:])
    Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(
        json.dumps(tracer.summary())
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
