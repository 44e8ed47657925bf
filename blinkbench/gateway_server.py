"""Run ``python -m repro gateway serve`` with span tracing installed.

Traced runs of ``gateway-record`` start the server through this launcher
instead of ``python -m repro``: it wraps the layers' public functions in
the server process, runs the unmodified CLI entry point, and on exit
writes the span summary (for the ledger) and the spans themselves.

Usage: ``python3 blinkbench/gateway_server.py --summary S.json --spans S.jsonl.gz -- <serve args>``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    require_program()
    from tracing import Tracer

    from repro.cli import main as repro_main

    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(["gateway", "serve", *serve_args])
    finally:
        tracer.uninstall()
        args.summary.write_text(json.dumps(tracer.summary()))
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
