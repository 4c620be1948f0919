"""Run one ulrich-kit CLI invocation with the tracer installed.

Usage (from the root of a checkout, with src on PYTHONPATH):

    python3 perfbench/cli_traced.py <trace-out.json> <ulrich-kit arguments...>

The report on stdout and the exit code are those of
``python -m ulrich_kit.cli <arguments...>``; the per-layer snapshot and
the spans of the invocation go to <trace-out.json>.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import ulrich_kit.cli as cli

    tracer = Tracer()
    tracer.record_spans = True
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.snapshot()
        record["spans"] = [span for span in tracer.spans if span is not None]
        out_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
