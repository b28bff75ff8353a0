"""Run one ``nmfseg`` CLI stage with a span around every wrapped layer call.

Usage: python traced_cli.py SPANS.json STAGE [STAGE ARGS...]

The stage runs exactly as ``nmfseg STAGE ...`` would; the wrappers only add
spans (see ``layers.WRAPS``).  When the stage returns, the spans, the import
time of ``nmfseg.cli`` and the list of functions that could not be wrapped
are written to SPANS.json, and the process exits with the stage's code.
"""

import json
import sys
import time

import layers
from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, stage = argv[0], argv[1]
    t0 = time.perf_counter()
    from nmfseg import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    absent = layers.install(tracer)
    code = tracer.wrap(cli.run_command, f"cli.{stage}")(argv[1:])
    with open(spans_path, "w") as fh:
        json.dump({"stage": stage, "import_s": import_s, "absent": absent, "exit": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
