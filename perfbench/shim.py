"""Run one `ketlab` command with the benchmark's tracing wrappers installed.

    python shim.py TRACE_OUT ARG...

Imports `ketlab.cli`, installs the wrappers, calls `main(ARG...)`, writes the
tracer's spans and totals as JSON to TRACE_OUT and exits with main's status.
`ketlab` must be importable (PYTHONPATH holding the checkout's `src`).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import ketlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        return ketlab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
