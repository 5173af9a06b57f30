#!/usr/bin/env python3
"""Run one uqkit CLI invocation with timing spans around the library's public functions.

Usage:
    PYTHONPATH=src python3 perfbench/trace_launcher.py SPANS.json -- <uqkit CLI arguments>

The launcher times `import uqkit.cli` (span "cli.import"), replaces the
library's public functions with timing wrappers (tracing.install), and sends
the arguments through uqkit.cli.main (span "cli.main"). Only sys and time are
imported before the timed import, so "cli.import" pays for every module
uqkit.cli needs, as a fresh `python3 -m uqkit.cli` does.

Spans (name, start, end, parent) and counters stay in memory and are written
to SPANS.json when the invocation ends. The launcher writes nothing to
stdout, so the CLI's stdout bytes are those of an untraced run, and it exits
with main's exit code.
"""

import sys
import time


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter_ns()
    import uqkit.cli
    end = time.perf_counter_ns()

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append([tracer.name_id("cli.import"), start, end, -1])
    tracing.install(tracer)
    try:
        return tracer.wrap(uqkit.cli.main, "cli.main")(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
