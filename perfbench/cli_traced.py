"""Run one gf2mf CLI call in this process with the tracer installed.

Usage: python perfbench/cli_traced.py <gf2mf cli arguments...>

stdout carries the CLI's stdout unchanged.  The trace snapshot is printed
as JSON on the last line of stderr, after tracer.TRACE_MARKER.
"""

import json
import sys

import tracer


def main() -> int:
    from gf2mf import cli

    t = tracer.Tracer()
    t.install()
    try:
        code = t.root(cli.main, sys.argv[1:])
    finally:
        t.uninstall()
    sys.stdout.flush()
    print(tracer.TRACE_MARKER + json.dumps(t.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
