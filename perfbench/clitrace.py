"""Run weylkit.cli.main(argv) with the tracing wrappers installed.

Usage: python perfbench/clitrace.py SPANS_JSON SUBCOMMAND [ARGS...]

The exit code is main's.  Spans are written to SPANS_JSON at exit.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import weylkit.cli
    try:
        return weylkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
