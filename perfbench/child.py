"""One rbffock CLI call in a fresh interpreter, as a user's shell runs it.

    python3 child.py -- <rbffock arguments>
    python3 child.py --trace SPANS.json -- <rbffock arguments>
    python3 child.py --setup

``--trace`` wraps the library's public functions before the call and writes
the spans to SPANS.json afterwards.  ``--setup`` imports the CLI, builds its
parser and prints the wall-clock time in ns at that moment.
"""

import sys
import time


def main(argv: list[str]) -> int:
    if argv == ["--setup"]:
        import rbffock.cli
        rbffock.cli.build_parser()
        print(time.time_ns(), flush=True)
        return 0
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        sys.stderr.write(__doc__)
        return 2
    import rbffock.cli
    if spans_path is None:
        return rbffock.cli.main(argv[1:])
    import tracer
    spans = tracer.install()
    try:
        return rbffock.cli.main(argv[1:])
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
