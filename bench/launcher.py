"""Traced stand-in for ``python -m punctref.cli``.

Usage: ``python launcher.py SPANS_FILE <cli arguments>`` with the library on
``PYTHONPATH``. Records a ``cli.import`` span around ``import punctref.cli``,
wraps the library's public functions as ``tracing.install`` does, runs the
command through the wrapped ``cli.main`` and writes the spans to SPANS_FILE.
Standard output, standard error and the exit code are those of the command.
"""
import sys
import time

from tracing import Tracer, install, write_spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import punctref.cli

    tracer.record("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        return punctref.cli.main(argv)
    finally:
        write_spans(spans_file, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
