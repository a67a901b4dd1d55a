"""Run one `hamens` CLI command in this process with the layer tracer installed.

Usage: python3 bench/trace_child.py SPANS.npz COMMAND --config CFG [--out CSV] ...

The spans are written to SPANS.npz when the command ends, also when it
raises; the exit code is the command's.
"""

import sys

from tracer import ROOT_SPAN, Tracer, install


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hamens.cli

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.call(ROOT_SPAN, hamens.cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
