"""Run the primroots CLI with the benchmark's spans installed.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 benchmark/traced_cli.py list 1594323 --format json

Standard output carries the program's output unchanged.  Once the command
has finished and standard output is closed, the recorded spans and counters
go to standard error as one JSON line after a marker line.
"""

import json
import sys

import spans

MARKER = "--- benchmark trace ---"


def main() -> int:
    tracer = spans.Tracer()
    with spans.install(tracer):
        modules = spans.load_modules()
        code = modules["cli"].run(sys.argv[1:])
    sys.stdout.close()
    sys.stderr.write(MARKER + "\n" + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
