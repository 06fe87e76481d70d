"""Run a list of CLI commands in one interpreter, with or without tracing.

Usage: python3 perfbench/inprocess.py COMMANDS_JSON RESULT_JSON [SPANS_JSON]

COMMANDS_JSON holds a list of argv lists for ``sawtopics.cli.main``. The
commands run in the current directory, in order. When SPANS_JSON is given,
the public functions of every layer module are wrapped in span recorders
first and the spans are written there at the end. RESULT_JSON receives the
import time of ``sawtopics.cli`` and each command's exit code and wall time.
"""

from __future__ import annotations

import json
import sys
import time

import tracing


def main(argv: list[str]) -> None:
    commands = json.loads(open(argv[0], encoding="utf-8").read())
    spans_path = argv[2] if len(argv) > 2 else None

    t0 = time.perf_counter()
    import sawtopics  # noqa: F401  (every layer module, as the console script loads them)
    from sawtopics import cli
    import_s = time.perf_counter() - t0

    rec = None
    if spans_path:
        rec = tracing.Recorder()
        tracing.install(rec)
    results = []
    for args in commands:
        t = time.perf_counter()
        rc = rec.span(f"cli.{args[0]}", cli.main, args) if rec else cli.main(args)
        results.append({"argv": args, "rc": rc, "wall_s": time.perf_counter() - t})
    if rec:
        rec.dump(spans_path)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "commands": results}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
