"""Traced CLI call in a fresh interpreter.

    python bench/cli_child.py SPANS_JSON ARGV...

Imports ctrlwalk, wraps the module boundaries, runs ``cli.run_command(ARGV)``
inside one span and writes the per-name span summary to SPANS_JSON. Exits
with run_command's exit code. PYTHONPATH must point at the package sources.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import BOUNDARIES, Tracer, sibling_imports, summarize  # noqa: E402


def main(argv) -> int:
    out, cli_argv = argv[0], argv[1:]
    import ctrlwalk
    from ctrlwalk import cli

    tracer = Tracer()
    tracer.install(ctrlwalk, {**BOUNDARIES, "cli": sibling_imports(cli)})
    tracer.op = 0
    code = tracer.span("cli.run_command", cli.run_command, cli_argv)
    tracer.uninstall()
    with open(out, "w") as fh:
        json.dump(summarize(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
