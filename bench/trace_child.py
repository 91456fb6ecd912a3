"""Run one semple2 CLI command in this process with every layer call traced.

    python bench/trace_child.py OUT.json ARG...

Imports `semple2.cli`, installs the wrappers of `tracing.py`, calls
`semple2.cli.main(ARGS)` with stdout and stderr captured, and writes the
exit code, the captured stdout and the spans to OUT.json.  The parent
compares that stdout byte for byte with an untraced run of the same ARGS.
"""

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import semple2.cli

from tracing import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = semple2.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "stdout": out.getvalue(), "spans": tracer.export()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
