"""``qortho verify`` in a fresh process, traced.

Usage: python perfbench/tracecli.py verify --identity ... (PYTHONPATH=src)

Times ``import qortho.cli``, installs the layer wrappers, runs ``cli.main``
and writes the CLI's output to stdout unchanged.  The spans and counters go
to stderr as the last line, one JSON object.
"""

import contextlib
import importlib
import io
import json
import sys

import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "qortho.cli")
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tracer.call("cli.main", cli.main, sys.argv[1:])
    sys.stdout.write(out.getvalue())
    print(json.dumps({"spans": tracer.spans, "counts": tracer.counts}), file=sys.stderr)
    sys.exit(code)
