"""Traced child process for the cli-cold workload.

    python perfbench/launch.py SPANS_FILE CLI_ARGS...

Times the import of fanotoric.cli, installs the same wrappers as the
in-process traced run, calls fanotoric.cli.main(CLI_ARGS) and writes the
spans and counters to SPANS_FILE as JSON before exiting with main's code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.begin(tracer.name_id("import.fanotoric_cli"))
import fanotoric.cli  # noqa: E402

tracer.end()
tracer.install()
try:
    code = fanotoric.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    spans = [[tracer.names[s[0]], s[1], s[2], s[3]] for s in tracer.spans]
    Path(sys.argv[1]).write_text(
        json.dumps({"spans": spans, "counters": tracer.counters}), encoding="utf-8"
    )
sys.exit(code)
