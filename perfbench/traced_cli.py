"""Run the groupsight CLI with the per-layer tracer installed.

    python3 perfbench/traced_cli.py TRACE_DIR <groupsight arguments>

Each process (this one and any forked pool worker) writes its figures
to TRACE_DIR/trace-<pid>.json; the time to import the CLI is recorded
as `cli.import_s`.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import groupsight.cli

    import_s = perf_counter() - start
    from tracing import Tracer, install

    tracer = Tracer(trace_dir)
    install(tracer)
    tracer.add("cli.import_s", import_s)
    code = groupsight.cli.main(argv)
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
