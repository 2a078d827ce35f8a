"""Traced entry point: ``python launcher.py SPANS_JSON <repro CLI args>``.

Stands in for ``python -m repro <args>`` in a traced run.  It times the
fresh-interpreter ``import repro`` (the ``cli.import`` span), wraps the
public entry points listed in :func:`tracing.install`, and then calls
``repro.cli.main`` with the unchanged arguments, so ``serve`` still goes
through ``create_server`` and ``kdv`` through the same command code as
an untraced run.  The spans are written to ``SPANS_JSON`` when the
command returns; a server returns after SIGINT, its normal shutdown.
"""

from __future__ import annotations

import os
import sys
import time

import tracing


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer(default_rid=os.environ.get(tracing.RID_ENV))
    t0 = time.perf_counter()
    import repro.cli
    tracer.record("cli.import", t0, time.perf_counter())
    tracing.install(tracer)
    t0 = time.perf_counter()
    try:
        code = repro.cli.main(args)
    finally:
        tracer.record("cli.main", t0, time.perf_counter())
        tracer.dump(spans_path, tracing.end_counters())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
