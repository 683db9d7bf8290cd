"""A traced `hallwin` command: `python3 cli_child.py SPANS_OUT OP_ID ARGS...`.

Behaves like `python -m hallwin.cli ARGS...` (same stdout, stderr and exit
code) with the tracer of `tracing.py` installed around the whole command;
the spans, pivot count and `cached_polytope` cache delta go to SPANS_OUT
as JSON.  The cli workload's traced reps start it in place of the library.
"""

import json
import sys

import tracing


def main() -> int:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from hallwin import cli
    tracer = tracing.Tracer()
    tracer.install()
    tracer.cache_mark()
    tracer.begin_op(op_id, "cli")
    try:
        code = cli.main(argv)
    finally:
        tracer.end_op()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "pivots": tracer.pivots,
                       "cache": list(tracer.cache_delta())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
