"""Run one anglekit CLI command in a fresh process and record its cost.

    python child.py RECORD TRACE [CLI-ARGS...]

Imports numpy, scipy and anglekit (the set-up a user pays on every run),
then calls ``anglekit.cli.main(CLI-ARGS)`` in this process.  RECORD receives
JSON with the monotonic clock reading just before ``main`` starts (the
parent compares it with its own reading at launch), the time ``main`` took,
the user plus system CPU time it used and the process's peak RSS; the
process exits with main's return code.  TRACE is ``-`` for an untraced
run, or the .npz path where the tracer writes its spans and counts.  With
no CLI-ARGS the process only imports and exits, which warms file caches
before a timed run.
"""

import json
import resource
import sys
import time


def main():
    record_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    from anglekit import cli

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer.install()
    code = 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    ready = time.monotonic()
    if argv:
        code = cli.main(argv)
    done = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    record = {
        "ready": ready,
        "main_s": done - ready,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_kb": after.ru_maxrss,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
