"""Run one ``courant`` CLI task in this fresh interpreter; print its result.

Started by ``runner.run_task`` as ``python3 bench/child.py '<json spec>'``.
The spec holds ``argv`` (or null to only import), ``trace``, ``task``,
``src`` and ``spans``.  The child times the import of ``courant.cli``
and then one call of ``courant.cli.main(argv)`` (parse, run_command,
emit_report), with the report captured instead of printed, and writes
one JSON object to stdout.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import courant.cli as cli

    t1 = time.perf_counter()
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print("courant imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 3
    result = {"import_s": t1 - t0}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer(spec["task"])
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        code, raised = None, None
        t2 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(spec["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to report, not to die of
                raised = "%s: %s" % (type(exc).__name__, str(exc)[:200])
        result.update(
            main_s=time.perf_counter() - t2,
            exit=code,
            raised=raised,
            stdout=out.getvalue(),
        )
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write_spans(spec["spans"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
