"""Run the paralyap CLI in this interpreter and record when set-up ended.

Usage: python3 perfbench/launch.py MARKS_JSON TRACE_FILE COMMAND [CLI ARGS...]

This runs ``paralyap.cli.main``, the function ``python -m paralyap`` runs,
on the given arguments and exits with its code.  Set-up ends when the CLI
has built the Lagrangian or, for a command without one, when it starts the
simulation: the first moment that frame or grid-point work can begin.  Both
hooks are a single call each, so the untraced run pays nothing measurable
for them.  Times are on the system-wide monotonic clock, so the parent can
subtract the moment it launched this process.

With TRACE_FILE other than "-", the public functions of every module are
wrapped by ``tracer.Tracer`` and the spans and counters are written to
TRACE_FILE when the command returns.
"""

import json
import sys
import time


def _after(fn, marks):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        return result

    return wrapper


def _before(fn, marks):
    def wrapper(*args, **kwargs):
        marks.setdefault("setup_end", time.monotonic())
        return fn(*args, **kwargs)

    return wrapper


def main(argv):
    marks_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    t_import = time.perf_counter()
    from paralyap import cli

    import_s = time.perf_counter() - t_import
    marks = {}
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer(import_s)
        tracer.install()
    cli._build_lagrangian = _after(cli._build_lagrangian, marks)
    cli._run_simulation = _before(cli._run_simulation, marks)
    code = cli.main(cli_args)
    if tracer is not None:
        tracer.dump(trace_path)
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
