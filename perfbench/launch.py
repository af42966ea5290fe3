"""Run one CLI invocation the way the console script does, with timestamps.

    python3 perfbench/launch.py TIMING.json TRACE.json|- SUBCOMMAND ARGS...

Writes to TIMING.json the monotonic clock when ``pumped_lindblad.cli`` is
imported and ready to dispatch, and when the subcommand returned.  With a
TRACE path the package is wrapped by ``tracing.Tracer`` after the import
and the spans are written there at exit.  The exit code is the CLI's.
"""

import json
import sys
import time


def main():
    timing_path, trace_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import pumped_lindblad.cli as cli

    ready = time.monotonic()
    tracer = None
    if trace_path != "-":
        import pumped_lindblad
        from tracing import Tracer

        tracer = Tracer(run_id=timing_path)
        tracer.install(pumped_lindblad)
    dispatch = time.monotonic()
    try:
        # click's standalone mode ends in SystemExit with the CLI's exit code
        cli.main(args=args, prog_name="pumped-lindblad")
    finally:
        done = time.monotonic()
        if tracer is not None:
            tracer.dump(trace_path)
        with open(timing_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "dispatch": dispatch, "done": done,
                       "cli_file": cli.__file__}, fh)


if __name__ == "__main__":
    main()
