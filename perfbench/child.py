"""One benchmark operation in a fresh interpreter.

Usage: child.py RESULT_JSON MODE [servicecut arguments...]

MODE is ``setup`` (only import the CLI), ``plain`` (run the operation) or
``trace`` (run it with spans). The import of ``servicecut.cli`` comes first so
that the parent, which noted the time just before it started this process, can
take set-up time as the span from spawn to ``setup_done`` on the system-wide
monotonic clock. The result is written as JSON; a process that dies first
writes none.
"""

import sys
import time

import servicecut.cli  # the set-up being measured

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402


def main(argv: list[str]) -> None:
    result_path, mode, cli_argv = argv[0], argv[1], argv[2:]
    result = {"setup_done": SETUP_DONE, "module_file": servicecut.cli.__file__}
    if mode == "plain":
        start = perf_counter()
        result["rc"] = servicecut.cli.main(cli_argv)
        result["wall_s"] = perf_counter() - start
    elif mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        start = perf_counter()
        result["rc"] = tracer.call("cli.main", servicecut.cli.main, cli_argv)
        result["wall_s"] = perf_counter() - start
        tracer.finish()
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing,
                      hook_errors=tracer.hook_errors)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
