"""Run one `blockspectra` command in a fresh process, as the console script would.

    python3 bench/child.py STATS_PATH TRACE(0|1) CLI_ARG...

Imports the package from `src/` of the checkout this file sits in, calls
`cli.main(CLI_ARG...)`, and writes to STATS_PATH a JSON object holding the
seconds spent inside `cli.main`, the process's peak resident set size and,
with TRACE=1, the span summary of the traced layers. Exits with `cli.main`'s
return code.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_kb():
    """VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
    carries the parent's high-water mark across fork and exec into it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    stats_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from blockspectra import cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_s = None
    try:
        t0 = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t0
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            stats = {
                "main_s": main_s,
                "peak_rss_kb": peak_rss_kb(),
                "trace": tracer and tracer.summary(),
            }
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
