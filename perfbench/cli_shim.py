"""Traced entry for one `spinpath` CLI call.

    PERFBENCH_SPANS=<file> PERFBENCH_LAUNCH=<monotonic time> \
        python3 perfbench/cli_shim.py <spinpath arguments>

Records the interpreter start (cli.process, from the launch time the
caller read), ``import spinpath`` (cli.import) and the spans of the call,
writes the spans to PERFBENCH_SPANS and exits with the CLI's exit code.
"""

import time

STARTED = time.perf_counter()
STARTED_MONOTONIC = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    launched = STARTED - (STARTED_MONOTONIC - float(os.environ["PERFBENCH_LAUNCH"]))
    tracer.add("cli.process", launched, STARTED)
    begin = time.perf_counter()
    import spinpath.cli

    tracer.add("cli.import", begin, time.perf_counter())
    with tracer.installed():
        code = spinpath.cli.main(argv)
    tracer.write_jsonl(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
