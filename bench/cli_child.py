"""Runs padicells' command line under the benchmark's tracer.

    python3 bench/cli_child.py TRACE_PATH OP_ID ARGS...

runs `padicells ARGS...`, writes the trace to TRACE_PATH with every span
tagged OP_ID, and exits with the command's exit code.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from padicells import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer(op=int(sys.argv[2]))
    tracer.install()
    try:
        code = cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)
