"""A CLI worker for one algorithm, started as a fresh interpreter by run.py.

Usage: python3 child.py <spawn_monotonic>

``distmine`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH). Once ``distmine.cli`` is imported the worker prints a JSON line
with ``setup_s``, the time from the parent's spawn until then. It then reads
one JSON argv list per stdin line, calls ``cli.main(argv)`` on it and prints
``run_s``, the wall time of that call, and ``rc``, its return code. It exits
at the end of stdin.
"""

import sys
import time

spawned = float(sys.argv[1])
from distmine import cli  # noqa: E402  (the import is what setup_s times)

ready = time.monotonic()

import json  # noqa: E402

# Replies go to the original stdout; anything the CLI prints goes to stderr.
replies, sys.stdout = sys.stdout, sys.stderr
print(json.dumps({"setup_s": ready - spawned}), file=replies, flush=True)
for line in sys.stdin:
    argv = json.loads(line)
    start = time.perf_counter()
    rc = cli.main(argv)
    run_s = time.perf_counter() - start
    print(json.dumps({"run_s": run_s, "rc": rc}), file=replies, flush=True)
