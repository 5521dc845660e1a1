"""Run one dmduq command and gate its peak RSS.

Usage: python .github/peak_rss.py BOUND_MB WHERE ARGS...

Runs ``python -m dmduq.cli ARGS...`` as this process's only child, so RUSAGE_CHILDREN's peak
is that run's, and prints ``<command>, <WHERE>, OPENBLAS_NUM_THREADS=<n>: peak RSS <MB> MB``.
Exits 1 when the command fails or its peak is BOUND_MB or more.
"""

import os
import resource
import subprocess
import sys

bound, where, args = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
subprocess.run([sys.executable, "-m", "dmduq.cli", *args], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
threads = os.environ.get("OPENBLAS_NUM_THREADS")
print(f"{args[0]}, {where}, OPENBLAS_NUM_THREADS={threads}: peak RSS {peak:.0f} MB")
sys.exit(peak >= bound)
