"""Time the benchmark's set-up in a fresh interpreter and print the seconds.

    python3 bench/setup_probe.py CONFIG.ini [CONFIG.ini ...]

Set-up is `import stf_spde.cli` plus building each config's problem,
TimeGrid and HaarLevel (whose smoothed seed is one banded solve). The
package must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

import sys
import time

import workloads

start = time.perf_counter()
import stf_spde.cli  # noqa: E402  (the import is what is timed)

workloads.build_objects(stf_spde.cli, sys.argv[1:])
print(time.perf_counter() - start)
