"""Set-up probe, run in a fresh interpreter: import csqkd, load one config.

Usage: python3 perfbench/setup_probe.py CONFIG  (with csqkd on PYTHONPATH)

Prints one JSON line with the import and config-load split once the config
is loaded and validated; the launching process times from spawn to that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import csqkd.harness  # noqa: E402

t1 = time.perf_counter()
csqkd.harness.load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "module": csqkd.__file__}), flush=True)
