"""Set-up a CLI user pays: import ``floqep.cli`` and load one config.

Usage: ``python3 setup_probe.py CONFIG.json`` with ``src`` on
``PYTHONPATH``.  Prints the import and load seconds and the imported
file as one JSON line; the caller times the whole process.
"""

import sys
import time

t0 = time.perf_counter()
import floqep.cli  # noqa: E402

t1 = time.perf_counter()
floqep.cli.load_config(sys.argv[1])
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": floqep.cli.__file__}))
