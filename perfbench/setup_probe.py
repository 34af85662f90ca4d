"""Time-to-ready probe: import the program, build a workload's objects, say so.

Run as ``python3 perfbench/setup_probe.py <workload> <size>`` with ``src`` on
``PYTHONPATH``; it prints ``ready`` once the objects exist and then exits.
"""

import importlib
import sys

MODULES = {
    "paper-dense": "perfbench.paper_dense",
    "shard-sparse": "perfbench.shard_sparse",
    "monitor-windows": "perfbench.monitor_windows",
}

if __name__ == "__main__":
    workload, size = sys.argv[1], sys.argv[2]
    importlib.import_module(MODULES[workload]).build(size)
    print("ready", flush=True)
