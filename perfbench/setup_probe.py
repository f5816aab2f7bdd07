"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports the program, decodes every spec document of the workload and
builds the first one, then prints the three phase times as JSON.  The
caller times the whole process: interpreter start-up, imports and the
per-process memos are paid again on every run.

Usage: ``python3 perfbench/setup_probe.py SPECS.json`` with ``src`` on
``PYTHONPATH``.
"""

import json
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    import repro.spec as rspec

    t1 = time.perf_counter()
    with open(sys.argv[1]) as fh:
        specs = [rspec.RunSpec.from_dict(doc) for doc in json.load(fh)]
    t2 = time.perf_counter()
    rspec.build_run(specs[0])
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "decode_s": t2 - t1, "build_s": t3 - t2}))


if __name__ == "__main__":
    main()
