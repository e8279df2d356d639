"""One fresh-interpreter set-up: import stocs, then load, validate and compile
every instance of a workload. Prints the import time in ms as JSON.

Usage: python3 perfbench/setup_probe.py SPEC

run.py times the whole process from outside, so interpreter start counts.
"""

import json
import sys
import time

from tracing import touch_compiled


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import stocs
    import_ms = (time.perf_counter() - start) * 1000.0
    for entry in spec["instances"]:
        touch_compiled(stocs.load_instance(entry["path"]))
    print(json.dumps({"import_ms": import_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
