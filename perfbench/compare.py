"""Compare two benchmark reports metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The reports are the files run.py writes to .bench_build/perfbench/.  Any
difference in the environment block is printed first, and a different
kernel backend is called out, because it changes every timing.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(sys.argv[2], encoding="utf-8") as fh:
        b = json.load(fh)
    if a["env"]["kernel_backend"] != b["env"]["kernel_backend"]:
        print(f"WARNING: different kernel backends: {a['env']['kernel_backend']} "
              f"vs {b['env']['kernel_backend']}; timings are not comparable")
    for key in sorted(set(a["env"]) | set(b["env"])):
        if a["env"].get(key) != b["env"].get(key):
            print(f"env {key}: {a['env'].get(key)} vs {b['env'].get(key)}")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print(f"WARNING: comparing {a['workload']}/trace{a['trace']} "
              f"with {b['workload']}/trace{b['trace']}")
    for name, m in a["metrics"].items():
        if name not in b["metrics"]:
            print(f"{name:45} {m['value']:>14.6g} {'missing':>14}")
            continue
        va, vb = m["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else ""
        print(f"{name:45} {va:>14.6g} {vb:>14.6g} {m['unit']:>12} {ratio}")


if __name__ == "__main__":
    main()
