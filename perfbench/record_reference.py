"""Record reference.json: sampled outputs of every workload at the
reference seed, for run.py's reference check.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it from the root of a source checkout, and only when a change to the
program is meant to change these numbers; say why in the change.
"""

import json
import os
import tempfile

from run import THREAD_VARS  # noqa: F401  (pins BLAS threads before numpy loads)

import checks
from equilab.bench.config import resolve_config
from equilab.bench.experiments import run_experiment
from workloads import REFERENCE_SEED, WORKLOADS, config_dict


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for name, wl in WORKLOADS.items():
            out_dir = os.path.join(tmp, name)
            run_experiment(resolve_config(config_dict(wl, REFERENCE_SEED)), out_dir)
            reference[name] = checks.snapshot(out_dir)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
