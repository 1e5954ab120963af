"""One benchmark process for one workload: set up, then run experiments.

Started by run.py, never by hand.  It prints {"ready": ...} once equilab
and the experiment modules are imported, the kernel backend is chosen and
the configs are resolved, so the parent can time set-up from process
start.  With --mode setup it exits there.  Otherwise it runs, one after
another:

1. one untimed run at the reference seed, which also warms caches;
2. timed runs at --seed until --seconds have passed (at least two, so
   their outputs can be compared);
3. with --mode trace, the same again with span tracing on.

Each run writes into its own directory under --out.  The first successful
run per seed keeps its directory for the parent's checks; the others are
reduced to a digest of their output bytes and deleted.  The last line of
stdout is a JSON object with the per-run timings, digests and errors, the
process's peak RSS and, when traced, the per-layer metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import sys
import time
import traceback

import equilab
import numpy as np
import scipy
from equilab import densela
from equilab.bench.config import resolve_config
from equilab.bench.experiments import run_experiment

import tracer
from workloads import KERNEL_COLS, REFERENCE_SEED, WORKLOADS, config_dict


def output_digest(out_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue  # carries wall-clock timings by design
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, out_root):
        self.out_root = out_root
        self.runs = []
        self.kept = {}

    def run(self, phase, cfg):
        out_dir = os.path.join(self.out_root, f"run{len(self.runs)}")
        error = None
        t0 = time.perf_counter()
        try:
            run_experiment(cfg, out_dir)
        except Exception:  # a failed run is counted, not fatal
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        record = {"phase": phase, "seed": cfg.seed, "seconds": seconds, "error": error,
                  "digest": None if error else output_digest(out_dir)}
        if error is None and cfg.seed not in self.kept:
            self.kept[cfg.seed] = out_dir
            record["dir"] = out_dir
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.runs.append(record)
        return record

    def run_for(self, phase, cfg, seconds, min_runs):
        start = time.perf_counter()
        for n in itertools.count(1):
            self.run(phase, cfg)
            if n >= min_runs and time.perf_counter() - start >= seconds:
                return


def traced_runs(runner, cfg, seconds, spans_path):
    """Traced runs for `seconds`; per-run layer metrics, first run's spans
    written to spans_path as JSON lines."""
    tr = tracer.Tracer()
    out = []
    start = time.perf_counter()
    with tracer.traced(tr):
        while not out or time.perf_counter() - start < seconds:
            tr.reset()
            record = runner.run("traced", cfg)
            if record["error"] is not None:
                out.append({"error": record["error"]})
                continue
            try:
                metrics, unattributed = tracer.layer_metrics(
                    tr.spans, record["seconds"], KERNEL_COLS)
            except ValueError as exc:
                out.append({"error": f"span accounting: {exc}"})
                continue
            out.append({"seconds": record["seconds"], "unattributed_s": unattributed,
                        "metrics": metrics})
            if len(out) == 1:
                with open(spans_path, "w", encoding="utf-8") as fh:
                    for s in tr.spans:
                        fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs]) + "\n")
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    cfg = resolve_config(config_dict(wl, args.seed))
    ref_cfg = resolve_config(config_dict(wl, REFERENCE_SEED))
    print(json.dumps({"ready": True, "backend": densela.KERNEL_BACKEND}), flush=True)
    if args.mode == "setup":
        return

    runner = Runner(args.out)
    runner.run("reference", ref_cfg)
    runner.run_for("timed", cfg, args.seconds, min_runs=2)
    traced = None
    if args.mode == "trace":
        traced = traced_runs(runner, cfg, args.seconds,
                             os.path.join(args.out, "spans.jsonl"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "backend": densela.KERNEL_BACKEND,
        "versions": {"equilab": equilab.__version__, "python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "runs": runner.runs,
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
    }), flush=True)


if __name__ == "__main__":
    main()
