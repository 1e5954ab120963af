"""The four benchmark workloads: configs, item counts and output verdicts.

Each workload is one experiment kind of `equilab.bench.experiments` at a
fixed config; only the seed varies.  The configs are chosen so that each
workload loads a different set of layers:

- vds16: hundreds of 16x16 Jacobi SVDs per run (3 per trial); the
  kernel's per-rotation cost dominates and it is the only workload that
  reaches `precond`.
- quad64: a few 64x64 SVDs repeated on the same matrices (10 calls on 3
  distinct matrices) plus multi-MB GD trace CSVs, so `quadlab` and the
  `bench` writers carry load beside the kernel.
- train7: seven training arms plus a two-point lr sweep; `net`
  forward/backward and the SGD loop carry it, `densela` only sees tiny
  per-epoch weight condition numbers.
- hess121: FD Hessians of the 121-parameter 2-16-4-1 tanh fixture of
  acceptance 08 at two points; the only workload that reaches `hesslab`.

Nothing here imports equilab, so the module is cheap to load anywhere.
"""

import csv
import os
from dataclasses import dataclass

ARMS7 = ["none", "bn", "bn+ws", "bn+w", "bn+e", "e-static", "e-reparam"]

# the seed whose outputs are recorded in reference.json
REFERENCE_SEED = 0

# kernel column counts reported as kernels.jacobi_sweeps.ms_p50.n<cols>:
# train7's first-layer weights, vds16, quad64 and hess121
KERNEL_COLS = (2, 16, 64, 121)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    item_unit: str

    def items(self):
        """Work items one run_experiment call performs at this config."""
        p = self.params
        if self.kind == "vds":
            return p["trials"]
        if self.kind == "quad":
            return p["iters"] * (1 + len(p["preconditioners"]))
        if self.kind == "train_compare":
            batches = -(-p["n_samples"] // p["batch_size"])
            runs = len(p["arms"]) * (1 + len(p["lr_grid"]))
            return runs * p["epochs"] * batches
        return p["n_points"]


WORKLOADS = {
    w.name: w for w in (
        Workload("vds16", "vds", {"trials": 10, "size": 16}, "trials"),
        Workload("quad64", "quad",
                 {"dim": 64, "kappa": 1e6, "iters": 2000,
                  "preconditioners": ["row_equilibration", "jacobi"]},
                 "gd_iterations"),
        Workload("train7", "train_compare",
                 {"task": "two_moons", "arms": ARMS7, "widths": [2, 16, 1],
                  "n_samples": 256, "batch_size": 32, "epochs": 20,
                  "init_row_spread": 100.0, "lr_grid": [0.1, 1.0]},
                 "sgd_steps_scheduled"),
        Workload("hess121", "hessian_compare",
                 {"widths": [2, 16, 4, 1], "activation": "tanh", "n_samples": 128,
                  "teacher_kappa": 1e3, "n_points": 2, "conditioned": "all"},
                 "hessian_points"),
    )
}


def config_dict(workload, seed):
    """Raw config object for `equilab.bench.config.resolve_config`."""
    return {"kind": workload.kind, "seed": int(seed), **workload.params}


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def verdict(workload, out_dir):
    """Return None when the run's outputs satisfy the workload's verdict,
    else a one-line reason."""
    if workload.kind == "vds":
        trials = read_csv(os.path.join(out_dir, "vds_trials.csv"))
        if not trials:
            return "no full-rank trial"
        bad = [r["trial"] for r in trials if r["relaxed_ok"] != "true"]
        if bad:
            return f"relaxed Van der Sluis bound fails on trials {bad}"
        return None
    summary = read_csv(os.path.join(out_dir, "summary.csv"))
    if workload.kind == "quad":
        bad = [r["arm"] for r in summary if r["diverged"] != "false"]
        if len(summary) != 1 + len(workload.params["preconditioners"]):
            return f"expected one summary row per arm, got {len(summary)}"
        return f"arms diverged: {bad}" if bad else None
    if workload.kind == "train_compare":
        arms = workload.params["arms"]
        if [r["arm"] for r in summary] != arms:
            return "summary.csv does not list every arm"
        bad = [r["arm"] for r in summary if r["diverged"] != "false"]
        if bad:
            return f"arms diverged at the base lr: {bad}"
        sweep = read_csv(os.path.join(out_dir, "lr_sweep.csv"))
        if [r["arm"] for r in sweep] != arms:
            return "lr_sweep.csv does not list every arm"
        return None
    if int(summary[0]["n_comparable"]) < 1:
        return "no comparable Hessian point"
    return None
