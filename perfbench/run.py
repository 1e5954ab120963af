"""equilab benchmark: one workload per invocation, printed as JSON.

    python3 perfbench/run.py --workload vds16 --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The benchmark builds the package
in place (`setup.py build_ext --inplace`, a no-op without Cython), then
drives `equilab.bench.experiments.run_experiment` in fresh worker
processes: a single closed-loop client, one experiment at a time, BLAS and
OpenMP pinned to one thread.

End-to-end metrics (--trace 0), all measured with tracing off:
  setup_s      median time from process start to ready-to-run, over
               SETUP_SAMPLES fresh interpreters
  run_s        median wall time of one run_experiment call, outputs included
  peak_rss_mb  the worker process's peak RSS (getrusage)
With --trace 1 the same runs are followed by traced ones, and the last line
carries the per-layer metrics instead (see tracer.py).

Every run is checked: a run fails if it raises, if its outputs differ from
another run of the same seed, if its verdict is wrong (workloads.verdict),
if the reference-seed run drifts from reference.json, or (vds16) if a kappa
is further than checks.KAPPA_TOL from a 40-digit mpmath oracle.  The line
before the last holds the full report: environment, item counts, checks,
error rate, every run's time and every metric.  `--workload all` runs each
workload in turn and prints one table.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before numpy loads, here and in every child process
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402

import checks  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, read_csv, verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
# workers must be done by then; the checks after them take up to ~10 s more
TIME_LIMIT_S = 150.0
BUILD_LIMIT_S = 850.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build():
    """Build extension modules in place once per checkout."""
    stamp = STATE / "built"
    if stamp.exists():
        return
    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "build.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(STATE / "build_temp")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=BUILD_LIMIT_S)
    if proc.returncode != 0:
        fail(f"build failed, see {STATE / 'build.log'}")
    stamp.write_text("ok\n")


class Worker:
    """A worker process, timed from spawn to its ready line."""

    def __init__(self, args, mode, out_dir, deadline):
        self.deadline = deadline
        self.log = open(STATE / "worker.log", "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--mode", mode, "--out", str(out_dir)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith('{"ready"'):
            self.finish()
            fail(f"worker did not start (exit {self.proc.returncode}), see {self.log.name}")

    def finish(self):
        """Wait for the worker; return its last stdout line."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            fail("worker ran past the time limit")
        finally:
            self.log.close()
        if self.proc.returncode != 0:
            fail(f"worker exited with {self.proc.returncode}, see {STATE / 'worker.log'}")
        lines = out.strip().splitlines()
        return lines[-1] if lines else ""


def percentile_line(times):
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    qs = statistics.quantiles(times, n=100, method="inclusive") if len(times) > 1 else []
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100.0 >= 10:
            return {f"p{p}": qs[p - 1]}
    return {}


def check_runs(wl, args, result):
    """Return (indices of failed runs, check report, list of problems)."""
    runs = result["runs"]
    failed = {i for i, r in enumerate(runs) if r["error"] is not None}
    report, problems = {}, []
    by_seed = {}
    for i, r in enumerate(runs):
        by_seed.setdefault(r["seed"], []).append(i)
    for seed, idx in by_seed.items():
        digests = [runs[i]["digest"] for i in idx if runs[i]["digest"] is not None]
        if not digests:
            problems.append(f"seed {seed}: every run raised")
            continue
        modal = max(set(digests), key=digests.count)
        differ = [i for i in idx if runs[i]["digest"] not in (None, modal)]
        if differ:
            failed.update(differ)
            problems.append(f"seed {seed}: runs {differ} differ from the other runs")
        kept = next((runs[i] for i in idx if "dir" in runs[i]), None)
        if kept is None or kept["digest"] != modal:
            problems.append(f"seed {seed}: no kept output with the common digest")
            continue
        kept = kept["dir"]
        bad = []
        wrong = verdict(wl, kept)
        if wrong:
            bad.append(f"verdict: {wrong}")
        if seed == REFERENCE_SEED:
            drift = checks.compare_to_reference(wl.name, kept)
            bad += [f"reference: {drift}"] if drift else []
        if wl.kind == "vds" and seed == args.seed:
            err = checks.vds_kappa_rel_err(kept, seed, wl.params["size"])
            report["kappa_rel_err"] = err
            if not err <= checks.KAPPA_TOL:
                bad.append(f"kappa_rel_err {err:.3g} > {checks.KAPPA_TOL:g}")
        report[f"outputs.seed{seed}"] = "; ".join(bad) or "ok"
        if bad:
            failed.update(i for i in idx if runs[i]["digest"] == modal)
            problems += [f"seed {seed}: {b}" for b in bad]

    agreement = checks.kernel_agreement()
    if agreement is None:
        report["kernel_agreement"] = "skipped: compiled extension does not import"
    else:
        report["kernel_agreement"] = "; ".join(agreement) or "ok"
        problems += [f"kernel agreement: {a}" for a in agreement]
    return failed, report, problems


def traced_metrics(wl, result, run_s, kept_dir):
    traced = result["traced"]
    ok = [t for t in traced if "error" not in t]
    errors = [t["error"] for t in traced if "error" in t]
    if not ok:
        return None, errors
    m = {k: statistics.median(t["metrics"][k] for t in ok) for k in ok[0]["metrics"]}
    traced_s = statistics.median(t["seconds"] for t in ok)
    m["run_s_traced"] = traced_s
    m["trace_overhead_s"] = traced_s - run_s
    m["unattributed_s"] = statistics.median(t["unattributed_s"] for t in ok)
    skipped = 0
    if wl.kind == "hessian_compare" and kept_dir is not None:
        skipped = int(read_csv(os.path.join(kept_dir, "summary.csv"))[0]["n_skipped"])
    m["hesslab.points_skipped"] = skipped
    return m, errors


def metric_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_one(args):
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "equilab" / "__init__.py").is_file() or \
            not (ROOT / "setup.py").is_file():
        fail(f"{ROOT} is not an equilab source checkout")
    build()
    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = STATE / f"out-{wl.name}-{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(args, "setup", out_root, deadline)
        setup.append(w.setup_s)
        w.finish()
    w = Worker(args, "trace" if args.trace else "run", out_root, deadline)
    setup.append(w.setup_s)
    result = json.loads(w.finish())

    sys.path.insert(0, str(ROOT / "src"))
    failed, checks_report, problems = check_runs(wl, args, result)
    runs = result["runs"]
    timed = [r["seconds"] for r in runs if r["phase"] == "timed"]
    run_s = statistics.median(timed)
    e2e_units, layer_units = metric_units()
    if args.trace:
        kept = next((r["dir"] for r in runs if r["seed"] == args.seed and "dir" in r), None)
        layer, trace_errors = traced_metrics(wl, result, run_s, kept)
        problems += trace_errors if layer else ["no traced run succeeded"] + trace_errors
        metrics = {k: {"value": (layer or {}).get(k, 0.0), "unit": u}
                   for k, u in layer_units.items()}
        if (out_root / "spans.jsonl").exists():
            shutil.move(out_root / "spans.jsonl", STATE / f"spans-{wl.name}-{args.seed}.jsonl")
    else:
        values = {"setup_s": statistics.median(setup), "run_s": run_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in e2e_units.items()}
    shutil.rmtree(out_root, ignore_errors=True)

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {"kernel_backend": result["backend"], **result["versions"],
                "mpmath": mpmath.__version__, "platform": platform.platform(),
                "nproc": len(os.sched_getaffinity(0)),
                "threads": {v: os.environ[v] for v in THREAD_VARS}},
        "items_per_run": {wl.item_unit: wl.items()},
        "checks": checks_report,
        "problems": problems,
        "error_rate": len(failed) / len(runs),
        "run_s": {"median": run_s, "samples": len(timed), **percentile_line(timed)},
        "setup_s_samples": setup,
        "runs": [{k: r[k] for k in ("phase", "seed", "seconds", "error")} for r in runs],
        "metrics": metrics,
    }
    with open(STATE / f"report-{wl.name}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed and not problems, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        run_one(args)
        return
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, m in last["metrics"].items():
            print(f"{name:8} {key:45} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:8} {'correct':45} {str(last['correct']):>14} "
              f"({last['failed']}/{last['attempted']} runs failed)")


if __name__ == "__main__":
    main()
