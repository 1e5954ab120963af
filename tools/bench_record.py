"""Record the benchmark's end-to-end metrics as BENCH_<label>.json.

    python3 tools/bench_record.py [--checkout DIR] [--label LABEL]

Runs the unchanged `perfbench/run.py` of a source checkout (by default the
one this script lives in) RUNS (5) times per workload at seed SEED (1),
taking the workloads, the run length and the end-to-end metric names from
that checkout's BENCHMARK.json.  The workloads take turns, one run each per round, so slow
spells of a shared host spread over all of them.  The file is written at
the root of the repository this script lives in and holds:

  env        the first run's environment block (kernel backend, Python,
             NumPy, platform, CPU count, thread settings)
  workloads  per workload and metric: median, quartiles (inclusive
             method), every sample, and how many runs were correct

The label defaults to the checkout's short commit id, marked "-dirty" when
its src/ or perfbench/ has uncommitted changes.  The file is a record, not
a gate.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
SEED = 1


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def git_state(checkout):
    """(commit id, dirty flag) of checkout; the flag covers src/ and perfbench/.

    Read before the first run, so a checkout that is not a git repository
    (e.g. one made with `git archive`) exits at once instead of after
    every run.
    """
    try:
        commit = git(checkout, "rev-parse", "HEAD")
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"{checkout} is not a git checkout: {exc.stderr.strip()}") from None
    return commit, bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench"))


def run_once(checkout, workload, seed, seconds):
    """One perfbench/run.py invocation; returns (report, summary)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench/run.py --workload {workload} failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    commit, dirty = git_state(checkout)
    label = args.label or commit[:7] + ("-dirty" if dirty else "")
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    env, results = None, {name: [] for name in names}
    for r in range(RUNS):
        for name in names:
            report, summary = run_once(checkout, name, SEED, bench["run_seconds"])
            env = env or report["env"]
            results[name].append(summary)
            print(f"round {r + 1}/{RUNS} {name}: run_s "
                  f"{summary['metrics']['run_s']['value']:.4g} s, correct "
                  f"{summary['correct']}", file=sys.stderr)

    record = {
        "label": label,
        "checkout_commit": commit,
        "uncommitted_changes": dirty,
        "command": bench["command"],
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "runs": RUNS,
        "env": env,
        "workloads": {
            name: {
                "correct_runs": sum(s["correct"] for s in runs),
                "failed_per_attempted": [[s["failed"], s["attempted"]] for s in runs],
                "metrics": {m: {"unit": unit, **summarize(
                    [s["metrics"][m]["value"] for s in runs])}
                    for m, unit in metrics.items()},
            }
            for name, runs in results.items()
        },
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)


if __name__ == "__main__":
    main()
