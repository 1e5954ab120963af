"""Record the benchmark's end-to-end metrics as bench_records/BENCH_<label>.json.

    python3 tools/bench_record.py [--checkout DIR] [--label LABEL] [--base DIR]
                                  [--runs N] [--seed S]
    python3 tools/bench_record.py --table

Runs the unchanged `perfbench/run.py` of a source checkout (by default the
one this script lives in) N times (default 5) per workload at seed S
(default 1),
taking the workloads, the run length and the end-to-end metric names from
that checkout's BENCHMARK.json.  The workloads take turns, one run each per round, so slow
spells of a shared host spread over all of them.  The file is written in
the bench_records directory of the repository this script lives in and
holds:

  checkout_commit, checkout_tree
             the checkout's HEAD commit and that commit's tree id (`git
             rev-parse HEAD^{tree}`), with uncommitted_changes telling
             whether src/ or perfbench/ differ from it; a commit that is
             later squashed or rebased gets a new id but keeps its tree,
             so the tree still names the code that ran
  runs, seed the N and S of the invocation
  env        the first run's environment block (kernel backend, Python,
             NumPy, platform, CPU count, thread settings); every run of
             the session reports the same kernel backend
  bytecode   whether PYTHONDONTWRITEBYTECODE was set, and how many of the
             checkout's src/equilab modules had a .pyc that matches their
             source after the runs (the in-place build writes them); a
             process that may not write bytecode compiles every module
             without one, which moves setup_s and peak_rss_mb, so every
             module must have one
  workloads  per workload and metric: median, quartiles (inclusive
             method), every sample, and how many runs were correct

With --base, a second checkout (typically the parent commit) is recorded
in the same invocation, so the pair shares the host's drift: each round
runs every workload on both checkouts back to back, base first in even
rounds and checkout first in odd ones, so each workload's runs go in
ABBA order.  One file is written per checkout; each names its partner and
the shared session.  If a run fails on either side, or reports another
kernel backend than the session's first run (a stale or missing in-place
build can put one side on the numpy fallback), or a side's src/equilab
has a module whose .pyc is missing or stale after the runs (a source
edited after the checkout was built; rebuild it with `python setup.py
build_ext --inplace --force`), the script exits before writing any file.

The checkout's label is LABEL; the base's, and the checkout's without
--label, is the short commit id, marked "-dirty" when its src/ or
perfbench/ has uncommitted changes, "-python" when EQUILAB_PURE_PYTHON
selects the numpy fallback and "-seed<S>" for a seed other than 1, so
records of one commit at two seeds do not collide.  The file is a record, not a gate: if a
BENCH_<label>.json the invocation would write already exists, it exits
before the first run and overwrites nothing.

With --table it runs nothing and prints the trajectory of the records in
bench_records, one markdown table row per BENCH_*.json in the order git
history first added its file name, at the root of the repository (where
records lived before bench_records) or in bench_records, so the move
kept their order (files it has not committed last, by name): the label,
partner, seed and kernel backend, then per workload the medians of
run_s, peak_rss_mb and setup_s.
"""

import argparse
import importlib.util
import json
import os
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the directory under the repository root that holds the records
RECORDS = "bench_records"
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


def pyc_is_current(source):
    """Whether source's .pyc (optimization level 0) matches it: the magic
    number of this interpreter, and the source's hash for a hash-based
    .pyc, its mtime and size for a timestamp one."""
    try:
        with open(importlib.util.cache_from_source(source, optimization=""), "rb") as fh:
            head = fh.read(16)
    except OSError:
        return False
    if head[:4] != importlib.util.MAGIC_NUMBER:
        return False
    if int.from_bytes(head[4:8], "little") & 1:
        return head[8:] == importlib.util.source_hash(source.read_bytes())
    st = source.stat()
    return head[8:] == struct.pack("<LL", int(st.st_mtime) & 0xFFFF_FFFF,
                                   st.st_size & 0xFFFF_FFFF)


def bytecode_state(checkout):
    """What decides whether a fresh interpreter compiles the package."""
    sources = sorted((checkout / "src" / "equilab").rglob("*.py"))
    return {"PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "package_modules": len(sources),
            "current_pyc": sum(map(pyc_is_current, sources))}


def summarize(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def record(side, bench, results, env, runs, seed):
    """The BENCH_<label>.json payload of one checkout's runs at seed, made
    after them, so the bytecode state is the one the runs left."""
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {
        "label": side.label,
        "checkout_commit": side.commit,
        "checkout_tree": side.tree,
        "uncommitted_changes": side.dirty,
        "command": bench["command"],
        "seed": seed,
        "run_seconds": bench["run_seconds"],
        "runs": runs,
        "env": env,
        "bytecode": bytecode_state(side.checkout),
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


# the end-to-end metrics of a --table cell, with their formats
TABLE_METRICS = (("run_s", ".4g"), ("peak_rss_mb", ".2f"), ("setup_s", ".3f"))


def committed_order(root):
    """The BENCH_*.json file names of the checkout root in the order git
    history first added each, at root or under RECORDS, oldest first;
    empty when root is not a git checkout."""
    try:
        paths = git(root, "log", "--reverse", "--no-renames", "--diff-filter=A", "--format=",
                    "--name-only", "--", "BENCH_*.json", f"{RECORDS}/BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return []
    return list(dict.fromkeys(Path(path).name for path in paths.splitlines() if path))


def trajectory_table(root):
    """The markdown table of the BENCH_*.json records in root's RECORDS
    directory (see the module docstring for its rows and order)."""
    order = {name: i for i, name in enumerate(committed_order(root))}
    paths = sorted((root / RECORDS).glob("BENCH_*.json"),
                   key=lambda p: (order.get(p.name, len(order)), p.name))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    workloads = list(dict.fromkeys(w for rec in records for w in rec["workloads"]))
    cell = " / ".join(name for name, _ in TABLE_METRICS)
    lines = ["| label | partner | seed | backend | "
             + " | ".join(f"{w}: {cell}" for w in workloads) + " |",
             "|" + "---|" * (4 + len(workloads))]
    for rec in records:
        cells = [rec["label"], rec.get("partner", "-"), str(rec.get("seed", "-")),
                 rec["env"]["kernel_backend"]]
        for w in workloads:
            if w not in rec["workloads"]:
                cells.append("-")
                continue
            metrics = rec["workloads"][w]["metrics"]
            cells.append(" / ".join(format(metrics[m]["median"], fmt)
                                    for m, fmt in TABLE_METRICS))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


class Side(NamedTuple):
    checkout: Path
    commit: str
    tree: str
    dirty: bool
    label: str


def side(path, label=None, seed=SEED):
    """A checkout to record at seed, its git state read before any run."""
    checkout = path.resolve()
    commit, dirty = git_state(checkout)
    tree = git(checkout, "rev-parse", commit + "^{tree}")
    if label is None:
        pure = os.environ.get("EQUILAB_PURE_PYTHON", "") not in ("", "0")
        label = (commit[:7] + ("-dirty" if dirty else "") + ("-python" if pure else "")
                 + (f"-seed{seed}" if seed != SEED else ""))
    return Side(checkout, commit, tree, dirty, label)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--label")
    parser.add_argument("--base", type=Path,
                        help="a second checkout, recorded in the same session")
    parser.add_argument("--runs", type=int, default=RUNS,
                        help=f"runs per workload and checkout (default {RUNS}, at least 2)")
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"the seed of every run (default {SEED})")
    parser.add_argument("--table", action="store_true",
                        help="run nothing; print the trajectory of the BENCH_*.json records")
    args = parser.parse_args(argv)
    if args.table:
        print(trajectory_table(ROOT))
        return
    if args.runs < 2:
        parser.error("--runs must be at least 2, for the quartiles")
    sides = [side(args.checkout, args.label, args.seed)]
    if args.base is not None:
        sides.insert(0, side(args.base, seed=args.seed))
        if sides[0].label == sides[1].label:
            raise SystemExit(f"both checkouts would be labelled {sides[0].label}; "
                             "pass --label")
    outs = [ROOT / RECORDS / f"BENCH_{s.label}.json" for s in sides]
    taken = [str(out) for out in outs if out.exists()]
    if taken:
        raise SystemExit(f"already recorded, move away first: {', '.join(taken)}")
    # the recorded checkout's BENCHMARK.json sets the workloads of both sides
    bench = json.loads((sides[-1].checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    env = [None] * len(sides)
    session_backend = None
    results = [{name: [] for name in names} for _ in sides]
    for r in range(args.runs):
        for name in names:
            # each workload's runs go base, checkout, checkout, base, ...
            for i in (range(len(sides)) if r % 2 == 0 else reversed(range(len(sides)))):
                report, summary = run_once(sides[i].checkout, name, args.seed,
                                           bench["run_seconds"])
                env[i] = env[i] or report["env"]
                backend = report["env"]["kernel_backend"]
                session_backend = session_backend or backend
                if backend != session_backend:
                    raise SystemExit(f"round {r + 1} {name} {sides[i].label} ran on the "
                                     f"{backend} kernel backend, the session's first run on "
                                     f"{session_backend}; nothing written")
                results[i][name].append(summary)
                print(f"round {r + 1}/{args.runs} {name} {sides[i].label}: run_s "
                      f"{summary['metrics']['run_s']['value']:.4g} s, correct "
                      f"{summary['correct']}", file=sys.stderr)

    records = [record(s, bench, res, e, args.runs, args.seed)
               for s, res, e in zip(sides, results, env)]
    for s, rec in zip(sides, records):
        code = rec["bytecode"]
        if code["current_pyc"] < code["package_modules"]:
            raise SystemExit(f"{s.label}: {code['current_pyc']} of {code['package_modules']} "
                             f"modules under {s.checkout / 'src' / 'equilab'} have current "
                             "bytecode; rebuild with `python setup.py build_ext --inplace "
                             "--force`; nothing written")
    if len(records) == 2:
        session = {"started": started, "order": "ABBA",
                   "base": sides[0].label, "checkout": sides[1].label}
        for rec, partner in zip(records, sides[::-1]):
            rec["partner"] = partner.label
            rec["session"] = session
    outs[0].parent.mkdir(exist_ok=True)
    for out, rec in zip(outs, records):
        out.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
        print(out)


if __name__ == "__main__":
    main()
