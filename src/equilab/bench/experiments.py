"""Experiment drivers behind the CLI.

`run_experiment` owns a run's lifecycle: it creates the RunManifest, times
the kind's runner and writes manifest.json.  A runner takes the resolved
ExperimentConfig, the output directory and that manifest, and writes every
CSV/SVG file through `_emit`, or `_emit_trace` for a trace CSV, which
streams it block by block (atomic rename, then listed in the manifest).
Determinism contract: rerunning with the same (config, seed) reproduces all
CSV and SVG files byte for byte.  Wall-clock numbers therefore never enter
those files; they are reported in the manifest only.

Trials and arms each derive a private RNG stream from (seed, index), so the
results do not depend on execution order.
"""

import hashlib
import os
import re
import time

import numpy as np

import equilab
from equilab import densela, precond, quadlab
from equilab import hesslab
from equilab._csvfmt import csv_text
from equilab.bench.config import ExperimentConfig, file_sha256
from equilab.bench.manifest import RunManifest, atomic_write_chunks, atomic_write_text
from equilab.bench.svgplot import LineSeries, emit_svg
from equilab.errors import ArmMismatchError, ConfigError, EquilabError, RankDeficientError
from equilab.net.data import teacher_student_regression, two_moons
from equilab.net.layers import DenseSpec
from equilab.net.network import Network
from equilab.net.train import train

# training-comparison arms: name -> (hidden normalization tag, conditioning)
ARMS = {
    "none": ("none", "none"),
    "bn": ("batch_norm", "none"),
    "bn+ws": ("batch_norm+weight_standardization", "none"),
    "bn+w": ("batch_norm+weight_normalization", "none"),
    "bn+e": ("batch_norm", "equilibrate_reparam"),
    "e-static": ("none", "equilibrate_static"),
    "e-reparam": ("none", "equilibrate_reparam"),
}


def list_arms():
    return tuple(ARMS)


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _arm_filename(arm):
    return re.sub(r"[+\-]", "_", arm)


def _emit(manifest, out_dir, name, text):
    """Write one output file atomically and list it in the manifest."""
    atomic_write_text(os.path.join(out_dir, name), text)
    manifest.add_file(name)


def _emit_trace(manifest, out_dir, name, trace):
    """Write a trace's CSV one block of rows at a time (`csv_blocks`), so
    its whole text never exists, atomically, and list it in the manifest."""
    atomic_write_chunks(os.path.join(out_dir, name), trace.csv_blocks())
    manifest.add_file(name)


def _emit_csv(manifest, out_dir, name, lines):
    _emit(manifest, out_dir, name, csv_text(lines))


def scale_first_layer_rows(net, seed, spread):
    """Imbalance the first layer in place: the rows of its (in, out) W, one
    per input unit, scaled by factors geomspace(spread, 1), shuffled by a
    stream derived from seed.

    This is the desk-scale lever for an ill-conditioned starting point:
    oversized rows raise kappa(W) at init, which dense equilibration (one
    row per input unit, the same rows) removes by construction while the
    plain arm has to train its way out.  spread 1 is a no-op.
    """
    if spread < 1.0:
        raise ConfigError(f"init_row_spread must be >= 1, got {spread!r}")
    if spread == 1.0:
        return net
    w = net.layers[0].w
    scales = np.geomspace(spread, 1.0, w.shape[0])
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    rng.shuffle(scales)
    w *= scales[:, None]
    return net


# ---------------------------------------------------------------------------
# train_compare


def _task_data(cfg):
    p = cfg.params
    if p["task"] == "teacher_regression":
        x, y, _ = teacher_student_regression(
            p["n_samples"], seed=cfg.seed, widths=tuple(p["widths"]),
            kappa=p["teacher_kappa"], noise=p["noise"], activation=p["activation"])
        return x, y, "mse", "identity"
    x, y = two_moons(p["n_samples"], noise=max(p["noise"], 1e-12), seed=cfg.seed)
    return x, y, "bce", "sigmoid_output"


def _shared_init_digest(net):
    # hash only w and b: normalization arms add their own gamma/beta/g
    # parameters, which are not part of the shared starting point
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(np.ascontiguousarray(layer.w).tobytes())
        h.update(np.ascontiguousarray(layer.b).tobytes())
    return h.hexdigest()


def _arm_network(cfg, arm, out_activation):
    """Fresh network for one arm, sharing raw init weights across arms."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}; expected one of {list(ARMS)}")
    p = cfg.params
    widths = p["widths"]
    norm, cond = ARMS[arm]
    specs = []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        specs.append(DenseSpec(widths[i], widths[i + 1],
                               activation=out_activation if last else p["activation"],
                               normalization="none" if last else norm))
    net = Network(specs, seed=100 + cfg.seed)
    scale_first_layer_rows(net, cfg.seed, p["init_row_spread"])
    shared = _shared_init_digest(net)
    if cond != "none":
        net = net.with_conditioning(cond, which="hidden")
    return net, shared


def _first_epoch_at(losses, threshold):
    hits = np.flatnonzero(np.asarray(losses) <= threshold)
    return int(hits[0]) if hits.size else None


def _step_time_quantiles(step_times):
    """Median and p90 of one run's per-step wall times (None without steps).

    Linear interpolation between order statistics, np.percentile's default;
    np.percentile and np.median themselves load numpy.ma, which adds about
    1.5 MB to a run's peak RSS.
    """
    n = len(step_times)
    if not n:
        return {"median": None, "p90": None}
    median, p90 = np.interp([0.5 * (n - 1), 0.9 * (n - 1)], np.arange(n),
                            np.sort(step_times))
    return {"median": float(median), "p90": float(p90)}


def _distinct_lrs(lr_grid):
    return sorted({float(v) for v in lr_grid})


def _train_arm(cfg, data, arm, lead, grid):
    """Train one arm from its shared init at the rates `lead` followed by
    the rates `grid`, as one parameter stack (net.train).  Only the first
    lead rate records kappa.

    Returns every rate's trace, the largest grid rate whose full run stayed
    finite (None if none did) and the arm's shared-init digest.
    """
    x, y, loss, out_act = data
    p = cfg.params
    net, shared = _arm_network(cfg, arm, out_act)
    lrs = [*lead, *grid]
    traces = train(net, x, y, loss=loss, lr=lrs, momentum=p["momentum"],
                   epochs=p["epochs"], batch_size=p["batch_size"], seed=cfg.seed,
                   record_kappa=bool(lead))
    best = max((lr for lr, t in zip(grid, traces[len(lead):])
                if not t.diverged and np.isfinite(t.train_loss[-1])), default=None)
    return traces, best, shared


def max_nondiverging_lr(cfg, arm, lr_grid):
    """Largest grid lr at which the arm's full run stays finite, or None.

    The distinct grid lrs train as one parameter stack (net.train), every
    member a bit-identical copy of its own full run, so the answer does not
    depend on the grid's order or on divergence being monotone in lr.
    run_train_compare's lr_sweep.csv comes from the same stacked training.
    """
    grid = _distinct_lrs(lr_grid)
    return _train_arm(cfg, _task_data(cfg), arm, [], grid)[1] if grid else None


def run_train_compare(cfg: ExperimentConfig, out_dir, manifest):
    """Train every arm at lr; with an lr_grid, each arm's run at lr and its
    sweep over the distinct grid lrs train as one parameter stack.  Then
    notes.stacked_lrs lists each arm's rates and notes.stacked_steps how
    many stacked steps updated each of them, so that the size of the stack
    behind each step time can be told."""
    p = cfg.params
    data = _task_data(cfg)
    loss = data[2]
    grid = _distinct_lrs(p["lr_grid"])

    traces = {}
    shared_digests = {}
    swept = {}
    for arm in p["arms"]:
        runs, swept[arm], shared_digests[arm] = _train_arm(cfg, data, arm, [p["lr"]], grid)
        traces[arm] = runs[0]
        if grid:
            manifest.notes.setdefault("stacked_lrs", {})[arm] = [p["lr"], *grid]
            manifest.notes.setdefault("stacked_steps", {})[arm] = [
                len(t.step_times) for t in runs]

    # cross-arm fairness: identical raw init and identical data order; a
    # diverged trace's digest covers only the epochs it ran, so only arms
    # that stopped at the same epoch (or ran to the end) share one
    digests = set(shared_digests.values())
    data_digests = {}
    for t in traces.values():
        data_digests.setdefault(t.diverged_at, set()).add(t.data_digest)
    if len(digests) > 1:
        raise ArmMismatchError(f"arms started from different weights: {shared_digests}")
    if any(len(d) > 1 for d in data_digests.values()):
        raise ArmMismatchError("arms saw different data")

    series = []
    rows = ["arm,diverged,epochs_run,final_train_loss,final_eval_loss,final_accuracy,"
            "epochs_to_plain_final,kappa_w1_first,kappa_w1_last"]
    plain_final = None
    if "none" in traces and not traces["none"].diverged:
        plain_final = float(traces["none"].train_loss[-1])
    for arm in p["arms"]:
        t = traces[arm]
        _emit_trace(manifest, out_dir, f"train_{_arm_filename(arm)}.csv", t)
        manifest.diverged[arm] = bool(t.diverged)
        done = t.epochs_completed
        manifest.wall_time_per_step[arm] = float(np.mean(t.step_times)) if done else None
        manifest.notes.setdefault("step_time_s", {})[arm] = _step_time_quantiles(t.step_times)
        series.append(LineSeries(arm, np.arange(done, dtype=float), t.train_loss))
        reach = _first_epoch_at(t.train_loss, plain_final) if plain_final is not None else None
        # an arm that diverged in its first epoch leaves these cells empty
        finals = ([repr(float(t.train_loss[-1])), repr(float(t.eval_loss[-1]))]
                  if done else ["", ""])
        acc = "" if t.accuracy is None or not done else repr(float(t.accuracy[-1]))
        kappas = ([repr(float(t.kappa_weights[0, 0])), repr(float(t.kappa_weights[-1, 0]))]
                  if done else ["", ""])
        rows.append(",".join([
            arm, str(t.diverged).lower(), str(done), *finals, acc,
            "" if reach is None else str(reach), *kappas,
        ]))

    _emit_csv(manifest, out_dir, "summary.csv", rows)
    _emit(manifest, out_dir, "train_loss.svg",
          emit_svg(series, title=f"training loss ({p['task']})", xlabel="epoch",
                   ylabel="train loss", log_y=(loss == "mse")))

    if grid:
        rows = ["arm,max_nondiverging_lr"]
        for arm in p["arms"]:
            best = swept[arm]
            rows.append(f"{arm},{'' if best is None else repr(best)}")
        _emit_csv(manifest, out_dir, "lr_sweep.csv", rows)


# ---------------------------------------------------------------------------
# vds


def _imbalanced_matrix(rng, size):
    a = rng.standard_normal((size, size))
    a *= 10.0 ** rng.uniform(-3.0, 3.0, size=size)[:, None]
    return a


def run_vds(cfg: ExperimentConfig, out_dir, manifest):
    """Row equilibration against random competing diagonals, per trial."""
    trials, size = cfg["trials"], cfg["size"]
    if trials < 1:
        raise ConfigError("vds needs trials >= 1")
    root = float(np.sqrt(size))
    rows = ["trial,kappa_a,kappa_ea,kappa_pa,ratio,unrelaxed_ok,relaxed_ok"]
    excluded = 0
    n_unrelaxed = n_relaxed = n_done = 0
    max_ratio = 0.0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, t)))
        a = _imbalanced_matrix(rng, size)
        diag = 10.0 ** rng.uniform(-3.0, 3.0, size=size)
        try:
            kappa_a = densela.condition_number(a)
            kappa_ea, kappa_pa = precond.vds_trial(a, diag)
        except RankDeficientError:
            excluded += 1
            continue
        ratio = kappa_ea / kappa_pa
        unrelaxed = bool(kappa_ea <= kappa_pa * (1.0 + 1e-9))
        relaxed = bool(kappa_ea <= root * kappa_pa * (1.0 + 1e-9))
        n_done += 1
        n_unrelaxed += unrelaxed
        n_relaxed += relaxed
        max_ratio = max(max_ratio, ratio)
        rows.append(f"{t},{kappa_a!r},{kappa_ea!r},{kappa_pa!r},{ratio!r},"
                    f"{str(unrelaxed).lower()},{str(relaxed).lower()}")
    _emit_csv(manifest, out_dir, "vds_trials.csv", rows)
    summary = [
        "trials,excluded_rank_deficient,max_ratio,fraction_unrelaxed,fraction_relaxed",
        f"{trials},{excluded},{max_ratio!r},"
        f"{0.0 if n_done == 0 else n_unrelaxed / n_done!r},"
        f"{0.0 if n_done == 0 else n_relaxed / n_done!r}",
    ]
    _emit_csv(manifest, out_dir, "summary.csv", summary)
    manifest.notes["fraction_relaxed"] = 0.0 if n_done == 0 else n_relaxed / n_done


# ---------------------------------------------------------------------------
# quad


def _spd_problem(seed, dim, kappa):
    # well-conditioned SPD core with imbalanced symmetric row/column scales,
    # so diagonal scaling has conditioning to win back
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    core = (q * rng.uniform(1.0, 2.0, size=dim)) @ q.T
    s = np.geomspace(np.sqrt(kappa), 1.0, dim)
    rng.shuffle(s)
    a = core * np.outer(s, s)
    b = rng.standard_normal(dim)
    theta0 = rng.standard_normal(dim)
    return quadlab.QuadraticProblem(a, b), theta0


def _quad_scaling(kind, a):
    """Symmetric diagonal scaling d for the DAD arm of an SPD quadratic."""
    if kind == "row_equilibration":
        return 1.0 / np.sqrt(np.sqrt(densela.row_norms2(a)))
    if kind == "jacobi":
        return 1.0 / np.sqrt(np.diag(a))
    raise ConfigError(f"unknown quad preconditioner {kind!r}")


def run_quad(cfg: ExperimentConfig, out_dir, manifest):
    """GD on one SPD quadratic, plain vs diagonally scaled arms.

    SPD structure is preserved by scaling symmetrically: the arm solves
    the problem with matrix DAD and data Db in u = inv(D) theta.  Each arm
    steps at eta = rho * 2/sigma_1 of its own operator; progress is scored
    as excess loss of the original problem at the mapped-back iterates, so
    curves are directly comparable.  That loss is the arm's own recorded
    loss: L_arm(u) = 1/2 u^T DAD u - (Db)^T u = L(Du).  The arms step as
    one GD stack (quadlab.run_gd), each with the bits of its own run.
    """
    p = cfg.params
    problem, theta0 = _spd_problem(cfg.seed, p["dim"], p["kappa"])
    loss_star = problem.loss(problem.theta_star)

    # the unscaled arm is `problem` itself, so its SVD is not run twice
    arms = [("none", np.ones(problem.n), problem)]
    for kind in p["preconditioners"]:
        d = _quad_scaling(kind, problem.a)
        a_arm = problem.a * np.outer(d, d)
        arms.append((kind, d, quadlab.QuadraticProblem(a_arm, d * problem.b)))

    etas = [p["rho"] * quadlab.max_stable_lr(prob) for _, _, prob in arms]
    traces = quadlab.run_gd([prob for _, _, prob in arms], [theta0 / d for _, d, _ in arms],
                            etas, p["iters"])
    series = []
    rows = ["arm,kappa,eta,diverged,iters_to_tolerance,final_excess"]
    for (name, _, prob), eta, trace in zip(arms, etas, traces):
        excess = np.maximum(trace.losses - loss_star, 0.0)
        hit = np.flatnonzero(excess <= p["tolerance"])
        iters_to = int(hit[0]) if hit.size else -1
        rows.append(f"{name},{prob.kappa!r},{eta!r},{str(trace.diverged).lower()},"
                    f"{iters_to},{float(excess[-1])!r}")
        manifest.diverged[name] = bool(trace.diverged)
        _emit_trace(manifest, out_dir, f"quad_{_arm_filename(name)}.csv", trace)
        series.append(LineSeries(name, np.arange(len(excess), dtype=float), excess))
    _emit_csv(manifest, out_dir, "summary.csv", rows)
    _emit(manifest, out_dir, "quad_excess.svg",
          emit_svg(series, title="excess loss under GD", xlabel="iteration",
                   ylabel="excess loss", log_y=True))


# ---------------------------------------------------------------------------
# hessian_compare


def run_hessian_compare(cfg: ExperimentConfig, out_dir, manifest):
    p = cfg.params
    widths = tuple(p["widths"])
    x, y, _ = teacher_student_regression(p["n_samples"], seed=cfg.seed, widths=widths,
                                         kappa=p["teacher_kappa"],
                                         activation=p["activation"])
    specs = []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        specs.append(DenseSpec(widths[i], widths[i + 1],
                               activation="identity" if last else p["activation"]))
    comparisons, summary = hesslab.compare_curvature_sweep(
        specs, x, y, n_points=p["n_points"], seed=cfg.seed,
        rank_tol=p["rank_tol"], conditioned=p["conditioned"])
    _emit_csv(manifest, out_dir, "kappa_comparisons.csv",
              [hesslab.CSV_HEADER] + [c.csv_row() for c in comparisons])
    _emit_csv(manifest, out_dir, "summary.csv", [
        "n_points,n_comparable,n_satisfied,n_skipped,fraction_satisfied",
        f"{summary.n_points},{summary.n_comparable},{summary.n_satisfied},"
        f"{summary.n_skipped},{summary.fraction_satisfied!r}"])
    manifest.notes["fraction_satisfied"] = summary.fraction_satisfied
    manifest.notes["n_skipped_self_check"] = summary.n_skipped_self_check
    manifest.notes["n_skipped_empty_spectrum"] = summary.n_skipped_empty_spectrum


# ---------------------------------------------------------------------------
# cond_report


def run_cond_report(cfg: ExperimentConfig, out_dir, manifest):
    if not cfg["matrix_file"]:
        raise ConfigError("cond_report needs a matrix file")
    # the manifest's inputs and the config hash name these bytes
    if file_sha256(cfg["matrix_file"]) != cfg.inputs["matrix_file"]:
        raise ConfigError(f"{cfg['matrix_file']} changed after its config was resolved")
    mat = densela.read_matrix_text(cfg["matrix_file"])
    reports = precond.conditioning_report(mat, cfg["kinds"], seed=cfg.seed)
    _emit_csv(manifest, out_dir, "cond_report.csv",
              [precond.CSV_HEADER] + [r.csv_row() for r in reports])


RUNNERS = {
    "vds": run_vds,
    "quad": run_quad,
    "train_compare": run_train_compare,
    "hessian_compare": run_hessian_compare,
    "cond_report": run_cond_report,
}


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunManifest:
    """Run cfg's experiment into out_dir and return its manifest.

    The manifest times the runner (wall_time_total), lists every file
    the run wrote, manifest.json included, which is written last, and
    names the environment (`env`) and input files (`inputs`) the bytes
    depend on.
    """
    if cfg.kind not in RUNNERS:
        raise ConfigError(f"no runner for kind {cfg.kind!r}")
    manifest = RunManifest(kind=cfg.kind, config_hash=cfg.config_hash, config=cfg.params,
                           seed=cfg.seed, version=equilab.__version__, started=_now(),
                           inputs=dict(cfg.inputs))
    t0 = time.perf_counter()
    RUNNERS[cfg.kind](cfg, out_dir, manifest)
    manifest.wall_time_total = time.perf_counter() - t0
    manifest.finished = _now()
    manifest.add_file("manifest.json")
    manifest.write(out_dir)
    return manifest
