"""Experiment configuration: strict JSON in, canonical hash out.

A config file is a single JSON object.  Every experiment kind has a fixed
schema; unknown keys are rejected rather than ignored so a typo fails fast
instead of silently running defaults.  The canonical hash covers the fully
defaulted config, so two files that resolve to the same settings share
output identity.  It also covers the contents of the input files a config
names (`cond_report`'s matrix_file), by their sha256 (`inputs`): one path
holding two different matrices gives two hashes.
"""

import hashlib
import json
import sys
from dataclasses import dataclass

from equilab.errors import ConfigError

KINDS = ("vds", "quad", "train_compare", "hessian_compare", "cond_report")

# kind -> {key: (type, default)}; a default of REQUIRED means the key must
# be present in the file.
REQUIRED = object()

_COMMON = {
    "kind": (str, REQUIRED),
    "seed": (int, 0),
}

SCHEMAS = {
    "vds": {
        **_COMMON,
        "trials": (int, 1000),
        "size": (int, 16),
    },
    "quad": {
        **_COMMON,
        "dim": (int, 32),
        "kappa": (float, 1e3),
        "rho": (float, 0.45),
        "iters": (int, 400),
        "preconditioners": (list, ["row_equilibration", "jacobi"]),
        "tolerance": (float, 1e-8),
    },
    "train_compare": {
        **_COMMON,
        "task": (str, "teacher_regression"),
        "arms": (list, ["none", "e-reparam"]),
        "widths": (list, [2, 16, 1]),
        "activation": (str, "tanh"),
        "n_samples": (int, 256),
        "teacher_kappa": (float, 1e3),
        "noise": (float, 0.01),
        "lr": (float, 0.05),
        "momentum": (float, 0.0),
        "epochs": (int, 50),
        "batch_size": (int, 32),
        "init_row_spread": (float, 1.0),
        "lr_grid": (list, []),
    },
    "hessian_compare": {
        **_COMMON,
        "widths": (list, [2, 8, 1]),
        "activation": (str, "tanh"),
        "n_samples": (int, 128),
        "teacher_kappa": (float, 1e3),
        "n_points": (int, 40),
        "conditioned": (str, "all"),
        "rank_tol": (float, 1e-8),
    },
    "cond_report": {
        **_COMMON,
        "matrix_file": (str, ""),
        "kinds": (list, ["row_equilibration", "column_equilibration", "jacobi"]),
    },
}

TASKS = ("teacher_regression", "two_moons")
# hessian_compare's `conditioned`: which layers the equilibrated twin
# reparametrizes (Network.with_conditioning's `which`)
CONDITIONED = ("hidden", "all")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    params: dict
    config_hash: str
    inputs: dict  # config key -> sha256 hex digest of the file it names

    def __getitem__(self, key):
        return self.params[key]


def _coerce(key, want, value):
    # bool is an int subclass; reject it explicitly for int fields
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number")
        return float(value)
    if not isinstance(value, want):
        raise ConfigError(f"config key {key!r} must be {want.__name__}")
    return value


def _check_lr_grid(grid):
    # entries stay as given (no float()), so config hashes do not move
    for lr in grid:
        if (isinstance(lr, bool) or not isinstance(lr, (int, float))
                or not 0 < lr <= sys.float_info.max):
            raise ConfigError(f"lr_grid entries must be positive finite numbers, got {lr!r}")


def _check_widths(widths):
    # entries stay as given (no int()), so config hashes do not move
    if len(widths) < 2 or any(isinstance(w, bool) or not isinstance(w, int) or w < 1
                              for w in widths):
        raise ConfigError(f"widths must list at least 2 positive integers, got {widths!r}")


def file_sha256(path):
    """The sha256 hex digest of a file's bytes, or ConfigError."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path!r}: {exc.strerror}") from None


def resolve_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON object against its kind's schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
    schema = SCHEMAS[kind]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {kind!r}: {sorted(unknown)}")
    params = {}
    for key, (want, default) in schema.items():
        if key in raw:
            params[key] = _coerce(key, want, raw[key])
        elif default is REQUIRED:
            raise ConfigError(f"config key {key!r} is required")
        else:
            params[key] = default
    if kind == "train_compare":
        if params["task"] not in TASKS:
            raise ConfigError(f"unknown task {params['task']!r}; expected one of {TASKS}")
        _check_lr_grid(params["lr_grid"])
    if kind in ("train_compare", "hessian_compare"):
        _check_widths(params["widths"])
    if kind == "hessian_compare" and params["conditioned"] not in CONDITIONED:
        raise ConfigError(f"unknown conditioned {params['conditioned']!r}; "
                          f"expected one of {CONDITIONED}")
    # hesslab.hessian_kappa's range, checked before any training
    if kind == "hessian_compare" and not 0.0 < params["rank_tol"] < 1.0:
        raise ConfigError(f"rank_tol must be in (0, 1), got {params['rank_tol']!r}")
    seed = params.pop("seed")
    params.pop("kind")
    inputs = {}
    if kind == "cond_report" and params["matrix_file"]:
        inputs["matrix_file"] = file_sha256(params["matrix_file"])
    # a config without input files keeps the hash it had before `inputs`
    canon = json.dumps({"kind": kind, "seed": seed, **params,
                        **({"inputs": inputs} if inputs else {})},
                       sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    return ExperimentConfig(kind=kind, seed=seed, params=params, config_hash=digest,
                            inputs=inputs)


def load_config(path, *, kind=None, **overrides) -> ExperimentConfig:
    """Read a JSON config file; optionally force kind.  Keyword overrides
    (the CLI's --seed and cond's matrix file) replace the file's values
    before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if kind is not None:
        existing = raw.get("kind", kind)
        if existing != kind:
            raise ConfigError(f"config kind {existing!r} does not match subcommand {kind!r}")
        raw["kind"] = kind
    return resolve_config({**raw, **overrides})


def default_config(kind, seed=0, **overrides) -> ExperimentConfig:
    """Schema defaults plus keyword overrides, validated the same way."""
    return resolve_config({"kind": kind, "seed": seed, **overrides})
