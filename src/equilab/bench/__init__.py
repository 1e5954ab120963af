"""Config-driven experiment harness (CSV + SVG artifacts)."""

from equilab.bench.config import ExperimentConfig, default_config, load_config
from equilab.bench.experiments import ARMS, run_experiment
from equilab.bench.manifest import RunManifest, load_manifest

__all__ = [
    "ARMS",
    "ExperimentConfig",
    "RunManifest",
    "default_config",
    "load_config",
    "load_manifest",
    "run_experiment",
]
