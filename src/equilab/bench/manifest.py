"""Run manifests and atomic file writes.

Every harness run ends by writing a manifest listing each emitted file, so
an output directory can be audited: files not in the manifest are stale,
files in the manifest but missing indicate a truncated run.  Wall-clock
timings live here and only here; the CSV/SVG artifacts stay byte-identical
across reruns.
"""

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field


def atomic_write_text(path, text):
    """Write text to path via a temp file and rename, same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunManifest:
    kind: str
    config_hash: str
    config: dict  # the resolved params (all but kind and seed)
    seed: int
    version: str
    started: str
    finished: str = ""
    files: list = field(default_factory=list)
    diverged: dict = field(default_factory=dict)
    wall_time_total: float = 0.0
    wall_time_per_step: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def add_file(self, name):
        """List a file of the run directory by its name."""
        if name not in self.files:
            self.files.append(name)

    def write(self, out_dir):
        """Write manifest.json atomically; returns the path."""
        path = os.path.join(out_dir, "manifest.json")
        payload = {**asdict(self), "files": sorted(self.files)}
        atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)
