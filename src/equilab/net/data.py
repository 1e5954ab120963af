"""Datasets: teacher-student regression and two moons.

Generators are deterministic functions of their seed and return float64
arrays shaped (n_samples, features) / (n_samples, targets).
"""

import numpy as np

from equilab.errors import DimensionError
from equilab.net import layers as L
from equilab.net.network import Network


def make_teacher(widths=(2, 8, 1), kappa=1e3, activation="tanh", seed=0):
    """Fixed teacher network whose first weight matrix has condition
    number close to kappa: rows are equilibrated, then rescaled by a
    geometric ladder spanning [1, 1/kappa]."""
    if kappa < 1.0:
        raise DimensionError(f"kappa must be >= 1, got {kappa!r}")
    specs = []
    for i in range(len(widths) - 1):
        act = activation if i < len(widths) - 2 else "identity"
        specs.append(L.DenseSpec(widths[i], widths[i + 1], activation=act))
    teacher = Network(specs, seed=seed)
    w1 = teacher.layers[0].w
    unit = w1 / np.linalg.norm(w1, axis=1, keepdims=True)
    scales = np.geomspace(1.0, 1.0 / kappa, w1.shape[0])
    w1[...] = scales[:, None] * unit
    return teacher


def teacher_student_regression(n_samples, seed, widths=(2, 8, 1), kappa=1e3,
                               noise=0.0, activation="tanh"):
    """Standard-normal inputs labelled by an ill-conditioned teacher.

    Returns (x, y, teacher); the teacher's kappa refers to its first
    weight matrix (nominal; the exact value can be read off with
    densela.condition_number).
    """
    teacher = make_teacher(widths=widths, kappa=kappa, seed=seed, activation=activation)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    x = rng.standard_normal((n_samples, widths[0]))
    y = teacher.forward(x)
    if noise > 0.0:
        y = y + noise * rng.standard_normal(y.shape)
    return x, y, teacher


def two_moons(n_samples, noise=0.1, seed=0):
    """Two interleaving half circles; labels in {0, 1} shaped (n, 1)."""
    if n_samples < 2:
        raise DimensionError("need at least 2 samples")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    n_out = n_samples // 2
    n_in = n_samples - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.stack([np.cos(t_out), np.sin(t_out)], axis=1)
    inner = np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1)
    x = np.concatenate([outer, inner])
    y = np.concatenate([np.zeros(n_out), np.ones(n_in)])[:, None]
    x = x + noise * rng.standard_normal(x.shape)
    perm = rng.permutation(n_samples)
    return x[perm], y[perm]
