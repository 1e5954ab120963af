"""Span tracing around equilab's layer boundaries, from outside the package.

`traced()` replaces each public function or method listed in TARGETS by a
wrapper that records a span (name, start, end, parent) in memory.  A
module-level function is replaced in every loaded equilab module that bound
it, because callers import names directly (`from ... import train`).  The
originals are put back when the context exits.

Self time is a span's duration minus the time its child spans cover.
"""

import contextlib
import functools
import hashlib
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _kernel_attrs(args, kwargs, out):
    bt = args[0]
    return {"cols": int(bt.shape[0]), "sweeps": int(out[0])}


def _matrix_attrs(args, kwargs, out):
    a = np.ascontiguousarray(np.asarray(args[0], dtype=np.float64))
    digest = hashlib.blake2b(a.tobytes(), digest_size=16)
    digest.update(repr(a.shape).encode())
    return {"matrix": digest.hexdigest()}


def _write_attrs(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("equilab._kernels", "jacobi_sweeps", "kernels.jacobi_sweeps", _kernel_attrs),
    ("equilab.densela", "svd", "densela.svd", _matrix_attrs),
    ("equilab.densela", "condition_number", "densela.condition_number", None),
    ("equilab.precond", "vds_trial", "precond.vds_trial", None),
    ("equilab.precond", "row_equilibrate", "precond.row_equilibrate", None),
    ("equilab.quadlab", "QuadraticProblem.__init__", "quadlab.QuadraticProblem", None),
    ("equilab.quadlab", "max_stable_lr", "quadlab.max_stable_lr", None),
    ("equilab.quadlab", "run_gd", "quadlab.run_gd", None),
    ("equilab.quadlab", "GDTrace.to_csv", "quadlab.GDTrace.to_csv", None),
    ("equilab.net.train", "loss_and_gradients", "net.loss_and_gradients", None),
    ("equilab.net.train", "train", "net.train", None),
    ("equilab.net.network", "Network.forward_with_caches",
     "net.Network.forward_with_caches", None),
    ("equilab.net.network", "Network.backward", "net.Network.backward", None),
    ("equilab.net.network", "Network.set_params_vector",
     "net.Network.set_params_vector", None),
    ("equilab.net.network", "Network.grads_to_vector", "net.Network.grads_to_vector", None),
    ("equilab.net.network", "Network.weight_condition_numbers",
     "net.Network.weight_condition_numbers", None),
    ("equilab.net.network", "Network.clone", "net.Network.clone", None),
    ("equilab.hesslab", "fd_hessian", "hesslab.fd_hessian", None),
    ("equilab.hesslab", "gradient_self_check", "hesslab.gradient_self_check", None),
    ("equilab.hesslab", "hessian_kappa", "hesslab.hessian_kappa", None),
    ("equilab.bench.manifest", "atomic_write_text", "bench.atomic_write_text", _write_attrs),
    ("equilab.bench.svgplot", "emit_svg", "bench.emit_svg", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    attrs: dict | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def reset(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs):
        """fn, recording one span per call; attrs(args, kwargs, result)
        returns extra fields for the span, or is None."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            stack = self._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return traced_call


@contextlib.contextmanager
def traced(tracer):
    """Install span wrappers on every TARGETS entry; restore on exit."""
    undo = []
    try:
        for module_name, path, name, attrs in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original, attrs))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "equilab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time, after checking that every child lies inside its
    parent and that siblings do not overlap."""
    own = [s.end - s.start for s in spans]
    last_child_end = {}
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end or s.start < last_child_end.get(s.parent, p.start):
            raise ValueError(f"span {i} ({s.name}) is not nested inside span {s.parent}")
        last_child_end[s.parent] = s.end
        own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans, rep_seconds, kernel_cols):
    """Per-layer metrics of one traced run_experiment call.

    Returns (metrics, unattributed_s); unattributed is the part of the call
    that no top-level span covers, so the self times plus it add up to
    rep_seconds.
    """
    own = self_times(spans)
    top = sum(s.end - s.start for s in spans if s.parent < 0)
    unattributed = rep_seconds - top
    total = sum(own) + unattributed
    if abs(total - rep_seconds) > 1e-9 * max(1.0, rep_seconds):
        raise ValueError(f"self times sum to {total!r}, traced call took {rep_seconds!r}")

    calls, self_s = {}, {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
    m = {}
    for _, _, name, _ in TARGETS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    kernel = [s for s in spans if s.name == "kernels.jacobi_sweeps"]
    m["kernels.jacobi_sweeps.sweeps"] = sum(s.attrs["sweeps"] for s in kernel)
    m["kernels.jacobi_sweeps.pair_visits"] = sum(
        s.attrs["sweeps"] * s.attrs["cols"] * (s.attrs["cols"] - 1) // 2 for s in kernel)
    for cols in kernel_cols:
        ms = [(s.end - s.start) * 1e3 for s in kernel if s.attrs["cols"] == cols]
        m[f"kernels.jacobi_sweeps.ms_p50.n{cols}"] = statistics.median(ms) if ms else 0.0

    svds = [s for s in spans if s.name == "densela.svd"]
    distinct = len({s.attrs["matrix"] for s in svds if s.attrs})
    m["densela.svd.calls_per_matrix"] = len(svds) / distinct if distinct else 0.0

    hessians = {i for i, s in enumerate(spans) if s.name == "hesslab.fd_hessian"}
    grad_calls = sum(1 for s in spans
                     if s.name == "net.Network.grads_to_vector" and _under(spans, s, hessians))
    m["hesslab.grad_calls_per_hessian"] = grad_calls / len(hessians) if hessians else 0.0

    m["bench.atomic_write_text.bytes"] = sum(
        s.attrs["bytes"] for s in spans if s.name == "bench.atomic_write_text" and s.attrs)
    return m, unattributed


def _under(spans, span, ancestors):
    p = span.parent
    while p >= 0:
        if p in ancestors:
            return True
        p = spans[p].parent
    return False
