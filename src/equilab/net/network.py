"""Network container: a validated stack of layers with shared plumbing.

Handles shape validation along the chain, Glorot initialization from a
single seed, flat parameter-vector access for the Hessian tooling, and
whole-network static conditioning.

An all-dense network without batch norm also takes a (k, n) stack of
parameter vectors; one forward/backward then evaluates the k parameter
sets on the same batch (see net.layers).
"""

import dataclasses

import numpy as np

from equilab import densela
from equilab.errors import DimensionError, RankDeficientError
from equilab.net import layers as L


class Network:
    """Feed-forward stack x -> phi(x W + b) -> ... built from layer specs.

    Dense layers consume 2-d batches (rows are samples); conv layers
    consume (N, C, H, W).  A conv entry requires input_shape=(C, H, W) so
    shapes can be validated at construction.  The final activation must be
    identity, or sigmoid_output for nets trained with BCE.
    """

    def __init__(self, specs, seed=0, input_shape=None):
        if not specs:
            raise DimensionError("a network needs at least one layer")
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        last = self.specs[-1].activation
        if last not in ("identity", "sigmoid_output"):
            raise DimensionError(
                f"final activation must be identity or sigmoid_output, got {last!r}")
        self._check_chain()
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.layers = [L.build_layer(s, rng) for s in self.specs]
        # (layer index, name, unstacked shape, size) of each parameter, in
        # vector order
        self._param_layout = [(i, name, arr.shape, arr.size)
                              for i, layer in enumerate(self.layers)
                              for name, arr in layer.param_items()]
        self._stack = ()  # (k,) while the parameters hold a stack of k vectors

    def _check_chain(self):
        """Validate that each layer's input matches the previous output."""
        if self.specs[0].kind == "conv2d" and self.input_shape is None:
            raise DimensionError("input_shape=(C, H, W) is required for a conv entry")
        shape = self.input_shape  # (C,H,W) or None for dense entry
        for i, s in enumerate(self.specs):
            if s.kind == "conv2d":
                # everything after the first dense layer stays flat
                if i > 0 and self.specs[i - 1].kind == "dense":
                    raise DimensionError("conv layers cannot follow dense layers")
                c, h, w = shape
                if c != s.in_channels:
                    raise DimensionError(f"layer {i}: expects {s.in_channels} channels, "
                                         f"chain provides {c}")
                oh = L.conv_out_size(h, s.kernel_size, s.stride, s.padding)
                ow = L.conv_out_size(w, s.kernel_size, s.stride, s.padding)
                shape = (s.out_channels, oh, ow)
            else:
                width = int(np.prod(shape)) if shape is not None else s.in_dim
                if width != s.in_dim:
                    raise DimensionError(f"layer {i}: expects {s.in_dim} features, "
                                         f"chain provides {width}")
                shape = (s.out_dim,)

    def forward(self, x, training=False):
        out, _ = self.forward_with_caches(x, training, keep=False)
        return out

    def forward_with_caches(self, x, training, keep=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2 and self.specs[0].kind == "conv2d":
            # flat samples enter a conv net through input_shape
            x = x.reshape((x.shape[0],) + self.input_shape)
        caches = []
        for i, layer in enumerate(self.layers):
            x, cache = layer.forward(x, training)
            L.check_finite(x, i, "activation")
            caches.append(cache if keep else None)
        return x, caches

    def backward(self, grad_out, caches):
        """Backprop a gradient w.r.t. the network output; returns per-layer
        grad dicts aligned with self.layers."""
        grads = [None] * len(self.layers)
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, grads[i] = self.layers[i].backward(g, caches[i])
        return grads

    # -- parameter vector interface -------------------------------------

    def parameter_count(self):
        return sum(size for _, _, _, size in self._param_layout)

    def get_params_vector(self):
        """Flat parameters: (n,), or (k, n) while a stack is set."""
        return np.concatenate([arr.reshape(self._stack + (-1,))
                               for layer in self.layers for _, arr in layer.param_items()],
                              axis=-1)

    def set_params_vector(self, theta):
        """Set parameters from a vector of length n, or from a (k, n) stack.

        Each parameter is stored as a contiguous copy, of shape (k, *shape)
        for a stack.
        """
        theta = np.asarray(theta, dtype=np.float64)
        n = self.parameter_count()
        if theta.ndim not in (1, 2) or theta.shape[-1] != n:
            raise DimensionError(f"parameter vector of shape {theta.shape}, "
                                 f"expected ({n},) or (k, {n})")
        stack = theta.shape[:-1]
        pos = 0
        for i, name, shape, size in self._param_layout:
            chunk = theta[..., pos:pos + size].reshape(stack + shape)
            setattr(self.layers[i], name, chunk.copy())
            pos += size
        self._stack = stack

    def grads_to_vector(self, grads):
        """Flat gradient: (n,), or (k, n) while a stack is set."""
        out = []
        for i, name, _, size in self._param_layout:
            g = grads[i].get(name)
            out.append(np.zeros(self._stack + (size,)) if g is None
                       else np.asarray(g).reshape(self._stack + (size,)))
        return np.concatenate(out, axis=-1)

    # -- conditioning -----------------------------------------------------

    def _twin(self, specs):
        """Network of specs holding copies of this one's parameters and
        batch-norm buffers (specs must differ in conditioning tags only)."""
        twin = Network(specs, seed=self.seed, input_shape=self.input_shape)
        twin.set_params_vector(self.get_params_vector())
        for mine, theirs in zip(self.layers, twin.layers):
            for name, arr in mine.buffer_items():
                getattr(theirs, name)[...] = arr
        return twin

    def clone(self):
        return self._twin(self.specs)

    def with_conditioning(self, conditioning, which="hidden"):
        """Twin network with the conditioning tag switched on selected
        layers, parameters and buffers copied over.

        which: "hidden" (all but the last layer), "all", or an explicit
        list of layer indices.  For static conditioning the copied weights
        are re-equilibrated at construction.
        """
        if which == "hidden":
            idx = set(range(len(self.specs) - 1))
        elif which == "all":
            idx = set(range(len(self.specs)))
        else:
            idx = set(int(i) for i in which)
        new_specs = [dataclasses.replace(s, conditioning=conditioning) if i in idx else s
                     for i, s in enumerate(self.specs)]
        twin = self._twin(new_specs)
        if conditioning == "equilibrate_static":
            for i in idx:
                twin.layers[i].apply_static_conditioning()
        return twin

    def weight_condition_numbers(self, effective=False):
        """kappa of each layer's weight (or effective weight) in the
        output-major view; numerically rank deficient entries (at
        condition_number's rank_tol 1e-12) come back as nan."""
        out = []
        for layer in self.layers:
            m = layer.effective_weight() if effective else layer._output_major(layer.w)
            try:
                out.append(densela.condition_number(m))
            except RankDeficientError:
                out.append(float("nan"))
        return out


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
