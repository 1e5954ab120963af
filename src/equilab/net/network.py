"""Network container: a validated stack of layers with shared plumbing.

Handles shape validation along the chain, Glorot initialization from a
single seed, flat parameter-vector access for the Hessian tooling, and
whole-network static conditioning.

A network of dense and conv layers alike also takes a (k, n) stack of
parameter vectors; one forward/backward then evaluates the k parameter
sets on the same batch (see net.layers), and batch-norm running buffers
carry the stack axis too.  A training forward of a stack finishes for
every member, so train() steps its learning rates, one or several, as
one stack.

Every trainable parameter lives in one float64 buffer that is the
parameter vector itself: (n,), or the member-major (k, n) stack, so one
parameter's block of coordinates is a column slice of it.  Each layer's
w/b/gamma/beta/g attribute is a view of its slice, strided for a stack,
so an SGD step can update the whole net with one operation.  Code that
changes a parameter writes into its array (`layer.w[...] = ...`);
rebinding the attribute would detach it from the buffer.
"""

import dataclasses

import numpy as np

from equilab import densela
from equilab._kernels import all_finite
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
        initial = np.concatenate([arr.ravel() for layer in self.layers
                                  for _, arr in layer.param_items()])
        self._stack = ()
        self._bind(())
        self._buffer[...] = initial

    def _bind(self, stack):
        """Allocate the parameter buffer, of shape (*stack, n) for a stack
        shape () or (k,), and point every parameter attribute at its
        (*stack, *shape) view of the buffer's columns; the values are left
        uninitialized.  Each batch-norm buffer becomes a (*stack, *shape)
        array, every member a copy of the unstacked buffer or of the first
        member of the previous stack."""
        self._buffer = np.empty(stack + (self.parameter_count(),))
        pos = 0
        for i, name, shape, size in self._param_layout:
            setattr(self.layers[i], name, self._buffer[..., pos:pos + size].reshape(stack + shape))
            pos += size
        for layer in self.layers:
            for name, arr in layer.buffer_items():
                first = arr[0] if self._stack else arr
                setattr(layer, name, np.broadcast_to(first, stack + first.shape).copy())
        self._stack = stack  # (k,) while the parameters hold a stack of k vectors

    @property
    def param_buffer(self):
        """The parameter vector itself, (n,), or (k, n) while a stack is
        set: the buffer every parameter attribute views, so writing into
        it moves the parameters in place."""
        return self._buffer

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
        """Forward pass; returns (output, per-layer caches).

        A non-finite activation raises NonFiniteActivationError, except in
        a training pass of a parameter stack: that pass finishes for every
        member, and a member whose activations go non-finite gets NaN
        outputs from that layer on (so its loss reads NaN) while the
        batch-norm buffers of the later layers keep its old values, as a
        pass of that member alone would leave them.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2 and self.specs[0].kind == "conv2d":
            # flat samples enter a conv net through input_shape
            x = x.reshape((x.shape[0],) + self.input_shape)
        caches = []
        kept = []  # (buffer, members, values) to put back after the pass
        for i, layer in enumerate(self.layers):
            x, cache = layer.forward(x, training)
            if not (training and self._stack):
                L.check_finite(x, i, "activation")
            elif not all_finite(x):
                bad = ~np.isfinite(x).reshape(len(x), -1).all(axis=1)
                # the later layers have not run yet, so these are the old values
                kept += [(arr, bad, arr[bad]) for later in self.layers[i + 1:]
                         for _, arr in later.buffer_items()]
                x[bad] = np.nan
            caches.append(cache if keep else None)
        for arr, members, old in kept:
            arr[members] = old
        return x, caches

    def backward(self, grad_out, caches):
        """Backprop a gradient w.r.t. the network output; returns per-layer
        grad dicts aligned with self.layers.

        The first layer's input gradient has no reader, so it is not
        computed: a dense first layer skips one matmul, a conv first layer
        the col2im scatter-add.
        """
        grads = [None] * len(self.layers)
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, grads[i] = self.layers[i].backward(g, caches[i], need_dx=i > 0)
        return grads

    # -- parameter vector interface -------------------------------------

    def parameter_count(self):
        return sum(size for _, _, _, size in self._param_layout)

    def get_params_vector(self):
        """A copy of the parameter buffer: (n,), or (k, n) while a stack is
        set."""
        return self._buffer.copy()

    def set_params_vector(self, theta):
        """Set parameters from a vector of length n, or from a (k, n) stack.

        The values are copied into the parameter buffer, which is
        reallocated when the stack shape changes.
        """
        theta = np.asarray(theta, dtype=np.float64)
        n = self.parameter_count()
        if theta.ndim not in (1, 2) or theta.shape[-1] != n:
            raise DimensionError(f"parameter vector of shape {theta.shape}, "
                                 f"expected ({n},) or (k, {n})")
        if theta.shape[:-1] != self._stack:
            self._bind(theta.shape[:-1])
        self._buffer[...] = theta

    def grads_to_vector(self, grads):
        """Flat gradient: (n,), or (k, n) while a stack is set.

        Every parameter must have its gradient; a missing one raises
        KeyError.
        """
        return np.concatenate([np.asarray(grads[i][name]).reshape(self._stack + (size,))
                               for i, name, _, size in self._param_layout], axis=-1)

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

        which: "hidden" (all but the last layer) or "all"; anything else
        raises DimensionError.  For static conditioning the copied weights
        are re-equilibrated at construction.
        """
        if not (isinstance(which, str) and which in ("hidden", "all")):
            raise DimensionError(f'which must be "hidden" or "all", got {which!r}')
        n_layers = len(self.specs)
        idx = range(n_layers - 1 if which == "hidden" else n_layers)
        new_specs = [dataclasses.replace(s, conditioning=conditioning) if i in idx else s
                     for i, s in enumerate(self.specs)]
        twin = self._twin(new_specs)
        if conditioning == "equilibrate_static":
            for i in idx:
                twin.layers[i].apply_static_conditioning()
        return twin

    def weight_condition_numbers(self):
        """(raw, effective): per-layer kappa of the weight and of the
        effective weight, in the output-major view, of a net with unstacked
        parameters (a stack raises DimensionError).

        A layer without a weight transform has one matrix for both, so its
        raw kappa is reused.  Numerically rank deficient entries (at
        densela.RANK_TOL, 1e-12) come back as nan.
        """
        raw, effective = [], []
        for layer in self.layers:
            k = _kappa(layer._output_major(layer.w))
            raw.append(k)
            effective.append(_kappa(layer.effective_weight()) if layer.transforms_weight else k)
        return raw, effective


def _kappa(m):
    try:
        return densela.condition_number(m)
    except RankDeficientError:
        return float("nan")
