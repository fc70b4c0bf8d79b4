"""Dense policy/value networks with a closed-form backward.

One architecture serves every policy in the suite: a tanh MLP trunk, a linear
action-mean head, a state-independent log-std vector, a scalar value head, and
a scalar switch-logit head. Policies that never use the switch mechanism simply
leave the switch head untouched (its gradients stay exactly zero), which keeps
"initialize one policy from another" a straight bit-copy of the parameters.

Parameters live in one contiguous float64 vector, `net.flat`, laid out as
fc0.w, fc0.b, fc1.w, ..., mu.w, mu.b, log_std, value.w, value.b, switch.w,
switch.b, each array row-major. `net.params` maps each name to a view into
`net.flat`, so writes through either are the same write, and all math reads
those views directly: the net keeps no cache, and `net.std` and
`net.log_std_sum` are computed from log_std at each read. A sampled act reads
`net.std` only; `log_std_sum` is read once per buffer by `ppo_update`, which
computes the behaviour log-probabilities. Checkpoints store
float32, so every value in `net.flat` is a float32 number, and each writer
in this package rounds to float32 where it writes: the initial weights are
drawn as float32, `from_params` casts its input, `adam_step` rounds the
updated vector, `prime_switch_head` writes a float32 bias, and
`clamp_log_std` clips to bounds that are float32 numbers. A checkpoint round
trip is then lossless. Code that writes the views directly must write float32
numbers too, or its net no longer equals its checkpoint.

Every matrix product is `ndarray.dot`, not `@`. `@` also pays for the matmul
gufunc dispatch, which costs about as much as the BLAS call itself on a
one-row, 64-wide layer. The two gave bit-identical results over 28k random
one-row and batched operands on numpy 2.4 with OpenBLAS, but numpy does not
promise that: another numpy or BLAS build may route a product differently.
The seeded training digests in the tests are what guard the last bits.

Inference is `trunk(obs)`, the last trunk activation, then only the heads
the caller reads: `head(name, h)`, and `scalar_head` for the value and the
switch logit. On one row that is a float, the 1-D product of h with the
weight column plus the bias, which may round unlike a (1, h) x (h, 1)
product; a batch takes the latter. `trunk_rows` runs a batch as one product
per row (`np.vecmat`, numpy >= 2.2), and `np.vecdot` and `np.vecmat` on its
rows give the value and mean heads per row: each row then gets the floats
of its one-row pass, where a batched product may round a row otherwise.
numpy does not promise that equality either; a test checks it on every
bench fixture net.

`ParameterizedNet.backward` is the reverse pass of the only graph this code
differentiates: trunk, then the heads named by the loss. Gradients land in one
flat float64 vector with the parameter layout. The losses (the PPO surrogate in
`policyopt`, the switch-head cross-entropy here) differentiate their own
scalar and hand `backward` the gradient at each head's output. Their float64
operations, and the order in which gradients from several uses of one value are
summed, are fixed: trunk-output gradients sum as (switch + value) + mu, and
`x*x` contributes `g*x + g*x`. Changing either changes trained weights in the
last bits.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

LOG_STD_INIT = -0.5
LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
SWITCH_BIAS_INIT = -2.0


def sigmoid(z):
    # tanh form is stable for large |z|.
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def _layout(obs_dim, action_dim, hidden):
    """((name, start, shape), ...) of every parameter in flat-vector order."""
    shapes = []
    fan_in = obs_dim
    for i, width in enumerate(hidden):
        shapes += [(f"fc{i}.w", (fan_in, width)), (f"fc{i}.b", (width,))]
        fan_in = width
    shapes += [("mu.w", (fan_in, action_dim)), ("mu.b", (action_dim,)),
               ("log_std", (action_dim,)),
               ("value.w", (fan_in, 1)), ("value.b", (1,)),
               ("switch.w", (fan_in, 1)), ("switch.b", (1,))]
    layout = []
    start = 0
    for name, shape in shapes:
        layout.append((name, start, shape))
        start += math.prod(shape)
    return tuple(layout), start


class ParameterizedNet:
    """MLP whose named parameter arrays are views into one flat float64
    vector of float32 values.

    Layout for hidden=(h0, h1, ...): fc{i}.w (fan_in, h_i), fc{i}.b (h_i,),
    then mu.w/mu.b, log_std, value.w/value.b, switch.w/switch.b.
    """

    def __init__(self, obs_dim, action_dim, hidden, rng):
        self._allocate(obs_dim, action_dim, hidden)
        for name, _, shape in self.layout:
            if name.endswith(".w"):
                self.params[name][...] = self._init_weight(rng, *shape)
        self.params["log_std"][...] = LOG_STD_INIT
        self.params["switch.b"][...] = SWITCH_BIAS_INIT

    def _allocate(self, obs_dim, action_dim, hidden):
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.layout, size = _layout(self.obs_dim, self.action_dim, self.hidden)
        self.flat = np.zeros(size)
        self.params = p = self.views(self.flat)
        self._trunk = tuple((p[f"fc{i}.w"], p[f"fc{i}.b"])
                            for i in range(len(self.hidden)))
        self._heads = {name: (p[f"{name}.w"], p[f"{name}.b"])
                       for name in ("mu", "value", "switch")}
        self._columns = {name: (p[f"{name}.w"][:, 0], p[f"{name}.b"])
                         for name in ("value", "switch")}
        # the flat range of each parameter, where `backward` writes its block
        self._spans = {name: slice(start, start + math.prod(shape))
                       for name, start, shape in self.layout}

    @staticmethod
    def _init_weight(rng, fan_in, fan_out):
        w = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        return w.astype(np.float32)

    def views(self, vector):
        """Named views into a flat vector laid out like `self.flat`."""
        return {name: vector[start:start + math.prod(shape)].reshape(shape)
                for name, start, shape in self.layout}

    def name_at(self, index):
        """The parameter that flat position `index` belongs to."""
        for name, start, _ in reversed(self.layout):
            if index >= start:
                return name
        raise IndexError(index)

    @classmethod
    def from_params(cls, params):
        """Build a net from a named-array dict; the architecture is implicit.

        Values are rounded to float32, as a checkpoint stores them. Raises
        ValueError unless the names and shapes are exactly a layout
        this class produces: fc{i} layers chaining their widths, mu.w, mu.b
        and log_std agreeing on the action width, and (h, 1)/(1,) value and
        switch heads.
        """
        shapes = {name: np.shape(arr) for name, arr in params.items()}
        if len(shapes.get("fc0.w", ())) != 2:
            raise ValueError("parameter dict has no 2-D fc0.w layer")
        if len(shapes.get("mu.w", ())) != 2:
            raise ValueError("parameter dict has no 2-D mu.w head")
        hidden = []
        while len(shapes.get(f"fc{len(hidden)}.w", ())) == 2:
            hidden.append(shapes[f"fc{len(hidden)}.w"][1])
        net = cls.__new__(cls)
        net._allocate(shapes["fc0.w"][0], shapes["mu.w"][1], hidden)
        for name, view in net.params.items():
            if name not in shapes:
                raise ValueError(f"parameter dict is missing {name!r}")
            if shapes[name] != view.shape:
                raise ValueError(f"parameter {name!r} has shape {shapes[name]}, "
                                 f"expected {view.shape}")
            view[...] = np.asarray(params[name], dtype=np.float32)
        unknown = sorted(set(shapes) - set(net.params))
        if unknown:
            raise ValueError(f"unknown parameters {unknown} for this layout")
        return net

    def copy(self):
        dup = ParameterizedNet.__new__(ParameterizedNet)
        dup._allocate(self.obs_dim, self.action_dim, self.hidden)
        dup.flat[...] = self.flat
        return dup

    @property
    def std(self):
        """exp(log_std) as a new float64 array."""
        return np.exp(self.params["log_std"])

    @property
    def log_std_sum(self):
        """sum(log_std) as a float."""
        return float(self.params["log_std"].sum())

    def clamp_log_std(self):
        np.clip(self.params["log_std"], LOG_STD_MIN, LOG_STD_MAX, out=self.params["log_std"])

    def activations(self, obs):
        """Trunk activations [obs, h0, h1, ...] of one row or a batch."""
        hs = [obs]
        for w, b in self._trunk:
            h = hs[-1].dot(w)
            h += b
            np.tanh(h, out=h)
            hs.append(h)
        return hs

    def trunk(self, obs):
        """The last of `activations(obs)`."""
        return self.activations(obs)[-1]

    def trunk_rows(self, obs):
        """`trunk` of a (B, obs_dim) batch, one product per row
        (`np.vecmat`): each row the floats of its one-row `trunk`."""
        h = obs
        for w, b in self._trunk:
            h = np.vecmat(h, w)
            h += b
            np.tanh(h, out=h)
        return h

    def head(self, name, h):
        """Linear head `name` ("mu", "value" or "switch") on trunk output h."""
        w, b = self._heads[name]
        return h.dot(w) + b

    def scalar_head(self, name, h):
        """Head "value" or "switch" on trunk output h: a float for one row,
        a (B,) array for a batch."""
        if h.ndim > 1:
            w, b = self._heads[name]
            return (h.dot(w) + b)[:, 0]
        w, b = self._columns[name]
        return float(h.dot(w) + b[0])

    def backward(self, hs, head_grads, d_log_std, grad):
        """Write d(loss)/d(parameters) into the flat float64 vector `grad`.

        hs are the trunk activations of the forward pass. head_grads pairs
        each head the loss read with the gradient at its output, in the order
        their trunk contributions are summed. Heads not listed, and log_std
        when d_log_std is None, get exact zeros.
        """
        p, span = self.params, self._spans
        grad.fill(0.0)
        if d_log_std is not None:
            grad[span["log_std"]] = d_log_std
        h = hs[-1]
        dh = None
        for name, d_out in head_grads:
            grad[span[f"{name}.b"]] = d_out.sum(axis=0)
            grad[span[f"{name}.w"]] = h.T.dot(d_out).ravel()
            d_in = d_out.dot(p[f"{name}.w"].T)
            dh = d_in if dh is None else dh + d_in
        for i in range(len(self.hidden) - 1, -1, -1):
            h = hs[i + 1]
            da = dh * (1.0 - h * h)
            grad[span[f"fc{i}.b"]] = da.sum(axis=0)
            grad[span[f"fc{i}.w"]] = hs[i].T.dot(da).ravel()
            if i:
                dh = da.dot(p[f"fc{i}.w"].T)


def switch_bce_grad(net, obs, labels, grad):
    """Mean binary cross-entropy of the switch head against (B, 1) 0/1 labels.

    Writes the gradient into the flat float64 `grad` and returns the loss.
    The per-sample loss is softplus(z * (1 - 2 * label)), so its derivative
    in z is sigmoid of that product times the same sign.
    """
    hs = net.activations(obs)
    sign = 1.0 - 2.0 * labels
    z = net.head("switch", hs[-1]) * sign
    inv_n = 1.0 / z.size
    loss = -(np.sum(-np.logaddexp(0.0, z)) * inv_n)
    net.backward(hs, [("switch", (inv_n * sigmoid(z)) * sign)], None, grad)
    return float(loss)
