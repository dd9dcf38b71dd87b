"""Plain numpy multilayer perceptron for the action-value head.

ReLU hidden layers, identity output.  The kernels compute in the dtype of
the weights: inputs and targets are cast to it, and the gradients and
updated parameters keep it.  init_params draws float64; training rounds
the network to float32 once, while the gradient checks stay in float64.
Gradients are hand-rolled reverse mode; the only loss ever differentiated
is the squared error of the selected output unit against a scalar target,
averaged over a batch.

The training loop updates in place: batch_td_loss_grad writes into a
gradient buffer given as out, sgd_step with out=params scales that buffer
by the learning rate and subtracts it (g *= eta; w -= g rounds exactly as
w - eta * g), and params_lerp with out and a scratch buffer blends the
target network without allocating.  Without out each returns fresh arrays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import ACTION_COUNT


@dataclass(frozen=True)
class MlpConfig:
    """Layer widths, input first; the final width is the action count."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("need at least an input and an output width")
        if any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")
        if self.widths[-1] != ACTION_COUNT:
            raise ValueError(f"output width must be {ACTION_COUNT}")


class MlpParams:
    """Weight matrices (out x in) and bias vectors, one pair per layer."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def astype(self, dtype) -> "MlpParams":
        """Fresh parameters with every array rounded to dtype."""
        return MlpParams(
            [w.astype(dtype) for w in self.weights], [b.astype(dtype) for b in self.biases]
        )


def init_params(cfg: MlpConfig, rng) -> MlpParams:
    """Uniform init scaled by fan-in plus fan-out; zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(cfg.widths[:-1], cfg.widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def forward(params: MlpParams, x) -> np.ndarray:
    """Action values for a single input vector."""
    h = np.asarray(x, dtype=params.weights[0].dtype)
    if h.shape != (params.weights[0].shape[1],):
        raise ValueError(
            f"input shape {h.shape} does not match width {params.weights[0].shape[1]}"
        )
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = w @ h + b
        np.maximum(h, 0.0, out=h)
    return params.weights[-1] @ h + params.biases[-1]


def forward_batch(params: MlpParams, x) -> np.ndarray:
    """Action values for a (batch, input) matrix."""
    h = np.asarray(x, dtype=params.weights[0].dtype)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"batch shape {h.shape} does not match width {params.weights[0].shape[1]}"
        )
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w.T + b
        np.maximum(h, 0.0, out=h)
    return h @ params.weights[-1].T + params.biases[-1]


def batch_td_loss_grad(params: MlpParams, x, actions, targets, out: MlpParams | None = None):
    """Mean over the batch of (Q[action] - target)**2 and its gradient.

    Returns (loss, (weight grads, bias grads)) with grads shaped like the
    parameters, written into out's arrays when given.  Only the selected
    output unit of each sample feeds back.
    """
    dtype = params.weights[0].dtype
    x = np.asarray(x, dtype=dtype)
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=dtype)
    n_layers = len(params.weights)
    batch = x.shape[0]
    if batch == 0:
        raise ValueError("batch must be nonempty")

    inputs = [x]          # input to each layer
    pre = []              # pre-activation of each hidden layer
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        inputs.append(h)
    q = h @ params.weights[-1].T + params.biases[-1]

    rows = np.arange(batch)
    err = q[rows, actions] - targets
    loss = float(np.mean(err ** 2))

    delta = np.zeros_like(q)
    delta[rows, actions] = 2.0 * err / batch
    d_weights = [None] * n_layers if out is None else out.weights
    d_biases = [None] * n_layers if out is None else out.biases
    for layer in range(n_layers - 1, -1, -1):
        d_weights[layer] = np.matmul(delta.T, inputs[layer], out=d_weights[layer])
        d_biases[layer] = np.sum(delta, axis=0, out=d_biases[layer])
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (pre[layer - 1] > 0.0)
    return loss, (d_weights, d_biases)


def sgd_step(params: MlpParams, grads, eta: float, out: MlpParams | None = None) -> MlpParams:
    """One plain gradient step, params - eta * grads.  Returns fresh
    parameters; with out (which may be params itself) the grads are scaled
    by eta in place and the step is written into out."""
    d_weights, d_biases = grads
    if out is None:
        return MlpParams(
            [w - eta * g for w, g in zip(params.weights, d_weights)],
            [b - eta * g for b, g in zip(params.biases, d_biases)],
        )
    for o, w, g in zip(
        out.weights + out.biases, params.weights + params.biases, d_weights + d_biases
    ):
        g *= eta
        np.subtract(w, g, out=o)
    return out


def params_lerp(
    a: MlpParams,
    b: MlpParams,
    tau: float,
    out: MlpParams | None = None,
    scratch: MlpParams | None = None,
) -> MlpParams:
    """(1 - tau) * a + tau * b, elementwise; written into `out` when given
    (which may be `a` itself), else returned as fresh parameters.  With
    out, scratch (shaped like the parameters, contents overwritten) holds
    tau * b in place of a fresh array per layer."""
    if out is None:
        return MlpParams(
            [(1.0 - tau) * x + tau * y for x, y in zip(a.weights, b.weights)],
            [(1.0 - tau) * x + tau * y for x, y in zip(a.biases, b.biases)],
        )
    outs = out.weights + out.biases
    spare = [None] * len(outs) if scratch is None else scratch.weights + scratch.biases
    for o, x, y, s in zip(outs, a.weights + a.biases, b.weights + b.biases, spare):
        np.multiply(x, 1.0 - tau, out=o)
        o += np.multiply(y, tau, out=s)
    return out


def params_equal(a: MlpParams, b: MlpParams) -> bool:
    return (
        len(a.weights) == len(b.weights)
        and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    )


# The magic names the element type.  QNET files hold float64, as every
# file written before float32 training did.
_DTYPES = {b"QNET": np.dtype("<f8"), b"QN32": np.dtype("<f4")}
_MAGICS = {dtype: magic for magic, dtype in _DTYPES.items()}


def save_params(params: MlpParams, path) -> None:
    """Flat binary dump: a magic naming the element type, the width list,
    then per layer the row-major weight matrix followed by the bias vector,
    all little-endian in the dtype of the first weight matrix."""
    dtype = params.weights[0].dtype.newbyteorder("<")
    magic = _MAGICS.get(dtype)
    if magic is None:
        raise ValueError(f"cannot save {dtype} parameters; float32 and float64 are supported")
    widths = params.widths
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<q", len(widths)))
        fh.write(struct.pack(f"<{len(widths)}q", *widths))
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype=dtype).tobytes())
            fh.write(np.ascontiguousarray(b, dtype=dtype).tobytes())


def load_params(path) -> MlpParams:
    """Read a save_params dump in the dtype it was saved in; a short or
    overlong file raises ValueError."""
    with open(path, "rb") as fh:

        def read(size: int) -> bytes:
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"parameter file {path} is truncated")
            return data

        dtype = _DTYPES.get(fh.read(4))
        if dtype is None:
            raise ValueError(f"{path} is not a parameter file")
        (n,) = struct.unpack("<q", read(8))
        widths = struct.unpack(f"<{n}q", read(8 * n))
        size = dtype.itemsize
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            w = np.frombuffer(read(size * fan_in * fan_out), dtype=dtype)
            weights.append(w.reshape(fan_out, fan_in).copy())
            biases.append(np.frombuffer(read(size * fan_out), dtype=dtype).copy())
        tail = fh.read()
        if tail:
            raise ValueError(f"trailing bytes in parameter file {path}")
    return MlpParams(weights, biases)
