"""Dense matrices with reverse-mode automatic differentiation.

Everything is a 2-D array wrapped in a :class:`Matrix`.  Weights are
float64 at rest: a Matrix built from data holds float64, and inference and
checkpoints see only float64.  Every operation follows its operands' dtype,
so a pass over float32 copies of the weights (as training makes, see
:mod:`journeynet.training`) computes, records and back-propagates in
float32; only 1 x 1 loss scalars stay float64.  Operations
executed while a :class:`ComputeTape` is active are recorded; calling
:func:`backward` on the tape then accumulates ``dL/dx`` into the ``grad``
buffer of every tracked operand.  Without an active tape the same functions
are plain numpy computations, so inference pays no recording cost.

Gradient accumulation is explicit: grads add up across backward calls until
the caller zeroes them (see :func:`zero_gradients`).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

# floor applied inside log() so cross-entropy stays finite
PROB_FLOOR = 1e-12


class Matrix:
    """A rows x cols array with an optional same-shape gradient buffer.

    The constructor stores float64; op results keep their operands' dtype.
    `grad` may be an array a backward function returned, shared with other
    operands: the first gradient is stored as is, the second makes an own
    sum, and only that own array is updated in place afterwards.
    """

    __slots__ = ("data", "grad", "trainable", "track", "name", "_own_grad")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"Matrix must be at most 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("Matrix values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._own_grad = None
        self.trainable = trainable
        self.track = trainable
        self.name = name

    @classmethod
    def _result(cls, data: np.ndarray) -> "Matrix":
        """Wrap an op result without copying or validating."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._own_grad = None
        out.trainable = False
        out.track = False
        out.name = None
        return out

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` to `grad`, never writing into an array this Matrix did not make."""
        if self.grad is None:
            self.grad = g
        elif self.grad is self._own_grad:
            self.grad += g
        else:
            self.grad = self._own_grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = self._own_grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Matrix(shape={self.shape}{tag})"


def constant(data, name: str | None = None) -> Matrix:
    return Matrix(data, trainable=False, name=name)


def parameter(data, name: str | None = None) -> Matrix:
    return Matrix(data, trainable=True, name=name)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    """A fan_in x fan_out parameter, uniform in +-sqrt(6 / (fan_in + fan_out)).

    The initialiser of Glorot & Bengio (2010), used for every weight matrix.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-limit, limit, size=(fan_in, fan_out)))


class _TapeNode:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_active = threading.local()


def _current_tape() -> "ComputeTape | None":
    return getattr(_active, "tape", None)


class ComputeTape:
    """Ordered record of the primitive operations of one forward pass.

    Use as a context manager; ops executed inside the block are recorded in
    execution order, which is a topological order of the compute graph.
    """

    def __init__(self):
        self._nodes: list[_TapeNode] = []

    def __enter__(self) -> "ComputeTape":
        if _current_tape() is not None:
            raise RuntimeError("a ComputeTape is already active on this thread")
        _active.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _active.tape = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _append(self, node: _TapeNode) -> None:
        self._nodes.append(node)


def is_recording() -> bool:
    """True while a ComputeTape is active on this thread."""
    return _current_tape() is not None


def record(output: Matrix, inputs: Sequence[Matrix], backward_fn: Callable) -> Matrix:
    """Register a primitive op on the active tape, if any operand is tracked.

    `backward_fn(g)` receives the output gradient and must return one gradient
    array (or None) per input, in order.  This is the extension point for
    primitives defined outside this module.
    """
    tape = _current_tape()
    if tape is None:
        return output
    if not any(inp.track for inp in inputs):
        return output
    output.track = True
    tape._append(_TapeNode(output, tuple(inputs), backward_fn))
    return output


def backward(tape: ComputeTape, loss: Matrix) -> None:
    """Populate gradients of everything `loss` depends on, walking `tape` backward.

    Gradients of trainable parameters accumulate across calls; per-pass
    intermediate gradients are discarded at the end, so calling backward
    twice adds the same parameter gradients twice.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {loss.shape}")
    if loss.trainable:
        # degenerate case: the loss is itself a leaf parameter
        loss.accumulate_grad(np.ones((1, 1)))
    else:
        loss.grad = np.ones((1, 1))
    for node in reversed(tape._nodes):
        g = node.output.grad
        if g is None:
            continue
        grads = node.backward_fn(g)
        for inp, gi in zip(node.inputs, grads):
            if gi is not None and inp.track:
                inp.accumulate_grad(gi)
    for node in tape._nodes:
        if not node.output.trainable:
            node.output.zero_grad()
    if not loss.trainable:
        loss.grad = None


def zero_gradients(params: Iterable[Matrix]) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Matrix._result(a.data @ b.data)

    def back(g):
        return (g @ b.data.T if a.track else None), (a.data.T @ g if b.track else None)

    return record(out, (a, b), back)


def add(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise sum; `b` may also be a 1 x cols row vector added to every row."""
    if a.shape == b.shape:
        out = Matrix._result(a.data + b.data)

        def back(g):
            return g, g

    elif b.rows == 1 and b.cols == a.cols:
        out = Matrix._result(a.data + b.data)

        def back(g):
            return g, g.sum(axis=0, keepdims=True)

    else:
        raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")
    return record(out, (a, b), back)


def scale(x: Matrix, c: float) -> Matrix:
    out = Matrix._result(x.data * c)
    return record(out, (x,), lambda g: (g * c,))


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number:
    1 / (1 + exp(-d)) for d >= 0 and exp(d) / (1 + exp(d)) below."""
    return np.exp(np.minimum(d, 0.0)) / (1.0 + np.exp(-np.abs(d)))


def relu(x: Matrix) -> Matrix:
    out = Matrix._result(np.maximum(x.data, 0.0))
    mask = x.data > 0
    return record(out, (x,), lambda g: (g * mask,))


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax, stabilised by max subtraction."""
    if logits.data.size == 0:
        raise ValueError("softmax needs at least one element")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Matrix._result(y)

    def back(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return record(out, (logits,), back)


def masked_cross_entropy(predicted: Matrix, targets: np.ndarray, mask: np.ndarray) -> Matrix:
    """Sum of per-row cross-entropies, with rows weighted by `mask`.

    `predicted` is batch x classes; `targets` holds one class index per row and
    `mask` one weight per row (0 silences padding rows).
    """
    targets = np.asarray(targets, dtype=np.intp)
    mask = np.asarray(mask, dtype=np.float64)
    b = predicted.rows
    if targets.shape != (b,) or mask.shape != (b,):
        raise ShapeError(
            f"targets/mask must have shape ({b},), got {targets.shape} and {mask.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= predicted.cols):
        raise ValueError("target index out of range")
    rows = np.arange(b)
    p = np.maximum(predicted.data[rows, targets], PROB_FLOOR)
    value = float((-np.log(p) * mask).sum())
    out = Matrix._result(np.array([[value]]))

    def back(g):
        gp = np.zeros_like(predicted.data)
        gp[rows, targets] = -float(g[0, 0]) * mask / p
        return (gp,)

    return record(out, (predicted,), back)


def reshape(x: Matrix, rows: int, cols: int) -> Matrix:
    if rows * cols != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} to ({rows}, {cols})")
    out = Matrix._result(x.data.reshape(rows, cols).copy())
    return record(out, (x,), lambda g: (g.reshape(x.shape),))


def take_rows(x: Matrix, indices) -> Matrix:
    """Gather rows of `x`; gradients accumulate back into the gathered rows."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise ShapeError(f"row index out of range for {x.shape}")
    out = Matrix._result(x.data[idx])

    def back(g):
        # one reduceat over index-sorted rows; np.add.at is slow on wide rows
        gx = np.zeros_like(x.data)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            rows, starts = np.unique(idx[order], return_index=True)
            gx[rows] = np.add.reduceat(g[order], starts, axis=0)
        return (gx,)

    return record(out, (x,), back)


def dropout(x: Matrix, rate: float, rng: np.random.Generator) -> Matrix:
    """Inverted dropout: surviving entries are scaled by 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = ((rng.random(x.shape) >= rate) / (1.0 - rate)).astype(x.data.dtype, copy=False)
    out = Matrix._result(x.data * keep)
    return record(out, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# LSTM


def lstm_cell(z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """One LSTM cell update on plain arrays; the only definition of its arithmetic.

    `z` holds B x 4H gate pre-activations packed (input, forget, candidate,
    output) and `c` the B x H cell state.  Returns (acts, c2, tanh(c2), h2):
    the packed gate activations, the new cell state and the new hidden state
    h2 = o * tanh(c2), where c2 = f * c + i * g.
    """
    hs = c.shape[1]
    acts = np.empty_like(z)
    acts[:, :2 * hs] = _sigmoid(z[:, :2 * hs])
    acts[:, 2 * hs:3 * hs] = np.tanh(z[:, 2 * hs:3 * hs])
    acts[:, 3 * hs:] = _sigmoid(z[:, 3 * hs:])
    i, f, g, o = acts[:, :hs], acts[:, hs:2 * hs], acts[:, 2 * hs:3 * hs], acts[:, 3 * hs:]
    c2 = f * c + i * g
    tc2 = np.tanh(c2)
    return acts, c2, tc2, o * tc2


def lstm_sequence(xproj: Matrix, wh: Matrix, bias: Matrix, batch: int) -> Matrix:
    """One LSTM layer over a whole padded batch, recorded as a single tape node.

    `xproj` is the time-major (T*B) x 4H input projection: rows t*B .. t*B+B-1
    hold step t of the B sequences.  The state starts at zero, and step t
    feeds ``(xproj[t] + h @ wh) + bias`` to :func:`lstm_cell`.  Returns the
    (T*B) x H hidden states in the same row order.  The backward pass runs
    BPTT one step at a time, where only ``dh = dz_t @ wh.T`` is a product,
    and forms the gradients of `wh` and `bias` once over all steps.
    """
    hs = wh.rows
    if wh.cols != 4 * hs or xproj.cols != wh.cols or bias.shape != (1, wh.cols):
        raise ShapeError(
            f"LSTM shapes are inconsistent: input {xproj.shape}, recurrent {wh.shape}, "
            f"bias {bias.shape}"
        )
    if batch < 1 or xproj.rows % batch:
        raise ShapeError(f"{xproj.rows} input rows do not split into batches of {batch}")
    steps = xproj.rows // batch
    x, w = xproj.data, wh.data
    hidden = np.empty((x.shape[0], hs), dtype=x.dtype)
    # the backward pass needs every step's gates and cell; inference keeps none
    taped = is_recording() and any(m.track for m in (xproj, wh, bias))
    if taped:
        acts, cells, tcells = np.empty_like(x), np.empty_like(hidden), np.empty_like(hidden)
    h = c = np.zeros((batch, hs), dtype=x.dtype)
    for t in range(steps):
        r = slice(t * batch, (t + 1) * batch)
        z = (x[r] + h @ w) + bias.data
        a, c, tc, h = lstm_cell(z, c)
        hidden[r] = h
        if taped:
            acts[r], cells[r], tcells[r] = a, c, tc
    out = Matrix._result(hidden)

    def back(gh):
        i, f, g, o = acts[:, :hs], acts[:, hs:2 * hs], acts[:, 2 * hs:3 * hs], acts[:, 3 * hs:]
        # local derivatives of every gate, for all steps at once
        di = g * i * (1.0 - i)
        df = f * (1.0 - f)
        dg = i * (1.0 - g * g)
        do = tcells * o * (1.0 - o)
        dtc = o * (1.0 - tcells * tcells)
        dz = np.zeros_like(acts)
        dh = np.zeros((batch, hs), dtype=x.dtype)
        dc = np.zeros((batch, hs), dtype=x.dtype)
        for t in reversed(range(steps)):
            r = slice(t * batch, (t + 1) * batch)
            dh = gh[r] + dh
            dc = dc + dh * dtc[r]
            dz[r, :hs] = dc * di[r]
            if t:
                dz[r, hs:2 * hs] = dc * cells[(t - 1) * batch:t * batch] * df[r]
            dz[r, 2 * hs:3 * hs] = dc * dg[r]
            dz[r, 3 * hs:] = dh * do[r]
            dc = dc * f[r]
            if t:
                dh = dz[r] @ w.T
        dwh = hidden[:-batch].T @ dz[batch:]
        return dz, dwh, dz.sum(axis=0, keepdims=True)

    return record(out, (xproj, wh, bias), back)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Matrix], params: Sequence[Matrix], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must rebuild its forward pass on every call (it runs once under a
    fresh tape for the analytic side, then twice per parameter entry for the
    numeric side) and must be deterministic across calls.
    """
    params = list(params)
    with ComputeTape() as tape:
        loss = f()
    if loss.shape != (1, 1):
        raise ShapeError(f"grad_check needs a scalar function, got shape {loss.shape}")
    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    backward(tape, loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p, g in zip(params, saved):
        p.grad = g

    def eval_loss() -> float:
        value = f().item()
        if not np.isfinite(value):
            raise NumericError("grad_check: function evaluated to a non-finite value")
        return value

    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = eval_loss()
            flat[i] = orig - h
            f_minus = eval_loss()
            flat[i] = orig
            gn = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - gn) / max(1e-8, abs(gflat[i]) + abs(gn))
            if err > max_err:
                max_err = err
    return max_err
