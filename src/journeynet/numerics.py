"""Dense matrices with reverse-mode automatic differentiation.

Everything is a 2-D array wrapped in a :class:`Matrix`.  Weights are
float64 at rest: a Matrix built from data holds float64, and checkpoints
see only float64.  Every operation follows its operands' dtype, so a pass
over a model of float32 weights computes, records and back-propagates in
float32.  One cast, `SequenceModel.cast`, builds every such model, which
owns its arrays: training and evaluation run on a float32 model that the
optimizer step writes in place, and `train` upcasts it once to float64
when it returns it (see :mod:`journeynet.training`); the simulator's Monte
Carlo rollouts run on a compute copy (`SequenceModel.compute_copy`).  A model's first
serving call, under any tape, freezes every weight read-only, so
:func:`grad_check`, which writes into the weights, needs a model that was
never served (or weights made writeable again).  Only 1 x 1 loss scalars stay float64.
A :class:`ComputeTape` watches the leaves it is given: inside its block
they are tracked, and every operation with a tracked operand is
recorded and tracks its result.
Calling :func:`backward` on the tape then accumulates ``dL/dx`` into the
``grad`` buffer of every leaf.  The walk drops each node from the
recording once it has run, so an intermediate gradient, and every forward
array that only the tape held, is freed as soon as nothing will read it;
a recording is therefore walked once, and a second walk raises.  A Matrix
no tape watches is untracked, so operations on it are plain numpy
computations and record nothing, also inside another tape's block;
serving a model whose weights a tape watches records the passes and
steps its cache does not serve.

Each entry into a tape's block starts a new recording.  A recorded
:func:`lstm_sequence` takes its (T*B)-row arrays from slots that the
tape's next recording reuses: the hidden rows, the cell rows, the packed
gate activations and the tanh of the cells, which each step writes in
place (its recurrent product into its rows of the activations, and the
cell its results into their rows), and in its backward an H-wide
copy of the forget gate, the one activation the recurrence still reads
once the backward has written the gate derivatives ``dz`` over the
activations' slot.  So what a recording returns, the cell rows included,
is valid until the tape records again; a leaf's gradient is never a slot.
A recording keeps no layer input that its backward does not read: layer 0
reads the rows of the phrase projection through the batch's row index (no
gathered copy), and a deeper layer forms its input projection from the
hidden rows below and frees it when its forward pass ends, since the
products of its backward read only those rows and the input weight.

A product whose result only a leaf's gradient reads (the weight side of
:func:`matmul` and :func:`dense`, and the input weight, recurrent weight
and bias gradients of :func:`lstm_sequence`) is returned by its node's
backward function as a thunk.  A tape given a `helper` (an executor with
one worker) sends each node's thunks to it as one task, so the product
runs while the walk goes on; a tape without one runs them inline.  The
calling thread allocates every array a thunk writes, and :func:`backward`
adds each leaf's gradients up in the order of the walk either way, so a
helper changes no bit.

Gradient accumulation is explicit: a leaf's grads add up across backward
calls until the caller sets its ``grad`` to None.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

if TYPE_CHECKING:
    from concurrent.futures import Executor

# floor applied inside log() so cross-entropy stays finite
PROB_FLOOR = 1e-12


class Matrix:
    """A rows x cols array with an optional same-shape gradient buffer.

    The constructor stores float64; op results keep their operands' dtype.
    `grad` may be an array a backward function returned, shared with other
    operands, so it is never written in place: each further gradient makes
    a new sum.  `track` is set while a tape watches this Matrix, or when an
    op on tracked operands made it.
    """

    __slots__ = ("data", "grad", "track")

    def __init__(self, data):
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
        self.track = False

    @classmethod
    def _result(cls, data: np.ndarray) -> "Matrix":
        """Wrap an op result without copying or validating."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.track = False
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
        """Add `g` to `grad`, never writing into an existing array."""
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Matrix(shape={self.shape})"


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Matrix:
    """A fan_in x fan_out weight Matrix, uniform in +-sqrt(6 / (fan_in + fan_out)).

    The initialiser of Glorot & Bengio (2010), used for every weight matrix.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Matrix(rng.uniform(-limit, limit, size=(fan_in, fan_out)))


class _TapeNode:
    """One recorded op; `inputs` holds the operands tracked when it ran, None for the rest."""

    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_active = threading.local()


class _Slots:
    """The arrays a recording takes in turn: the k-th views the last recording's k-th,
    grown only when a larger batch needs more, so a tape re-entered for every
    batch keeps their pages instead of faulting fresh ones in."""

    __slots__ = ("arrays", "taken")

    def __init__(self):
        self.arrays: list[np.ndarray] = []
        self.taken = 0

    def take(self, rows: int, cols: int, dtype) -> np.ndarray:
        k, size = self.taken, rows * cols
        self.taken += 1
        if k == len(self.arrays):
            self.arrays.append(np.empty(size, dtype))
        elif self.arrays[k].size < size or self.arrays[k].dtype != dtype:
            self.arrays[k] = np.empty(size, dtype)
        return self.arrays[k][:size].reshape(rows, cols)


class ComputeTape:
    """Ordered record of the primitive operations on the leaves it watches.

    Use as a context manager: the block tracks `leaves` and records, in
    execution order (a topological order of the compute graph), every op
    with a tracked operand.  When the block ends, also on an exception,
    nothing it tracked stays tracked, and :func:`backward` after the block
    still gives the leaves their gradients.  One tape at a time may be
    active on a thread, and a leaf must be watched by one tape at a time.
    Entering it again starts a new recording, which drops the last one
    and reuses its slots (see the module notes).  `helper` runs the
    leaf-gradient thunks of :func:`backward` (see the module notes).
    """

    def __init__(self, leaves: Iterable[Matrix] = (), helper: Executor | None = None):
        self.leaves = tuple(leaves)
        self.helper = helper
        self._leaf_ids = {id(m) for m in self.leaves}
        self._nodes: list[_TapeNode] = []
        self._walked = False
        self._slots = _Slots()

    def __enter__(self) -> "ComputeTape":
        if getattr(_active, "tape", None) is not None:
            raise RuntimeError("a ComputeTape is already active on this thread")
        # a new recording: the last one's arrays are dead
        self._nodes, self._walked, self._slots.taken = [], False, 0
        for m in self.leaves:
            m.track = True
        _active.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for m in (*self.leaves, *(node.output for node in self._nodes)):
            m.track = False
        _active.tape = None

    def __len__(self) -> int:
        return len(self._nodes)


def record(output: Matrix, inputs: Sequence[Matrix], backward_fn: Callable) -> Matrix:
    """Register a primitive op on the active tape, if any operand is tracked.

    `backward_fn(g)` receives the output gradient and must return one gradient
    array (or None) per input, in order; in place of an array it may return
    a thunk that computes it (see the module notes).  This is the extension
    point for primitives defined outside this module.
    """
    if not any(inp.track for inp in inputs):
        return output
    tape = getattr(_active, "tape", None)
    if tape is None:
        return output
    output.track = True
    tape._nodes.append(_TapeNode(output, tuple(m if m.track else None for m in inputs), backward_fn))
    return output


def backward(tape: ComputeTape, loss: Matrix) -> None:
    """Populate gradients of everything `loss` depends on, walking `tape` backward.

    Gradients of the tape's leaves accumulate across calls, added up in
    the walk's order once the walk and the helper's tasks have ended.  Each
    node leaves the recording as soon as it has run, and with it its output's
    gradient and the forward arrays only it held, so a pass holds only what
    is still to be read.  A walked recording is empty: walking it again
    raises RuntimeError, and the tape must record again first.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be a 1x1 scalar, got {loss.shape}")
    if tape._walked:
        raise RuntimeError("this recording was walked already: record again to walk again")
    tape._walked, nodes = True, tape._nodes
    leaf = id(loss) in tape._leaf_ids
    if leaf:
        # degenerate case: the loss is itself a leaf
        loss.accumulate_grad(np.ones((1, 1)))
    else:
        loss.grad = np.ones((1, 1))
    joins, tasks = [], []  # [leaf, gradient or thunk] in walk order; the helper's tasks
    try:
        while nodes:
            # tape order is topological, so every consumer of this output has
            # added its part and left the recording: the gradient is complete,
            # and this node's arrays are dead once it has run
            node = nodes.pop()
            g, node.output.grad = node.output.grad, None
            if g is None:
                continue
            thunks = []
            for inp, gi in zip(node.inputs, node.backward_fn(g)):
                if gi is None or inp is None:
                    continue
                if id(inp) in tape._leaf_ids:
                    joins.append([inp, gi])
                    if callable(gi):
                        thunks.append(joins[-1])
                else:
                    inp.accumulate_grad(gi() if callable(gi) else gi)
            if thunks and tape.helper is not None:
                tasks.append(tape.helper.submit(_run_thunks, thunks))
            elif thunks:
                _run_thunks(thunks)
    finally:
        for task in tasks:  # no task outlives the walk, nor reads a slot the next recording takes
            task.exception()
    for task in tasks:
        task.result()
    for inp, gi in joins:
        inp.accumulate_grad(gi)
    if not leaf:
        loss.grad = None


def _run_thunks(entries: list[list]) -> None:
    """Replace each entry's thunk by the array it computes."""
    for entry in entries:
        entry[1] = entry[1]()


# ---------------------------------------------------------------------------
# primitive operations


def rows_product(a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ w``, with every row's bits independent of the other rows of `a`;
    written into `out` if given.

    numpy sends a product of two or more rows to BLAS gemm, whose row of
    the result depends on that row of `a` alone (a tier-1 test checks this
    for the model's shapes), but a one-row product to gemv, which rounds
    differently.  A one-row `a` is therefore multiplied as a duplicated pair
    and row 0 returned, so a row gets the same bits alone as in any batch.
    """
    if len(a) == 1:
        pair = np.concatenate([a, a]) @ w
        if out is None:
            return pair[:1]
        np.copyto(out, pair[:1])
        return out
    return np.matmul(a, w, out=out)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    out = Matrix._result(rows_product(a.data, b.data))
    ta = a.track

    def back(g):  # backward never runs the thunk of an untracked `b`
        gb = np.empty(b.shape, np.result_type(a.data, g))
        return (g @ b.data.T if ta else None), lambda: np.matmul(a.data.T, g, out=gb)

    return record(out, (a, b), back)


def dense(x: Matrix, w: Matrix, b: Matrix, relu: bool) -> Matrix:
    """``x @ w`` with the 1 x cols bias row `b` added to every row, through ReLU if `relu`.

    One node: the bias and the ReLU are applied in place to the
    :func:`rows_product`, so no product or sum array outlives the call.  Its
    backward masks by the output (positive exactly where the sum was), sums
    the bias gradient and multiplies as :func:`matmul` does.
    """
    y = rows_product(x.data, w.data)
    y += b.data
    if relu:
        np.maximum(y, 0.0, out=y)
    tx = x.track

    def back(g):  # backward never runs the thunk of an untracked `w`
        if relu:
            g = g * (y > 0)
        gb = g.sum(axis=0, keepdims=True)
        gw = np.empty(w.shape, np.result_type(x.data, g))
        return (g @ w.data.T if tx else None), lambda: np.matmul(x.data.T, g, out=gw), gb

    return record(Matrix._result(y), (x, w, b), back)


def scale(x: Matrix, c: float) -> Matrix:
    out = Matrix._result(x.data * c)
    return record(out, (x,), lambda g: (g * c,))


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number, written
    over `d`: with e = exp(-|d|), max(e, d >= 0) / (1 + e), which is
    1 / (1 + exp(-d)) for d >= 0 and exp(d) / (1 + exp(d)) below."""
    pos = d >= 0
    e = np.exp(np.negative(np.abs(d, out=d), out=d), out=d)
    den = 1.0 + e
    np.maximum(e, pos, out=e)
    return np.divide(e, den, out=e)


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax, stabilised by max subtraction."""
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
    out = Matrix._result(x.data.reshape(rows, cols).copy())
    return record(out, (x,), lambda g: (g.reshape(x.shape),))


def row_index(indices, n: int) -> np.ndarray:
    """`indices` as a 1-D index array into n rows; ShapeError if any is negative or >= n."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"row index out of range for {n} rows")
    return idx


def dropout(x: Matrix, rate: float, rng: np.random.Generator) -> Matrix:
    """Inverted dropout: surviving entries are scaled by 1/(1-rate), a rate
    in [0, 1) as `ModelConfig` keeps it.

    The keep mask is one ``rng.random(x.shape) >= rate`` draw, written in
    the operand's dtype and scaled there.
    """
    if rate == 0.0:
        return x
    keep = np.greater_equal(rng.random(x.shape), rate, out=np.empty(x.shape, x.data.dtype))
    keep *= x.data.dtype.type(1.0 / (1.0 - rate))
    out = Matrix._result(x.data * keep)
    return record(out, (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# LSTM


def lstm_cell(z: np.ndarray, c: np.ndarray, out: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One LSTM cell update on plain arrays; the only definition of its arithmetic.

    `z` holds B x 4H gate pre-activations packed (input, forget, candidate,
    output) and `c` the B x H cell state.  Returns (acts, c2, tanh(c2), h2):
    the packed gate activations, written over `z`, the new cell state and
    the new hidden state h2 = o * tanh(c2), where c2 = f * c + i * g.  The
    last three are written into the three B x H arrays of `out`.
    """
    hs = c.shape[1]
    c2, tc2, h2 = out
    i, f, g, o = z[:, :hs], z[:, hs:2 * hs], z[:, 2 * hs:3 * hs], z[:, 3 * hs:]
    # elementwise, so one sigmoid over all gates gives each gate's bits; the
    # candidate gate's tanh waits in h2 while the sigmoid writes over `z`
    np.tanh(g, out=h2)
    _sigmoid(z)
    np.copyto(g, h2)
    ig = np.multiply(i, g, out=h2)  # h2 holds i * g until h2 itself is formed
    np.add(np.multiply(f, c, out=c2), ig, out=c2)
    np.tanh(c2, out=tc2)
    np.multiply(o, tc2, out=h2)
    return z, c2, tc2, h2


def lstm_sequence(
    x: Matrix,
    wh: Matrix,
    bias: Matrix,
    h0: np.ndarray,
    c0: np.ndarray,
    rows: np.ndarray | None = None,
    wx: Matrix | None = None,
) -> tuple[Matrix, np.ndarray]:
    """One LSTM layer over a whole padded batch, recorded as a single tape node.

    The layer's time-major input projection is `x`, or ``x @ wx`` if given
    `wx` (a deeper layer passes the hidden rows below it and its input
    weight): a :func:`rows_product` formed here and freed when the forward
    pass ends.  Step t of the B sequences, which start from the B x H
    constant arrays `h0` and `c0`, reads projection rows t*B .. t*B+B-1, or,
    if given `rows`, the rows ``rows[t*B:t*B+B]`` (layer 0 reads the phrase
    projection or the page table through the batch's row index, with no
    gather of its own).  Each step adds its input rows and then `bias` in
    place to the :func:`rows_product` ``h @ wh`` and feeds the sum to
    :func:`lstm_cell`, the only place the recurrence is written.  Each
    step writes that product into its rows of the gate activations, over
    which the cell writes them, and the cell writes the step's cell,
    tanh(cell) and hidden rows in place: recorded, into the rows of the
    tape's slots, and otherwise into the pass's own rows, with one step's
    array for the activations and the tanh.  Returns the (T*B) x H hidden
    states, the tracked output, and the (T*B) x H cell states as a plain
    array, both in that row order.  The backward pass
    runs BPTT one step at a time, where only ``dh = dz_t @ wh.T`` is a
    product and every step writes into the same three B x H arrays, forms
    the gradients of `wh` and `bias` once, scatters ``dz``
    back through `rows` as one index-sorted reduceat, and runs
    :func:`matmul`'s two products through `wx`.  Recorded, both row arrays
    are slots of the active tape (see the module notes).  `x`, `wx`, `wh`
    and `bias` follow the model's weight layout
    (:func:`seqmodel.parameter_shapes`), and the states hold B >= 1 rows,
    which the model's entries own: ``start`` (a prefix),
    ``batch_step_probs`` (a sequence of a step) and ``step`` (a row).
    """
    hs, batch = wh.rows, len(h0)
    w = wh.data
    proj = x.data if wx is None else rows_product(x.data, wx.data)
    n, dtype = len(proj if rows is None else rows), proj.dtype
    steps = n // batch
    # only a tape keeps every step's gates, for the backward pass
    inputs = (x, wh, bias) if wx is None else (x, wh, bias, wx)
    tracked = x.track or wh.track or bias.track or (wx is not None and wx.track)
    tape = getattr(_active, "tape", None) if tracked else None
    if tape is not None:  # the rows live in the tape's slots
        slots = tape._slots
        hidden, cells, acts, tcells = (slots.take(n, k, dtype) for k in (hs, hs, 4 * hs, hs))
        # a leaf keeps its gradient, so it is never a slot; the tape's exit untracks `x`
        leaf, tx = id(x) in tape._leaf_ids, x.track
    else:  # one step's activations and tanh(cells), which nothing reads after it
        hidden, cells = np.empty((n, hs), dtype), np.empty((n, hs), dtype)
        acts, tcells = np.empty((batch, 4 * hs), dtype), np.empty((batch, hs), dtype)
    h, c = h0, c0
    for t in range(steps):
        r = slice(t * batch, (t + 1) * batch)
        k = r if tape is not None else slice(None)  # the step's rows of `acts` and `tcells`
        # the product is the step's pre-activations, over which the cell writes its activations
        z = rows_product(h, w, acts[k])
        z += proj[r] if rows is None else proj[rows[r]]
        z += bias.data
        _, c, _, h = lstm_cell(z, c, (cells[r], tcells[k], hidden[r]))
    out = Matrix._result(hidden)

    def back(gh):
        # the gate derivatives overwrite the activations they are formed from,
        # once the forget gate, which the recurrence reads, has a slot of its own
        dz = acts
        i, f, g, o = dz[:, :hs], dz[:, hs:2 * hs], dz[:, 2 * hs:3 * hs], dz[:, 3 * hs:]
        forget = slots.take(n, hs, dtype)
        np.copyto(forget, f)
        # each gate's local derivative, for all steps at once, in its block:
        # g * i * (1 - i), f * (1 - f), i * (1 - g * g) and tcells * o * (1 - o)
        dtc = o * (1.0 - tcells * tcells)
        np.multiply(np.multiply(tcells, o, out=tcells), np.subtract(1.0, o, out=o), out=o)
        gi = np.multiply(g, i, out=tcells)  # no one reads tcells again
        np.multiply(np.subtract(1.0, np.multiply(g, g, out=g), out=g), i, out=g)
        np.multiply(gi, np.subtract(1.0, i, out=i), out=i)
        np.multiply(np.subtract(1.0, f, out=f), forget, out=f)
        # from here i, f, g and o are the blocks of dz
        # the loop's three B x H arrays, each operation written into one of them
        dh, dc, tmp = np.zeros((batch, hs), dtype), np.zeros((batch, hs), dtype), np.empty((batch, hs), dtype)
        for t in reversed(range(steps)):
            r = slice(t * batch, (t + 1) * batch)
            np.add(gh[r], dh, out=dh)
            np.add(dc, np.multiply(dh, dtc[r], out=tmp), out=dc)
            i[r] *= dc
            f[r] *= np.multiply(dc, cells[r.start - batch:r.start] if t else c0, out=tmp)
            g[r] *= dc
            o[r] *= dh
            dc *= forget[r]
            if t:
                np.matmul(dz[r], w.T, out=dh)
        dwh, step0, dbias = np.empty_like(w, dtype), np.empty_like(w, dtype), np.empty_like(bias.data, dtype)

        def wh_grad():  # hidden[:-batch].T @ dz[batch:] + h0.T @ dz[:batch]
            later = np.matmul(hidden[:-batch].T, dz[batch:], out=dwh)
            return np.add(later, np.matmul(h0.T, dz[:batch], out=step0), out=dwh)

        def bias_grad():
            return np.sum(dz, axis=0, keepdims=True, out=dbias)

        dproj = dz
        if rows is not None:  # one reduceat over index-sorted rows; np.add.at is slow on wide rows
            dproj = np.zeros((x.rows, 4 * hs), dtype)
            order = np.argsort(rows, kind="stable")
            first, starts = np.unique(rows[order], return_index=True)
            dproj[first] = np.add.reduceat(dz[order], starts, axis=0)
        if wx is None:
            return (dproj.copy() if dproj is dz and leaf else dproj), wh_grad, bias_grad
        dwx = np.empty(wx.shape, dtype)  # backward never runs the thunk of an untracked `wx`
        return (dproj @ wx.data.T if tx else None), wh_grad, bias_grad, lambda: np.matmul(x.data.T, dproj, out=dwx)

    return record(out, inputs, back), cells


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Matrix], params: Sequence[Matrix], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must rebuild its forward pass on every call (it runs once under a
    fresh tape for the analytic side, then twice per parameter entry for the
    numeric side) and must be deterministic across calls.  It writes into
    the params' arrays, so on the weights of a served model, which serving
    froze read-only, it raises numpy's ValueError.
    """
    params = list(params)
    with ComputeTape(params) as tape:
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
