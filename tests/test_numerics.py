import weakref
import zlib

import numpy as np
import pytest

from journeynet import numerics as nm
from journeynet.errors import NumericError, ShapeError
from journeynet.numerics import (
    ComputeTape,
    Matrix,
    backward,
    dense,
    dropout,
    grad_check,
    masked_cross_entropy,
    matmul,
    reshape,
    scale,
    softmax,
)


def test_matmul_identity():
    a = Matrix(np.eye(2))
    b = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_zero_annihilates():
    z = Matrix(np.zeros((2, 2)))
    b = Matrix(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(matmul(z, b).data, np.zeros((2, 3)))


def test_matmul_hand_dot_product():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = Matrix([[5.0], [6.0]])
    assert np.array_equal(matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_associative_on_well_conditioned_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (Matrix(rng.uniform(-1, 1, size=(4, 4))) for _ in range(3))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


def test_softmax_symmetry():
    y = softmax(Matrix([[0.0, 0.0]]))
    assert np.allclose(y.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_shift_invariance():
    for c in (-3.0, 0.0, 17.5):
        y = softmax(Matrix([[c, c, c]]))
        assert np.allclose(y.data, [[1 / 3] * 3], atol=1e-12)


def test_softmax_exp_oracle():
    y = softmax(Matrix([[1.0, 2.0, 3.0]]))
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(y.data[0], expected, atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(Matrix._result(np.zeros((1, 0))))


def test_softmax_is_distribution_even_for_extreme_logits():
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = Matrix(rng.uniform(-1e4, 1e4, size=(1, rng.integers(1, 9))))
        y = softmax(logits).data
        assert np.all(y >= 0)
        assert np.isfinite(y).all()
        assert abs(y.sum() - 1.0) < 1e-9


def cross_entropy(predicted, target):
    """Cross-entropy of one probability row: masked_cross_entropy of a batch of one."""
    return masked_cross_entropy(predicted, [target], [1.0])


def test_cross_entropy_perfect_prediction_is_zero():
    p = Matrix([[0.0, 1.0, 0.0]])
    assert cross_entropy(p, 1).item() == 0.0


def test_cross_entropy_uniform_is_log_n():
    p = Matrix([[0.25] * 4])
    for t in range(4):
        assert cross_entropy(p, t).item() == pytest.approx(1.3862943611198906, abs=1e-12)


def test_cross_entropy_half_is_log_two():
    p = Matrix([[0.5, 0.5]])
    assert cross_entropy(p, 0).item() == pytest.approx(0.6931471805599453, abs=1e-12)


def test_cross_entropy_out_of_range_index():
    p = Matrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        cross_entropy(p, 2)
    with pytest.raises(ValueError):
        cross_entropy(p, -1)


def test_cross_entropy_floor_keeps_loss_finite():
    p = Matrix([[1.0, 0.0]])
    loss = cross_entropy(p, 1)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-np.log(1e-12))


def test_stable_sigmoid_never_overflows():
    d = np.array([-1e4, -745.0, -30.0, -1.0, 0.0, 1.0, 30.0, 745.0, 1e4])
    with np.errstate(over="raise"):
        s = nm._sigmoid(d)
    assert np.all((s >= 0) & (s <= 1))
    assert s[4] == 0.5 and s[0] == 0.0 and s[-1] == 1.0
    mid = d[2:-2]
    np.testing.assert_allclose(s[2:-2], 1.0 / (1.0 + np.exp(-mid)), rtol=1e-15, atol=0)
    np.testing.assert_allclose(nm._sigmoid(-d), 1.0 - s, rtol=0, atol=np.finfo(float).eps)


def test_backward_square():
    x = Matrix([[3.0]])
    with ComputeTape([x]) as tape:
        y = matmul(x, x)
    backward(tape, y)
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_constant_function_gives_zero():
    x = Matrix([[2.0]])
    c = Matrix([[5.0]])
    with ComputeTape([x]) as tape:
        y = dense(x, Matrix([[0.0]]), c, relu=False)
    backward(tape, y)
    assert x.grad[0, 0] == 0.0


def test_backward_requires_scalar():
    x = Matrix([[1.0, 2.0]])
    with ComputeTape([x]) as tape:
        y = scale(x, 2.0)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_backward_accumulates_across_calls():
    x = Matrix([[3.0]])
    tape = ComputeTape([x])

    def walk():  # a recording is walked once: record again for each walk
        with tape:
            y = matmul(x, x)
        backward(tape, y)

    walk()
    walk()
    assert x.grad[0, 0] == pytest.approx(12.0)
    x.grad = None  # the caller ends the accumulation
    walk()
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_frees_each_forward_array_once_nothing_reads_it():
    rng = np.random.default_rng(8)
    w = Matrix(rng.normal(size=(3, 4)))
    x = Matrix(rng.normal(size=(2, 3)))
    with ComputeTape([w]) as tape:
        h = matmul(x, w)
        refs = [weakref.ref(h.data)]
        p = softmax(h)
        refs.append(weakref.ref(p.data))
        loss = masked_cross_entropy(p, [0, 3], [1.0, 1.0])
    value = loss.item()
    del h, p  # only the recording holds them now
    assert all(ref() is not None for ref in refs)
    backward(tape, loss)
    assert [ref() for ref in refs] == [None, None]
    assert len(tape) == 0 and loss.item() == value
    assert w.grad.shape == (3, 4)


def test_backward_walks_a_recording_once():
    x = Matrix([[3.0]])
    tape = ComputeTape([x])
    with tape:
        y = matmul(x, x)
    backward(tape, y)
    with pytest.raises(RuntimeError, match="walked already"):
        backward(tape, y)
    assert x.grad[0, 0] == 6.0  # the refused walk added nothing
    with tape:  # a new recording can be walked
        y = matmul(x, x)
    backward(tape, y)
    assert x.grad[0, 0] == 12.0


def test_backward_frees_each_intermediate_gradient_once_its_node_has_run():
    x = Matrix([[1.0, 2.0]])
    seen = []

    def back_y(g):
        # z's node ran before y's: its gradient, and y's own, are already freed
        seen.append((z.grad is None, y.grad is None))
        return (g * 2.0,)

    tape = ComputeTape([x])
    for passes in (1, 2):  # the second walk records again, and adds the same
        with tape:
            y = nm.record(Matrix._result(x.data * 2.0), (x,), back_y)
            z = scale(y, 3.0)
            loss = nm.record(
                Matrix._result(z.data.sum(keepdims=True)), (z,), lambda g: (np.full(z.shape, g[0, 0]),)
            )
        backward(tape, loss)
        assert seen == [(True, True)] * passes
        assert y.grad is None and z.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [[6.0 * passes] * 2])


def test_backward_linear_in_loss():
    rng = np.random.default_rng(11)
    w = Matrix(rng.normal(size=(3, 3)))
    x1 = Matrix(rng.normal(size=(1, 3)))
    x2 = Matrix(rng.normal(size=(1, 3)))

    def losses():
        l1 = cross_entropy(softmax(matmul(x1, w)), 0)
        l2 = cross_entropy(softmax(matmul(x2, w)), 2)
        return l1, l2

    with ComputeTape([w]) as tape:
        l1, l2 = losses()
        total = dense(l1, Matrix([[1.0]]), l2, relu=False)
    backward(tape, total)
    g_sum = w.grad.copy()

    w.grad = None
    tape = ComputeTape([w])
    for k in range(2):  # one recording per walk
        with tape:
            loss = losses()[k]
        backward(tape, loss)
    assert np.allclose(w.grad, g_sum, rtol=1e-12, atol=1e-15)


def test_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(42)
    w1 = Matrix(rng.normal(scale=0.5, size=(4, 5)))
    b1 = Matrix(rng.normal(scale=0.1, size=(1, 5)))
    w2 = Matrix(rng.normal(scale=0.5, size=(5, 4)))
    w3 = Matrix(rng.normal(scale=0.5, size=(4, 3)))
    x = Matrix(rng.normal(size=(2, 4)))
    t = np.array([2, 0])
    m = np.ones(2)

    def f():
        h1 = dense(x, w1, b1, relu=True)
        h2 = softmax(matmul(h1, w2))
        return masked_cross_entropy(softmax(matmul(h2, w3)), t, m)

    err = grad_check(f, [w1, b1, w2, w3], h=1e-5)
    assert err < 1e-4


def test_grad_check_quadratic_form_is_nearly_exact():
    rng = np.random.default_rng(5)
    a = Matrix(rng.normal(size=(3, 3)))
    x = Matrix(rng.normal(size=(1, 3)))

    def f():
        xt = reshape(x, 3, 1)
        return matmul(matmul(x, a), xt)

    assert grad_check(f, [x], h=1e-5) < 1e-7


def test_grad_check_no_parameters_returns_zero():
    c = Matrix([[1.0]])
    assert grad_check(lambda: matmul(c, c), [], h=1e-5) == 0.0


def test_grad_check_rejects_non_finite():
    x = Matrix([[1e308]])

    def f():
        return matmul(x, x)

    with np.errstate(over="ignore"), pytest.raises(NumericError):
        grad_check(f, [x], h=1e-5)


def test_grad_check_and_item_need_a_1x1_matrix():
    x = Matrix([[1.0, 2.0]])
    with pytest.raises(ShapeError, match="scalar function"):
        grad_check(lambda: scale(x, 2.0), [x], h=1e-5)
    with pytest.raises(ShapeError, match="1x1"):
        x.item()


PRIMITIVE_CASES = [
    "matmul",
    "dense",
    "dense_one_row",
    "dense_relu",
    "scale",
    "softmax_ce",
    "reshape",
    "lstm_sequence",
    "lstm_sequence_from_state",
    "lstm_sequence_rows",
    "lstm_sequence_wx",
]


def stable_seed(*key) -> int:
    """A seed fixed by `key` alone; `hash` of a str changes with PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


@pytest.mark.parametrize("op_name", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(op_name):
    # >= 100 randomized trials across the primitive set; inputs are kept away
    # from relu/max kinks where a finite difference straddles the non-smooth point
    for trial in range(10):
        rng = np.random.default_rng(stable_seed(op_name, trial))
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))

        def rand(rows, cols):
            return Matrix(rng.uniform(-2, 2, size=(rows, cols)))

        def projector(rows, cols):
            pr = np.random.default_rng(stable_seed(op_name, trial, "proj"))
            w_col = Matrix(pr.uniform(0.5, 1.5, size=(cols, 1)))
            w_row = Matrix(pr.uniform(0.5, 1.5, size=(1, rows)))
            # linear scalarizer: keeps every upstream gradient structurally
            # nonzero so finite differences are compared against real signal
            return lambda m: matmul(w_row, matmul(m, w_col))

        if op_name == "matmul":
            a, b = rand(r, c), rand(c, r)
            proj = projector(r, r)
            f = lambda: proj(matmul(a, b))
            params = [a, b]
        elif op_name in ("dense", "dense_one_row"):  # one row: its bias gradient is its own
            rows = 1 if op_name == "dense_one_row" else r
            x, w, b = rand(rows, c), rand(c, r), rand(1, r)
            proj = projector(rows, r)
            f = lambda: proj(dense(x, w, b, relu=False))
            params = [x, w, b]
        elif op_name == "dense_relu":
            x, w, b = rand(r, c), rand(c, r), rand(1, r)
            while np.abs(x.data @ w.data + b.data).min() < 0.05:  # every sum away from the kink
                x, w, b = rand(r, c), rand(c, r), rand(1, r)
            proj = projector(r, r)
            f = lambda: proj(dense(x, w, b, relu=True))
            params = [x, w, b]
        elif op_name == "scale":
            a = rand(r, c)
            proj = projector(r, c)
            f = lambda: proj(scale(a, 1.7))
            params = [a]
        elif op_name == "softmax_ce":
            a = rand(1, c + 1)
            t = int(rng.integers(0, c + 1))
            f = lambda: masked_cross_entropy(softmax(a), [t], [1.0])
            params = [a]
        elif op_name == "reshape":
            a = rand(r, c)
            proj = projector(c, r)
            f = lambda: proj(reshape(a, c, r))
            params = [a]
        elif op_name == "lstm_sequence":
            # r steps of a batch of 2, hidden size c: every gate's sigmoid or
            # tanh derivative and the recurrent carry are on the path
            x, wh, b = rand(2 * r, 4 * c), rand(c, 4 * c), rand(1, 4 * c)
            proj = projector(2 * r, c)
            zero = np.zeros((2, c))
            f = lambda: proj(nm.lstm_sequence(x, wh, b, zero, zero)[0])
            params = [x, wh, b]
        elif op_name == "lstm_sequence_from_state":
            # the same from a nonzero constant state, whose hidden rows enter
            # the gradient of wh and whose cells that of the first forget gate
            x, wh, b = rand(2 * r, 4 * c), rand(c, 4 * c), rand(1, 4 * c)
            h0, c0 = rng.uniform(-1, 1, size=(2, c)), rng.uniform(-2, 2, size=(2, c))
            proj = projector(2 * r, c)
            f = lambda: proj(nm.lstm_sequence(x, wh, b, h0, c0)[0])
            params = [x, wh, b]
        elif op_name == "lstm_sequence_rows":
            # r steps of a batch of 2 read rows of a 3-row projection through
            # an index that may repeat and skip rows
            x, wh, b = rand(3, 4 * c), rand(c, 4 * c), rand(1, 4 * c)
            idx = rng.integers(0, 3, size=2 * r)
            proj = projector(2 * r, c)
            zero = np.zeros((2, c))
            f = lambda: proj(nm.lstm_sequence(x, wh, b, zero, zero, rows=idx)[0])
            params = [x, wh, b]
        elif op_name == "lstm_sequence_wx":
            # the layer projects its 2r input rows through wx itself
            x, wx, wh, b = rand(2 * r, 3), rand(3, 4 * c), rand(c, 4 * c), rand(1, 4 * c)
            proj = projector(2 * r, c)
            zero = np.zeros((2, c))
            f = lambda: proj(nm.lstm_sequence(x, wh, b, zero, zero, wx=wx)[0])
            params = [x, wx, wh, b]
        assert grad_check(f, params, h=1e-5) < 1e-4, f"{op_name} trial {trial}"


def test_masked_cross_entropy_matches_sum_of_rows():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.1, 1.0, size=(4, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    targets = np.array([0, 2, 1, 1])
    mask = np.array([1.0, 0.0, 1.0, 1.0])
    got = masked_cross_entropy(Matrix(probs), targets, mask).item()
    want = sum(
        -np.log(probs[i, targets[i]]) for i in range(4) if mask[i] > 0
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_dropout_inverted_scaling_and_gradient():
    x = Matrix(np.full((20, 10), 3.0))
    rng = np.random.default_rng(0)
    y = dropout(x, 0.5, rng)
    kept = y.data != 0
    assert np.allclose(y.data[kept], 6.0)
    # mean is preserved in expectation
    assert abs(y.data.mean() - 3.0) < 1.0

    rows = np.zeros(20, dtype=int)

    def f():
        sub_rng = np.random.default_rng(123)
        return masked_cross_entropy(softmax(dropout(x, 0.3, sub_rng)), rows, np.ones(20))

    assert grad_check(f, [x], h=1e-5) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
def test_dropout_mask_is_bitwise_the_divided_keep_mask(rate, dtype):
    # the mask once was (keep / (1 - rate)) in float64, cast to the operand's dtype;
    # (800, 256): the (T*B) x fc_width mask of a 32-session, 25-step batch at the paper config
    for shape in ((64, 48), (800, 256)):
        x = Matrix(np.random.default_rng(1).normal(size=shape))
        x.data = x.data.astype(dtype)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        with ComputeTape([x]) as tape:
            y = dropout(x, rate, rng)
        keep = ((ref.random(x.shape) >= rate) / (1.0 - rate)).astype(dtype)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == (x.data * keep).tobytes(), shape
        g = np.random.default_rng(2).normal(size=x.shape).astype(dtype)
        assert tape._nodes[-1].backward_fn(g)[0].tobytes() == (g * keep).tobytes(), shape
        assert rng.random() == ref.random(), shape  # the same stream draws


def test_dropout_rate_zero_is_identity():
    x = Matrix([[1.0, 2.0]])
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_matrix_rejects_non_finite():
    with pytest.raises(NumericError):
        Matrix([[np.nan]])
    with pytest.raises(NumericError):
        Matrix([[np.inf, 1.0]])


def test_matrix_shape_bookkeeping():
    m = Matrix([1.0, 2.0, 3.0])
    assert (m.rows, m.cols) == (1, 3)
    assert m.data.shape == (1, 3)
    with pytest.raises(ShapeError):
        Matrix(np.zeros((2, 2, 2)))


def test_matmul_backward_with_an_untracked_weight_gives_only_the_input_a_gradient():
    x = Matrix([[1.0, 2.0], [3.0, -1.0]])
    w = Matrix([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])
    with ComputeTape([x]) as tape:
        loss = masked_cross_entropy(softmax(matmul(x, w)), [0, 2], [1.0, 1.0])
    backward(tape, loss)
    assert w.grad is None
    y = softmax(matmul(x, w)).data
    dz = y - np.eye(3)[[0, 2]]  # d(cross-entropy)/d(logits), row by row
    assert np.allclose(x.grad, dz @ w.data.T, rtol=1e-12, atol=1e-12)


def test_untracked_ops_record_nothing():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[3.0], [4.0]])
    with ComputeTape() as tape:
        matmul(a, b)
    assert len(tape) == 0


def test_nested_tapes_rejected():
    with ComputeTape():
        with pytest.raises(RuntimeError):
            with ComputeTape():
                pass


def test_a_tape_tracks_its_leaves_only_inside_its_block_also_on_an_exception():
    w = Matrix([[2.0]])
    with pytest.raises(ValueError):
        with ComputeTape([w]):
            assert w.track
            y = matmul(w, w)
            assert y.track
            raise ValueError("a forward pass that fails")
    assert not w.track and not y.track
    with ComputeTape() as idle:  # no tape was left active
        matmul(w, w)
    assert len(idle) == 0
    with ComputeTape([w]) as tape:  # a second tape can watch w
        y = matmul(w, w)
    assert len(tape) == 1 and not w.track
    backward(tape, y)
    assert w.grad[0, 0] == 4.0
    with ComputeTape([w]):
        with pytest.raises(RuntimeError):
            with ComputeTape():
                pass
        assert w.track  # the failed nested tape left the outer one's leaf alone
    assert not w.track


def test_accumulate_grad_never_writes_into_a_shared_gradient():
    g = np.arange(6.0).reshape(2, 3)
    other = np.ones((2, 3))
    kept = g.copy()
    a, b = Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3)))
    a.accumulate_grad(g)
    b.accumulate_grad(g)
    a.accumulate_grad(other)
    a.accumulate_grad(other)
    assert np.array_equal(g, kept)
    assert np.array_equal(a.grad, kept + 2.0)
    assert b.grad is g


def test_accumulate_grad_same_array_twice_into_one_parameter():
    g = np.arange(6.0).reshape(2, 3)
    kept = g.copy()
    a = Matrix(np.zeros((2, 3)))
    a.accumulate_grad(g)
    a.accumulate_grad(g)
    a.accumulate_grad(g)
    assert np.array_equal(g, kept)
    assert np.array_equal(a.grad, 3.0 * kept)


def test_ops_follow_float32_operands(monkeypatch):
    cell_dtypes = set()
    cell = nm.lstm_cell

    def recording_cell(z, c):
        cell_dtypes.update((z.dtype, c.dtype))
        return cell(z, c)

    monkeypatch.setattr(nm, "lstm_cell", recording_cell)
    rng = np.random.default_rng(4)
    w = Matrix(rng.standard_normal((3, 8)))
    wh = Matrix(rng.standard_normal((2, 8)))
    bias = Matrix(np.zeros((1, 8)))
    w_fc, b_fc = Matrix(rng.standard_normal((2, 3))), Matrix(rng.standard_normal((1, 3)))
    w_out, b_out = Matrix(rng.standard_normal((3, 2))), Matrix(rng.standard_normal((1, 2)))
    wx1, wh1 = Matrix(rng.standard_normal((2, 8))), Matrix(rng.standard_normal((2, 8)))
    leaves = (w, wh, bias, wx1, wh1, w_fc, b_fc, w_out, b_out)
    for m in leaves:
        m.data = m.data.astype(np.float32)
    x = Matrix._result(rng.standard_normal((3, 3)).astype(np.float32))
    with ComputeTape(leaves) as tape:
        zero = np.zeros((2, 2), dtype=np.float32)
        # layer 0 reads 3 steps of 2 rows of the projection through an index, layer 1 projects them
        h, _ = nm.lstm_sequence(matmul(x, w), wh, bias, zero, zero, rows=np.array([2, 0, 1, 1, 0, 2]))
        h, _ = nm.lstm_sequence(h, wh1, bias, zero, zero, wx=wx1)
        fc = dense(h, w_fc, b_fc, relu=True)
        logits = dense(dropout(fc, 0.5, np.random.default_rng(0)), w_out, b_out, relu=False)
        loss = masked_cross_entropy(softmax(logits), [0, 1, 0, 1, 1, 0], np.ones(6))
    assert all(
        node.output.data.dtype == np.float32 for node in tape._nodes if node.output.shape != (1, 1)
    )
    assert cell_dtypes == {np.dtype(np.float32)}
    backward(tape, loss)
    assert all(m.grad.dtype == np.float32 for m in leaves)


# ---------------------------------------------------------------------------
# rows_product: the row-independence that bit-reproducible inference rests on


# (K, N) of the paper-config model's products: the two CNN im2col stages,
# layer 0 and layer 1 `wx`, `wh`, `w_fc`, and `w_out` for 8 and 12 classes (the bench models)
PAPER_PRODUCT_SHAPES = [(126, 64), (192, 64), (256, 512), (128, 512), (128, 256), (256, 8), (256, 12)]
# float64 for the model API and the exact oracle, float32 for training and
# the simulator's compute copies
ROWS_PRODUCT_CASES = [pytest.param(k, n, np.float64, id=f"{k}-{n}") for k, n in PAPER_PRODUCT_SHAPES] + [
    pytest.param(k, n, np.float32, id=f"{k}-{n}-float32") for k, n in PAPER_PRODUCT_SHAPES
]


@pytest.mark.parametrize("k, n, dtype", ROWS_PRODUCT_CASES)
def test_rows_product_rows_equal_their_own_one_row_product(k, n, dtype):
    # numpy hands two or more rows to gemm; if the BLAS ever made a row's
    # bits depend on the other rows, batched inference would stop being
    # bitwise equal to one-prefix inference, and this test says so
    gen = np.random.default_rng(k * 1000 + n)
    w = gen.normal(size=(k, n)).astype(dtype)
    a = gen.normal(size=(70, k)).astype(dtype)
    alone = np.concatenate([nm.rows_product(a[i:i + 1], w) for i in range(len(a))])
    assert np.array_equal(alone[0], (np.vstack([a[:1], a[:1]]) @ w)[0])
    for m in range(2, 71):
        assert np.array_equal(nm.rows_product(a[:m], w), alone[:m]), m
        assert np.array_equal(nm.rows_product(a[70 - m:], w), alone[70 - m:]), m


# (rows per phrase, K, N) of the paper-config CNN's im2col products: stage 0
# gives 62 windows of 3 x 42 per phrase and stage 1 gives 14 of 3 x 64;
# 62 x 192 also runs stage 1's width at stage 0's row count
PAPER_IM2COL_SHAPES = [(62, 126, 64), (14, 192, 64), (62, 192, 64)]
# float64 for the model API, float32 for training and the simulator's compute copies
IM2COL_CASES = [pytest.param(*s, np.float64, id="-".join(map(str, s))) for s in PAPER_IM2COL_SHAPES] + [
    pytest.param(*s, np.float32, id="-".join(map(str, s)) + "-float32") for s in PAPER_IM2COL_SHAPES
]


@pytest.mark.parametrize("per_phrase, k, n, dtype", IM2COL_CASES)
def test_rows_product_rows_of_a_phrase_do_not_depend_on_the_phrases_sharing_its_pass(per_phrase, k, n, dtype):
    # the page table and the start memo of `SequenceModel.start` reuse a phrase's
    # CNN rows from a pass over other phrases: a pass of 1 to 14 phrases must give
    # each phrase the bits of its pass alone
    gen = np.random.default_rng(per_phrase * 1000 + k)
    w = gen.normal(size=(k, n)).astype(dtype)
    a = gen.normal(size=(14 * per_phrase, k)).astype(dtype)
    alone = np.concatenate(
        [nm.rows_product(a[j * per_phrase:(j + 1) * per_phrase], w) for j in range(14)]
    )
    for phrases in range(1, 15):
        m = phrases * per_phrase
        assert np.array_equal(nm.rows_product(a[:m], w), alone[:m]), phrases
        assert np.array_equal(nm.rows_product(a[len(a) - m:], w), alone[len(a) - m:]), phrases


def test_matmul_of_one_row_is_that_row_of_a_batch():
    gen = np.random.default_rng(5)
    a, w = Matrix(gen.normal(size=(3, 40))), nm.Matrix(gen.normal(size=(40, 9)))
    batch = nm.matmul(a, w).data
    for i in range(3):
        assert np.array_equal(nm.matmul(Matrix(a.data[i:i + 1]), w).data[0], batch[i])


# ---------------------------------------------------------------------------
# recycled slots: a tape re-entered for every batch reuses its LSTM arrays


SLOT_BATCH, SLOT_HIDDEN = 4, 3


def slot_weights(dtype):
    """Two stacked LSTM layers over 5 input columns, as parameters of `dtype`."""
    gen = np.random.default_rng(26)
    shapes = [(5, 4 * SLOT_HIDDEN), (SLOT_HIDDEN, 4 * SLOT_HIDDEN), (1, 4 * SLOT_HIDDEN)]
    shapes += [(SLOT_HIDDEN, 4 * SLOT_HIDDEN)] + shapes[1:]
    weights = [Matrix(gen.uniform(-1, 1, size=s)) for s in shapes]
    for w in weights:
        w.data = w.data.astype(dtype)
    return weights


def slot_loss(weights, steps):
    """A scalar of both layers' hidden rows over `steps` steps of a fixed batch."""
    gen = np.random.default_rng(steps)
    dtype = weights[0].data.dtype
    x = Matrix._result(gen.uniform(-1, 1, size=(steps * SLOT_BATCH, 5)).astype(dtype))
    zero = np.zeros((SLOT_BATCH, SLOT_HIDDEN), dtype=dtype)
    wx0, wh0, b0, wx1, wh1, b1 = weights
    h0, _ = nm.lstm_sequence(matmul(x, wx0), wh0, b0, zero, zero)
    h1, _ = nm.lstm_sequence(matmul(h0, wx1), wh1, b1, zero, zero)
    ones = Matrix._result(np.ones((1, steps * SLOT_BATCH), dtype=dtype))
    column = Matrix._result(np.ones((SLOT_HIDDEN, 1), dtype=dtype))
    one = Matrix._result(np.ones((1, 1), dtype=dtype))
    return dense(matmul(ones, matmul(h0, column)), one, matmul(ones, matmul(h1, column)), relu=False)


def fresh_tape_gradients(weights, steps):
    with ComputeTape(weights) as tape:
        loss = slot_loss(weights, steps)
    backward(tape, loss)
    grads = [w.grad.tobytes() for w in weights]
    for w in weights:
        w.grad = None
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slot_reentered_tape_gives_every_batch_a_fresh_tapes_gradients(dtype):
    weights = slot_weights(dtype)
    tape = ComputeTape(weights)
    for steps in (9, 3, 12):  # grow, view a prefix, grow again
        expected = fresh_tape_gradients(weights, steps)
        with tape:
            loss = slot_loss(weights, steps)
        backward(tape, loss)
        assert [w.grad.tobytes() for w in weights] == expected, steps
        slots = tape._slots.arrays
        assert not any(np.shares_memory(w.grad, a) for w in weights for a in slots)
        for w in weights:
            w.grad = None
    assert len(tape._slots.arrays) == 10  # two layers: four forward arrays and a forget-gate copy each


def test_slot_backward_of_two_recordings_on_reused_slots_adds_the_same_gradients_twice():
    weights = slot_weights(np.float64)
    once = fresh_tape_gradients(weights, 5)
    tape = ComputeTape(weights)
    with tape:  # the later recordings reuse this one's slots
        slot_loss(weights, 7)
    for _ in range(2):  # a recording is walked once: record again for the second walk
        with tape:
            loss = slot_loss(weights, 5)
        backward(tape, loss)
    for w, g in zip(weights, once):
        g = np.frombuffer(g, dtype=w.grad.dtype).reshape(w.shape)
        assert np.array_equal(w.grad, g + g)


def test_slot_never_becomes_a_leaf_gradient():
    # an input projection watched as a leaf keeps its gradient across recordings
    gen = np.random.default_rng(3)
    xproj, wh, bias = (Matrix(gen.uniform(-1, 1, size=s)) for s in [(8, 8), (2, 8), (1, 8)])
    zero = np.zeros((2, 2))
    tape = ComputeTape([xproj, wh, bias])
    with tape:
        h, _ = nm.lstm_sequence(xproj, wh, bias, zero, zero)
        loss = matmul(Matrix(np.ones((1, 8))), matmul(h, Matrix(np.ones((2, 1)))))
    backward(tape, loss)
    first = xproj.grad.copy()
    assert not any(np.shares_memory(xproj.grad, a) for a in tape._slots.arrays)
    with tape:
        h, _ = nm.lstm_sequence(xproj, wh, bias, zero, zero)
        loss = scale(matmul(Matrix(np.ones((1, 8))), matmul(h, Matrix(np.ones((2, 1))))), 3.0)
    backward(tape, loss)  # writes the same slots again, with three times the gradient
    np.testing.assert_allclose(xproj.grad, 4.0 * first, rtol=1e-12)


def test_slot_two_tapes_never_share_one():
    weights = slot_weights(np.float32)
    tapes = [ComputeTape(weights), ComputeTape(weights)]
    outputs = []
    for tape in tapes:
        with tape:
            loss = slot_loss(weights, 6)
        outputs.append([node.output.data for node in tape._nodes])  # the walk drops the nodes
        backward(tape, loss)
    for w in weights:
        w.grad = None
    a, b = (t._slots.arrays for t in tapes)
    assert a and b
    assert not any(np.shares_memory(x, y) for x in a for y in b)
    assert not any(np.shares_memory(x, y) for x in outputs[0] for y in outputs[1])


# ---------------------------------------------------------------------------
# the LSTM backward: the bits of the formulas it replaced


def reference_lstm_gradients(x, wh, bias, h0, c0, gh):
    """(dz, dwh, dbias) of one layer over the time-major rows `x`, by the
    formulas of a backward that kept the gate activations and wrote the gate
    derivatives into a separate (T*B) x 4H array."""
    hs, batch = wh.shape[0], len(h0)
    steps = len(x) // batch
    acts, cells, tcells, hidden = [], [], [], []
    h, c = h0, c0
    for t in range(steps):
        a, c, tc, h = nm.lstm_cell((x[t * batch:(t + 1) * batch] + nm.rows_product(h, wh)) + bias, c)
        acts.append(a), cells.append(c), tcells.append(tc), hidden.append(h)
    acts, cells, tcells, hidden = map(np.concatenate, (acts, cells, tcells, hidden))
    i, f, g, o = acts[:, :hs], acts[:, hs:2 * hs], acts[:, 2 * hs:3 * hs], acts[:, 3 * hs:]
    dz = np.empty_like(acts)
    zi, zf, zg, zo = dz[:, :hs], dz[:, hs:2 * hs], dz[:, 2 * hs:3 * hs], dz[:, 3 * hs:]
    np.multiply(np.multiply(g, i, out=zi), 1.0 - i, out=zi)
    np.multiply(np.subtract(1.0, f, out=zf), f, out=zf)
    np.multiply(np.subtract(1.0, np.multiply(g, g, out=zg), out=zg), i, out=zg)
    np.multiply(np.multiply(tcells, o, out=zo), 1.0 - o, out=zo)
    dtc = o * (1.0 - tcells * tcells)
    dh = np.zeros((batch, hs), dtype=x.dtype)
    dc = np.zeros((batch, hs), dtype=x.dtype)
    for t in reversed(range(steps)):
        r = slice(t * batch, (t + 1) * batch)
        dh = gh[r] + dh
        dc = dc + dh * dtc[r]
        zi[r] *= dc
        zf[r] *= dc * (cells[r.start - batch:r.start] if t else c0)
        zg[r] *= dc
        zo[r] *= dh
        dc = dc * f[r]
        if t:
            dh = dz[r] @ wh.T
    dwh = np.matmul(hidden[:-batch].T, dz[batch:]) + np.matmul(h0.T, dz[:batch])
    return dz, dwh, np.sum(dz, axis=0, keepdims=True)


def fixed_gradient_loss(h: Matrix, gh: np.ndarray) -> Matrix:
    """A 1 x 1 node whose backward hands `h` exactly `gh`."""
    return nm.record(Matrix._result(np.zeros((1, 1))), (h,), lambda g: (gh,))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("form", ["leaf", "intermediate", "rows", "wx"])
def test_lstm_backward_gives_the_bits_of_the_separate_dz_formulas(dtype, steps, batch, form):
    # leaf: the input's gradient is a copy of the gate derivatives, never the slot;
    # intermediate: the slot itself, handed on (here through an exact scale by 1);
    # rows: scattered through a row index as one index-sorted reduceat;
    # wx: through the input weight's two products, as a separate matmul node gave them
    hs, n = 5, steps * batch
    gen = np.random.default_rng(stable_seed(form, steps, batch))
    rand = lambda *shape: gen.uniform(-1, 1, size=shape).astype(dtype)
    wh, bias, gh = Matrix._result(rand(hs, 4 * hs)), Matrix._result(rand(1, 4 * hs)), rand(n, hs)
    h0, c0 = rand(batch, hs), rand(batch, hs)
    if form == "rows":
        x, rows = Matrix._result(rand(4, 4 * hs)), gen.integers(0, 4, size=n)
        xproj = x.data[rows]
    elif form == "wx":
        x, wx = Matrix._result(rand(n, 3)), Matrix._result(rand(3, 4 * hs))
        xproj = nm.rows_product(x.data, wx.data)
    else:
        x = Matrix._result(rand(n, 4 * hs))
        xproj = x.data
    dz, dwh, dbias = reference_lstm_gradients(xproj, wh.data, bias.data, h0, c0, gh)
    leaves = [x, wh, bias] + ([wx] if form == "wx" else [])
    with ComputeTape(leaves) as tape:
        if form == "rows":
            h, _ = nm.lstm_sequence(x, wh, bias, h0, c0, rows=rows)
        elif form == "wx":
            h, _ = nm.lstm_sequence(x, wh, bias, h0, c0, wx=wx)
        else:
            h, _ = nm.lstm_sequence(scale(x, 1.0) if form == "intermediate" else x, wh, bias, h0, c0)
        loss = fixed_gradient_loss(h, gh)
    backward(tape, loss)
    if form == "rows":  # the scatter of a gather node's backward
        order = np.argsort(rows, kind="stable")
        first, starts = np.unique(rows[order], return_index=True)
        dx = np.zeros_like(x.data)
        dx[first] = np.add.reduceat(dz[order], starts, axis=0)
    elif form == "wx":
        dx = dz @ wx.data.T
        assert np.array_equal(wx.grad, x.data.T @ dz)
    else:
        dx = dz
    assert np.array_equal(x.grad, dx)
    assert np.array_equal(wh.grad, dwh)
    assert np.array_equal(bias.grad, dbias)
    assert all(m.grad.dtype == dtype for m in leaves)
    assert not any(np.shares_memory(m.grad, a) for m in leaves for a in tape._slots.arrays)
