import numpy as np
import pytest

from journeynet import numerics as nm
from journeynet.errors import NumericError, ShapeError
from journeynet.numerics import (
    ComputeTape,
    Matrix,
    add,
    backward,
    constant,
    dropout,
    grad_check,
    masked_cross_entropy,
    matmul,
    parameter,
    relu,
    reshape,
    scale,
    softmax,
    take_rows,
    zero_gradients,
)


def test_matmul_identity():
    a = constant(np.eye(2))
    b = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_zero_annihilates():
    z = constant(np.zeros((2, 2)))
    b = constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(matmul(z, b).data, np.zeros((2, 3)))


def test_matmul_hand_dot_product():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[5.0], [6.0]])
    assert np.array_equal(matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(a, b)


def test_matmul_associative_on_well_conditioned_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (constant(rng.uniform(-1, 1, size=(4, 4))) for _ in range(3))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


def test_softmax_symmetry():
    y = softmax(constant([[0.0, 0.0]]))
    assert np.allclose(y.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_shift_invariance():
    for c in (-3.0, 0.0, 17.5):
        y = softmax(constant([[c, c, c]]))
        assert np.allclose(y.data, [[1 / 3] * 3], atol=1e-12)


def test_softmax_exp_oracle():
    y = softmax(constant([[1.0, 2.0, 3.0]]))
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(y.data[0], expected, atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(Matrix._result(np.zeros((1, 0))))


def test_softmax_is_distribution_even_for_extreme_logits():
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = constant(rng.uniform(-1e4, 1e4, size=(1, rng.integers(1, 9))))
        y = softmax(logits).data
        assert np.all(y >= 0)
        assert np.isfinite(y).all()
        assert abs(y.sum() - 1.0) < 1e-9


def cross_entropy(predicted, target):
    """Cross-entropy of one probability row: masked_cross_entropy of a batch of one."""
    return masked_cross_entropy(predicted, [target], [1.0])


def test_cross_entropy_perfect_prediction_is_zero():
    p = constant([[0.0, 1.0, 0.0]])
    assert cross_entropy(p, 1).item() == 0.0


def test_cross_entropy_uniform_is_log_n():
    p = constant([[0.25] * 4])
    for t in range(4):
        assert cross_entropy(p, t).item() == pytest.approx(1.3862943611198906, abs=1e-12)


def test_cross_entropy_half_is_log_two():
    p = constant([[0.5, 0.5]])
    assert cross_entropy(p, 0).item() == pytest.approx(0.6931471805599453, abs=1e-12)


def test_cross_entropy_out_of_range_index():
    p = constant([[0.5, 0.5]])
    with pytest.raises(ValueError):
        cross_entropy(p, 2)
    with pytest.raises(ValueError):
        cross_entropy(p, -1)


def test_cross_entropy_floor_keeps_loss_finite():
    p = constant([[1.0, 0.0]])
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
    x = parameter([[3.0]])
    with ComputeTape() as tape:
        y = matmul(x, x)
    backward(tape, y)
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_constant_function_gives_zero():
    x = parameter([[2.0]])
    c = constant([[5.0]])
    with ComputeTape() as tape:
        y = add(matmul(x, constant([[0.0]])), c)
    backward(tape, y)
    assert x.grad[0, 0] == 0.0


def test_backward_requires_scalar():
    x = parameter([[1.0, 2.0]])
    with ComputeTape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_backward_accumulates_across_calls():
    x = parameter([[3.0]])
    with ComputeTape() as tape:
        y = matmul(x, x)
    backward(tape, y)
    backward(tape, y)
    assert x.grad[0, 0] == pytest.approx(12.0)
    zero_gradients([x])
    assert x.grad is None


def test_backward_linear_in_loss():
    rng = np.random.default_rng(11)
    w = parameter(rng.normal(size=(3, 3)))
    x1 = constant(rng.normal(size=(1, 3)))
    x2 = constant(rng.normal(size=(1, 3)))

    def losses():
        l1 = cross_entropy(softmax(matmul(x1, w)), 0)
        l2 = cross_entropy(softmax(matmul(x2, w)), 2)
        return l1, l2

    with ComputeTape() as tape:
        l1, l2 = losses()
        total = add(l1, l2)
    backward(tape, total)
    g_sum = w.grad.copy()

    zero_gradients([w])
    with ComputeTape() as tape:
        l1, l2 = losses()
    backward(tape, l1)
    backward(tape, l2)
    assert np.allclose(w.grad, g_sum, rtol=1e-12, atol=1e-15)


def test_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(42)
    w1 = parameter(rng.normal(scale=0.5, size=(4, 5)))
    b1 = parameter(rng.normal(scale=0.1, size=(1, 5)))
    w2 = parameter(rng.normal(scale=0.5, size=(5, 4)))
    w3 = parameter(rng.normal(scale=0.5, size=(4, 3)))
    x = constant(rng.normal(size=(2, 4)))
    t = np.array([2, 0])
    m = np.ones(2)

    def f():
        h1 = relu(add(matmul(x, w1), b1))
        h2 = softmax(matmul(h1, w2))
        return masked_cross_entropy(softmax(matmul(h2, w3)), t, m)

    err = grad_check(f, [w1, b1, w2, w3], h=1e-5)
    assert err < 1e-4


def test_grad_check_quadratic_form_is_nearly_exact():
    rng = np.random.default_rng(5)
    a = constant(rng.normal(size=(3, 3)))
    x = parameter(rng.normal(size=(1, 3)))

    def f():
        xt = reshape(x, 3, 1)
        return matmul(matmul(x, a), xt)

    assert grad_check(f, [x], h=1e-5) < 1e-7


def test_grad_check_no_parameters_returns_zero():
    c = constant([[1.0]])
    assert grad_check(lambda: matmul(c, c), [], h=1e-5) == 0.0


def test_grad_check_rejects_non_finite():
    x = parameter([[1e308]])

    def f():
        return matmul(x, x)

    with np.errstate(over="ignore"), pytest.raises(NumericError):
        grad_check(f, [x], h=1e-5)


PRIMITIVE_CASES = [
    "matmul",
    "add",
    "add_bias",
    "scale",
    "relu",
    "softmax_ce",
    "reshape",
    "take_rows",
    "lstm_sequence",
]


@pytest.mark.parametrize("op_name", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(op_name):
    # >= 100 randomized trials across the primitive set; inputs are kept away
    # from relu/max kinks where a finite difference straddles the non-smooth point
    for trial in range(10):
        rng = np.random.default_rng(hash((op_name, trial)) % 2**32)
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))

        def rand(rows, cols, away_from_zero=False):
            d = rng.uniform(-2, 2, size=(rows, cols))
            if away_from_zero:
                d = np.where(np.abs(d) < 1e-3, d + np.sign(d + 0.5) * 0.1, d)
            return parameter(d)

        def projector(rows, cols):
            pr = np.random.default_rng(hash((op_name, trial, "proj")) % 2**32)
            w_col = constant(pr.uniform(0.5, 1.5, size=(cols, 1)))
            w_row = constant(pr.uniform(0.5, 1.5, size=(1, rows)))
            # linear scalarizer: keeps every upstream gradient structurally
            # nonzero so finite differences are compared against real signal
            return lambda m: matmul(w_row, matmul(m, w_col))

        if op_name == "matmul":
            a, b = rand(r, c), rand(c, r)
            proj = projector(r, r)
            f = lambda: proj(matmul(a, b))
            params = [a, b]
        elif op_name == "add":
            a, b = rand(r, c), rand(r, c)
            proj = projector(r, c)
            f = lambda: proj(add(a, b))
            params = [a, b]
        elif op_name == "add_bias":
            a, b = rand(r, c), rand(1, c)
            proj = projector(r, c)
            f = lambda: proj(add(a, b))
            params = [a, b]
        elif op_name == "scale":
            a = rand(r, c)
            proj = projector(r, c)
            f = lambda: proj(scale(a, 1.7))
            params = [a]
        elif op_name == "relu":
            a = rand(r, c, away_from_zero=True)
            proj = projector(r, c)
            f = lambda: proj(relu(a))
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
        elif op_name == "take_rows":
            a = rand(r + 1, c)
            idx = rng.integers(0, r + 1, size=4)
            proj = projector(4, c)
            f = lambda: proj(take_rows(a, idx))
            params = [a]
        elif op_name == "lstm_sequence":
            # r steps of a batch of 2, hidden size c: every gate's sigmoid or
            # tanh derivative and the recurrent carry are on the path
            x, wh, b = rand(2 * r, 4 * c), rand(c, 4 * c), rand(1, 4 * c)
            proj = projector(2 * r, c)
            f = lambda: proj(nm.lstm_sequence(x, wh, b, 2))
            params = [x, wh, b]
        assert grad_check(f, params, h=1e-5) < 1e-4, f"{op_name} trial {trial}"


def test_masked_cross_entropy_matches_sum_of_rows():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.1, 1.0, size=(4, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    targets = np.array([0, 2, 1, 1])
    mask = np.array([1.0, 0.0, 1.0, 1.0])
    got = masked_cross_entropy(constant(probs), targets, mask).item()
    want = sum(
        -np.log(probs[i, targets[i]]) for i in range(4) if mask[i] > 0
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_dropout_inverted_scaling_and_gradient():
    x = parameter(np.full((20, 10), 3.0))
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


def test_dropout_rate_zero_is_identity():
    x = constant([[1.0, 2.0]])
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_matrix_rejects_non_finite():
    with pytest.raises(NumericError):
        constant([[np.nan]])
    with pytest.raises(NumericError):
        constant([[np.inf, 1.0]])


def test_matrix_shape_bookkeeping():
    m = constant([1.0, 2.0, 3.0])
    assert (m.rows, m.cols) == (1, 3)
    assert m.data.shape == (1, 3)
    with pytest.raises(ShapeError):
        constant(np.zeros((2, 2, 2)))


def test_untracked_ops_record_nothing():
    a = constant([[1.0, 2.0]])
    b = constant([[3.0], [4.0]])
    with ComputeTape() as tape:
        matmul(a, b)
    assert len(tape) == 0


def test_nested_tapes_rejected():
    with ComputeTape():
        with pytest.raises(RuntimeError):
            with ComputeTape():
                pass


def test_accumulate_grad_never_writes_into_a_shared_gradient():
    g = np.arange(6.0).reshape(2, 3)
    other = np.ones((2, 3))
    kept = g.copy()
    a, b = parameter(np.zeros((2, 3))), parameter(np.zeros((2, 3)))
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
    a = parameter(np.zeros((2, 3)))
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
    w = parameter(rng.standard_normal((3, 8)))
    wh = parameter(rng.standard_normal((2, 8)))
    bias = parameter(np.zeros((1, 8)))
    for m in (w, wh, bias):
        m.data = m.data.astype(np.float32)
    x = Matrix._result(rng.standard_normal((6, 3)).astype(np.float32))
    with ComputeTape() as tape:
        h = nm.lstm_sequence(matmul(x, w), wh, bias, batch=2)
        fc = dropout(relu(take_rows(h, [5, 0, 3, 3])), 0.5, np.random.default_rng(0))
        loss = masked_cross_entropy(softmax(fc), [0, 1, 0, 1], np.ones(4))
    assert all(
        node.output.data.dtype == np.float32 for node in tape._nodes if node.output.shape != (1, 1)
    )
    assert cell_dtypes == {np.dtype(np.float32)}
    backward(tape, loss)
    assert all(m.grad.dtype == np.float32 for m in (w, wh, bias))
