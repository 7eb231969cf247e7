import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet import numerics as nm
from journeynet.errors import ShapeError
from journeynet.journeydata import PageVocabulary
from journeynet.seqmodel import ModelConfig, SequenceModel
from journeynet.textenc import (
    DEFAULT_ALPHABET,
    Alphabet,
    CnnEncoder,
    conv1d,
    maxpool1d,
    quantize,
)


def test_default_alphabet_has_42_symbols():
    assert len(Alphabet()) == 42


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet("aba")


def test_alphabet_get_below_size():
    a = Alphabet()
    for c in DEFAULT_ALPHABET:
        assert a.get(c) < len(a)


def test_quantize_empty_phrase_is_all_zero():
    a = Alphabet()
    q = quantize("", a, 7)
    assert q.shape == (7, 42)
    assert not q.any()


def test_quantize_two_letters():
    a = Alphabet("abcdefghijklmnopqrstuvwxyz")
    q = quantize("ab", a, 4)
    assert q.shape == (4, 26)
    assert q[0, 0] == 1.0 and q[0].sum() == 1.0
    assert q[1, 1] == 1.0 and q[1].sum() == 1.0
    assert not q[2:].any()


def test_quantize_casefolds_and_zeroes_unknown():
    a = Alphabet("abcdefghijklmnopqrstuvwxyz")
    q = quantize("Ab#", a, 4)
    ref = quantize("ab", a, 4)
    assert q[2].sum() == 0.0
    assert np.array_equal(q[:2], ref[:2])
    assert np.array_equal(q[3], ref[3])


def test_quantize_truncates():
    a = Alphabet()
    q = quantize("abcdef", a, 3)
    assert q.shape == (3, 42)
    assert q[2, a.get("c")] == 1.0


def test_quantize_cuts_a_phrase_that_lowercasing_lengthens():
    # 'İ'.lower() is 'i' and a combining dot, which the alphabet does not hold
    a = Alphabet()
    q = quantize("İ" * 4, a, 4)
    assert q.shape == (4, 42) and q.sum() == 2.0
    assert q[0, a.get("i")] == q[2, a.get("i")] == 1.0


def test_quantize_requires_positive_max_len():
    with pytest.raises(ValueError):
        quantize("a", Alphabet(), 0)


@given(st.text(max_size=40))
@settings(max_examples=60, deadline=None)
def test_quantize_idempotent_on_normalised_phrase(phrase):
    a = Alphabet()
    q1 = quantize(phrase, a, 16)
    q2 = quantize(phrase[:16].lower(), a, 16)
    assert np.array_equal(q1, q2)
    assert set(np.unique(q1.sum(axis=1))) <= {0.0, 1.0}


def test_conv1d_zero_kernels_give_zero_output():
    x = nm.Matrix(np.random.default_rng(0).uniform(0, 1, size=(6, 3)))
    k = nm.Matrix(np.zeros((2 * 3, 4)))
    b = nm.Matrix(np.zeros((1, 4)))
    y = conv1d(x, k, b, 2, n=1)
    assert y.shape == (5, 4)
    assert not y.data.any()


def test_conv1d_width_one_ones_kernel_sums_rows():
    x = nm.Matrix([[1.0, -2.0], [3.0, 4.0]])
    k = nm.Matrix([[1.0], [1.0]])
    b = nm.Matrix([[0.0]])
    y = conv1d(x, k, b, 1, n=1)
    # per-position row sums, negatives clamped by relu
    assert np.array_equal(y.data, [[0.0], [7.0]])


def test_conv1d_hand_sliding_window():
    x = nm.Matrix([[1.0], [2.0], [3.0]])
    k = nm.Matrix([[1.0], [-1.0]])
    b = nm.Matrix([[0.0]])
    y = conv1d(x, k, b, 2, n=1)
    assert np.array_equal(y.data, [[0.0], [0.0]])


def test_maxpool_constant_input():
    x = nm.Matrix(np.full((7, 2), 3.5))
    y = maxpool1d(x, 3, n=1)
    assert y.shape == (3, 2)
    assert np.all(y.data == 3.5)


def test_maxpool_single_window():
    x = nm.Matrix([[1.0], [3.0], [2.0], [5.0]])
    assert np.array_equal(maxpool1d(x, 4, n=1).data, [[5.0]])


def test_maxpool_partial_tail_window():
    x = nm.Matrix([[1.0], [3.0], [2.0], [5.0], [4.0]])
    assert np.array_equal(maxpool1d(x, 4, n=1).data, [[5.0], [4.0]])


def test_maxpool_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        length = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 5))
        window = int(rng.integers(1, 7))
        x = rng.normal(size=(length, cols))
        got = maxpool1d(nm.Matrix(x), window, n=1).data
        want = np.stack(
            [x[s:s + window].max(axis=0) for s in range(0, length, window)]
        )
        assert np.array_equal(got, want)


def test_conv_pool_gradients_pass_grad_check():
    rng = np.random.default_rng(23)
    for trial in range(5):
        length = int(rng.integers(4, 9))
        channels = int(rng.integers(1, 4))
        filters = int(rng.integers(1, 4))
        width = int(rng.integers(1, 4))
        # keep entries away from tie/kink points so finite differences are valid
        x = nm.Matrix(rng.uniform(0.1, 1.0, size=(length, channels)))
        k = nm.Matrix(rng.uniform(0.1, 1.0, size=(width * channels, filters)))
        b = nm.Matrix(rng.uniform(0.05, 0.2, size=(1, filters)))
        n_out = -(-(length - width + 1) // 2)
        w_out = nm.Matrix(rng.uniform(0.5, 1.5, size=(filters, 1)))
        w_rows = nm.Matrix(rng.uniform(0.5, 1.5, size=(1, n_out)))

        def f():
            h = maxpool1d(conv1d(x, k, b, width, n=1), 2, n=1)
            # fixed random projection to a scalar; linear, so no gradient is
            # structurally zero and finite differences stay meaningful
            return nm.matmul(w_rows, nm.matmul(h, w_out))

        assert nm.grad_check(f, [x, k, b], h=1e-5) < 1e-4, f"trial {trial}"


def _toy_model(seed=0, max_len=12, stages=((3, 4, 2), (3, 4, 2))):
    """A model whose encoder has `stages`; its layer 0 takes the embedding width the layout gives."""
    config = ModelConfig(max_len=max_len, conv_stages=stages, lstm_hidden=(2,), fc_width=2)
    return SequenceModel.build(config, PageVocabulary(["a"], min_freq=1), seed)


def test_encoder_needs_a_stage_and_a_phrase():
    with pytest.raises(ValueError, match="at least one stage"):
        CnnEncoder(Alphabet(), 12, [])
    with pytest.raises(ValueError, match="at least one phrase"):
        _toy_model().encoder.embed_batch([])


def _conv_weights(model):
    return [(name, p) for name, p in model.parameters() if name.startswith("conv")]


def test_embed_length_constant_across_phrases():
    model = _toy_model()
    lengths = {model.encoder.embed(p).cols for p in ["", "a", "hello world", "x" * 50, "éé--üü"]}
    assert lengths == {model.layers[0].wx.rows}


@given(st.text(max_size=30))
@settings(max_examples=40, deadline=None)
def test_embed_length_constant_property(phrase):
    model = _toy_model(seed=3)
    assert model.encoder.embed(phrase).cols == model.layers[0].wx.rows


def test_embed_empty_phrase_zero_bias_gives_zero_vector():
    enc = _toy_model(seed=1).encoder
    v = enc.embed("")
    assert not v.data.any()


def test_embed_is_deterministic():
    enc = _toy_model(seed=2).encoder
    a = enc.embed("car insurance quote")
    b = enc.embed("car insurance quote")
    assert np.array_equal(a.data, b.data)


BATCH_PHRASES = ["", "home", "x" * 100, "Ünïcode?!"]


@pytest.mark.parametrize("max_len, stages", [
    (12, [(3, 4, 2), (3, 4, 2)]),
    (64, [(3, 64, 4), (3, 64, 4)]),
])
def test_embed_batch_rows_equal_per_phrase_embed(max_len, stages):
    model = _toy_model(6, max_len, stages)
    enc = model.encoder
    for _, p in _conv_weights(model):
        p.data += 0.05  # no dead filters, so rows are not trivially zero
    batch = enc.embed_batch(BATCH_PHRASES).data
    assert batch.shape == (len(BATCH_PHRASES), model.layers[0].wx.rows)
    for row, phrase in zip(batch, BATCH_PHRASES):
        assert np.array_equal(row, enc.embed(phrase).data[0])


def test_stacked_maxpool_equals_per_sequence_maxpool():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n, length, cols = (int(v) for v in rng.integers(1, 6, size=3))
        window = int(rng.integers(1, 7))
        x = rng.normal(size=(n * length, cols))
        got = maxpool1d(nm.Matrix(x), window, n).data
        want = np.vstack([
            maxpool1d(nm.Matrix(x[k * length:(k + 1) * length]), window, n=1).data for k in range(n)
        ])
        assert np.array_equal(got, want)


def test_off_tape_maxpool_equals_taped_forward():
    # small integers tie within windows; length 10 leaves a partial tail
    # window of -inf padding, and negative entries must still beat it
    rng = np.random.default_rng(23)
    n, length, cols, window = 3, 10, 5, 4
    x = rng.integers(-3, 2, size=(n * length, cols)).astype(float)
    x[length - 2:length] = -7.0
    leaf = nm.Matrix(x)
    off = maxpool1d(leaf, window, n).data
    with nm.ComputeTape([leaf]) as tape:
        taped = maxpool1d(leaf, window, n).data
    assert len(tape) == 1
    assert off.shape == (n * 3, cols)
    assert np.array_equal(off, taped)
    want = [
        x[k * length + w * window:k * length + min((w + 1) * window, length)].max(axis=0)
        for k in range(n) for w in range(3)
    ]
    assert np.array_equal(off, np.array(want))


def test_embed_batch_gradients_pass_grad_check():
    model = _toy_model(seed=7)
    enc = model.encoder
    gen = np.random.default_rng(8)
    for name, p in _conv_weights(model):
        # positive bias offsets keep every filter live; generic weights keep
        # entries off relu and max-pool ties
        step = gen.uniform(0.1, 0.4, size=p.shape)
        p.data += step if name.endswith("bias") else step * gen.choice([-1, 1], size=p.shape)
    phrases = ["car insurance", "home", "quote online"]
    w_out = nm.Matrix(gen.uniform(0.5, 1.5, size=(model.layers[0].wx.rows, 1)))
    w_rows = nm.Matrix(gen.uniform(0.5, 1.5, size=(1, len(phrases))))

    def f():
        return nm.matmul(w_rows, nm.matmul(enc.embed_batch(phrases), w_out))

    params = [p for _, p in _conv_weights(model)]
    assert nm.grad_check(f, params, h=1e-5) < 1e-4


def test_encoder_rejects_too_narrow_stack():
    with pytest.raises(ShapeError):
        _toy_model(max_len=4, stages=((3, 4, 4), (3, 4, 4)))


def test_encoder_parameters_are_named_and_trainable():
    model = _toy_model(seed=5)
    enc = model.encoder
    names = [n for n, _ in model.parameters()]
    assert names[:4] == ["conv0.kernels", "conv0.bias", "conv1.kernels", "conv1.bias"]
    assert [n for n, _ in _conv_weights(model)] == names[:4]
    params = [p for _, p in _conv_weights(model)]
    # a tape that watches them trains every one of them
    with nm.ComputeTape(params) as tape:
        loss = nm.matmul(enc.embed("car insurance"), nm.Matrix(np.ones((model.layers[0].wx.rows, 1))))
    nm.backward(tape, loss)
    assert all(p.grad is not None and p.grad.shape == p.shape for p in params)
