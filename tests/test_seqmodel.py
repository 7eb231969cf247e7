import base64
import copy
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet import numerics as nm
from journeynet import rng as rngmod
from journeynet.errors import CheckpointError, ConfigError, JourneynetError, ShapeError
from journeynet.journeydata import (
    NULL_PAGE,
    UNKNOWN_PAGE,
    PageEvent,
    PageVocabulary,
    Session,
    build_vocab,
    expand_session,
)
from journeynet.seqmodel import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    LstmLayer,
    LstmState,
    ModelConfig,
    SequenceModel,
    StepPrediction,
    load_model,
    model_from_dict,
    model_to_dict,
    parameter_shapes,
    predict_next,
    save_model,
    session_loss,
)


class Prefix:
    def __init__(self, keywords="", pages=()):
        self.keywords = keywords
        self.pages = tuple(pages)


TOY_CONFIG = ModelConfig(
    max_len=12,
    conv_stages=((3, 4, 4),),
    lstm_hidden=(6,),
    fc_width=5,
    dropout_rate=0.0,
)


def toy_vocab(pages=("a", "b", "c")):
    return PageVocabulary(list(pages), min_freq=1)


def toy_model(seed=0, config=TOY_CONFIG, vocab=None):
    return SequenceModel.build(config, vocab or toy_vocab(), seed=seed)


# ---------------------------------------------------------------------------
# LSTM cell


def zero_layer(input_dim=3, hidden=2):
    wx = nm.Matrix(np.zeros((input_dim, 4 * hidden)))
    wh = nm.Matrix(np.zeros((hidden, 4 * hidden)))
    b = nm.Matrix(np.zeros((1, 4 * hidden)))
    return LstmLayer(wx, wh, b)


def project(layer, x):
    """The layer's input projection x @ wx, which the cell takes."""
    return np.asarray(x, dtype=float) @ layer.wx.data


def cell(layer, xproj, h, c):
    """One cell update of `layer` as inference runs it: returns (new hidden, new cell)."""
    z = (xproj + h @ layer.wh.data) + layer.bias.data
    _, c2, _, h2 = nm.lstm_cell(z, c, (np.empty_like(c), np.empty_like(c), np.empty_like(c)))
    return h2, c2


def test_lstm_zero_weights_zero_state_stays_zero():
    layer = zero_layer()
    x = project(layer, [[1.0, -2.0, 3.0]])
    h, c = cell(layer, x, np.zeros((1, 2)), np.zeros((1, 2)))
    assert not h.any()
    assert not c.any()


def test_lstm_output_shapes():
    layer = toy_model(config=replace(TOY_CONFIG, lstm_hidden=(3,))).layers[0]
    x = project(layer, np.random.default_rng(1).normal(size=(4, layer.wx.rows)))
    h, c = cell(layer, x, np.zeros((4, 3)), np.zeros((4, 3)))
    assert h.shape == (4, 3)
    assert c.shape == (4, 3)


def test_lstm_single_unit_hand_oracle():
    # all weights one, bias zero, x = [1], zero state:
    #   every gate pre-activation is 1, so c' = sigmoid(1)*tanh(1),
    #   h = sigmoid(1)*tanh(c'); values computed with the scalar formulas
    wx = nm.Matrix(np.ones((1, 4)))
    wh = nm.Matrix(np.ones((1, 4)))
    b = nm.Matrix(np.zeros((1, 4)))
    layer = LstmLayer(wx, wh, b)
    h, c = cell(layer, project(layer, [[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
    assert c.item() == pytest.approx(0.5567699411459397, abs=1e-12)
    assert h.item() == pytest.approx(0.36960635293570576, abs=1e-12)


def test_lstm_forget_bias_initialised_to_one():
    for layer in toy_model(seed=2, config=replace(TOY_CONFIG, lstm_hidden=(3, 3))).layers:
        assert np.all(layer.bias.data[0, 3:6] == 1.0)
        assert not layer.bias.data[0, :3].any()
        assert not layer.bias.data[0, 6:].any()


def test_build_draws_the_reference_init_sequence():
    # the draw order written out by hand: one "model-init" stream, every conv
    # kernel stage by stage, each LSTM layer's wx then wh, then fc and out
    config = ModelConfig(
        max_len=12, conv_stages=((3, 4, 2), (2, 5, 3)), lstm_hidden=(6, 5), fc_width=7,
    )
    vocab = toy_vocab()
    n, a = len(vocab), len(config.alphabet)
    gen = rngmod.stream(17, "model-init")

    def glorot(rows, cols):
        return nm.glorot(gen, rows, cols).data

    def lstm_bias(hidden):
        return np.concatenate([np.zeros(hidden), np.ones(hidden), np.zeros(2 * hidden)])[None]

    # rows per phrase: 12 -> conv 10 -> pool 5 -> conv 4 -> pool 2 (a partial
    # tail window), so the embedding is 2 x 5 wide
    want = {
        "conv0.kernels": glorot(3 * a, 4),
        "conv0.bias": np.zeros((1, 4)),
        "conv1.kernels": glorot(2 * 4, 5),
        "conv1.bias": np.zeros((1, 5)),
        "lstm0.wx": glorot(10, 24),
        "lstm0.wh": glorot(6, 24),
        "lstm0.bias": lstm_bias(6),
        "lstm1.wx": glorot(6, 20),
        "lstm1.wh": glorot(5, 20),
        "lstm1.bias": lstm_bias(5),
        "fc.weight": glorot(5, 7),
        "fc.bias": np.zeros((1, 7)),
        "out.weight": glorot(7, n),
        "out.bias": np.zeros((1, n)),
    }
    got = SequenceModel.build(config, vocab, seed=17).parameters()
    assert [name for name, _ in got] == list(want)
    for name, p in got:
        assert p.data.dtype == np.float64 and np.array_equal(p.data, want[name]), name


# ---------------------------------------------------------------------------
# forward pass


def test_forward_session_one_prediction_per_step():
    model = toy_model()
    preds = model.forward_session(["kw words", "a", "b", "c"])
    assert len(preds) == 4
    for t, p in enumerate(preds):
        assert p.step == t
        assert p.probs.shape == (len(model.vocab),)
        assert np.all(p.probs >= 0)
        assert abs(p.probs.sum() - 1.0) < 1e-6


def test_forward_session_deterministic():
    model = toy_model(seed=3)
    a = model.forward_session(["kw", "a", "b"])
    b = model.forward_session(["kw", "a", "b"])
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.probs, pb.probs)


def test_forward_session_rejects_empty():
    with pytest.raises(ValueError):
        toy_model().forward_session([])


def test_forward_depends_on_history():
    model = toy_model(seed=7)
    short = model.forward_session(["kw", "a"])[-1].probs
    longer = model.forward_session(["kw", "b", "a"])[-1].probs
    assert not np.allclose(short, longer)


# ---------------------------------------------------------------------------
# session loss


def make_session(pages, keywords="kw", dwell=1.0):
    return Session("s", keywords, tuple(PageEvent(p, dwell) for p in pages))


def one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_session_loss_perfect_predictions():
    vocab = toy_vocab()
    session = make_session(["a", "b"])
    targets = [vocab.encode("a"), vocab.encode("b"), vocab.null_index]
    preds = [StepPrediction(t, one_hot(len(vocab), i)) for t, i in enumerate(targets)]
    assert session_loss(preds, session, vocab) == 0.0


def test_session_loss_uniform_is_t_log_n():
    vocab = toy_vocab()
    n = len(vocab)
    session = make_session(["a", "b", "c"])
    preds = [StepPrediction(t, np.full(n, 1.0 / n)) for t in range(4)]
    assert session_loss(preds, session, vocab) == pytest.approx(4 * np.log(n), abs=1e-9)


def test_session_loss_single_term():
    vocab = toy_vocab(("a",))
    session = Session("s", "kw", ())
    # no events: the only transition is keywords -> NULL, predicted at 0.25
    preds = [StepPrediction(0, np.array([0.5, 0.25, 0.25]))]
    assert vocab.null_index == 1
    assert session_loss(preds, session, vocab) == pytest.approx(np.log(4), abs=1e-12)


def test_session_loss_length_mismatch():
    vocab = toy_vocab()
    session = make_session(["a"])
    preds = [StepPrediction(0, np.full(len(vocab), 0.2))]
    with pytest.raises(ValueError):
        session_loss(preds, session, vocab)


def test_session_loss_matches_taped_nll():
    vocab = toy_vocab()
    model = toy_model(seed=11, vocab=vocab)
    session = make_session(["a", "c"])
    inputs, targets = expand_session(session, vocab)
    taped = model.session_nll(inputs, targets).item()
    plain = session_loss(model.forward_session(inputs), session, vocab)
    assert taped == pytest.approx(plain, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients through the whole model


def perturb_params(model, seed=0, lo=0.1, hi=0.4):
    """Move every parameter to a generic point with healthy activations.

    Freshly built models sit exactly on relu/maxpool kinks (zero biases meet
    zero padding rows), where finite differences are undefined, and near-init
    weights leave recurrent gradients below float64 finite-difference
    resolution.  Bias offsets are kept positive so no conv filter is dead on
    every input.
    """
    gen = np.random.default_rng(seed)
    for name, p in model.parameters():
        if name.endswith("bias"):
            p.data += gen.uniform(lo, hi, size=p.shape)
        else:
            p.data += gen.uniform(lo, hi, size=p.shape) * gen.choice([-1, 1], size=p.shape)


def test_session_nll_gradients_pass_grad_check():
    vocab = toy_vocab()
    model = toy_model(seed=5, vocab=vocab)
    perturb_params(model, seed=1)
    # a session of a few steps keeps every recurrent weight's gradient large
    # enough to verify; central differences cannot resolve magnitudes below
    # ~1e-7 against float64 round-off at h=1e-5
    session = make_session(["a", "b", "c", "a"])
    inputs, targets = expand_session(session, vocab)
    params = [p for _, p in model.parameters()]

    err = nm.grad_check(lambda: model.session_nll(inputs, targets), params, h=1e-5)
    assert err < 1e-4


def test_session_nll_rejects_targets_that_do_not_match_the_inputs():
    model = toy_model(seed=5)
    inputs, targets = expand_session(make_session(["a", "b"]), model.vocab)
    with pytest.raises(ValueError, match="inputs vs"):
        model.session_nll(inputs, targets[:-1])
    with pytest.raises(ShapeError, match="targets/mask"):  # one target per step, not a column
        model.session_nll(inputs, [[t] for t in targets])


# ---------------------------------------------------------------------------
# the sequence kernel that training runs on


def _ragged_batch(vocab, sessions):
    from journeynet.training import _batch_tensors

    expanded = [expand_session(s, vocab) for s in sessions]
    return _batch_tensors(expanded, list(range(len(sessions))))


RAGGED = [
    make_session(["a"], keywords="kw one"),
    make_session(["b", "a", "c", "b"], keywords=""),
    make_session(["c", "c", "a", "b", "a", "b", "c", "a"], keywords="kw two"),
]


def test_batch_loss_equals_one_step_session_losses():
    # expanded lengths 2, 5 and 9; "" is both padding and a real t=0 phrase
    from journeynet.training import _batch_loss

    vocab = toy_vocab()
    model = toy_model(seed=21, vocab=vocab)
    perturb_params(model, seed=4)
    phrases, rowidx, targets, mask = _ragged_batch(vocab, RAGGED)
    assert rowidx.shape == (3, 9) and mask.sum(axis=1).tolist() == [2, 5, 9]
    # the layout the bench counts padding by: "" is row 0 and feeds every padding step
    assert phrases[0] == ""
    assert not rowidx[mask == 0].any()
    assert rowidx[1, 0] == 0 and phrases.count("") == 1  # the empty keyword is the same row
    batched = _batch_loss(model, phrases, rowidx, targets, mask, None).item()
    one_step = sum(
        session_loss(model.forward_session(expand_session(s, vocab)[0]), s, vocab)
        for s in RAGGED
    )
    assert batched == pytest.approx(one_step, rel=1e-12)


def test_batch_loss_with_dropout_passes_grad_check():
    from journeynet import rng as rngmod
    from journeynet.training import _batch_loss

    vocab = toy_vocab()
    config = ModelConfig(
        max_len=12, conv_stages=((3, 4, 4),), lstm_hidden=(6, 5), fc_width=5, dropout_rate=0.3
    )
    model = toy_model(seed=22, config=config, vocab=vocab)
    perturb_params(model, seed=6)
    phrases, rowidx, targets, mask = _ragged_batch(vocab, RAGGED)
    params = [p for _, p in model.parameters()]

    def f():
        return _batch_loss(model, phrases, rowidx, targets, mask, rngmod.stream(3, "dropout", 0, 0))

    assert nm.grad_check(f, params, h=1e-5) < 1e-4


def test_grad_check_over_two_leaves_gives_them_non_zero_gradients():
    # without dropout the head picks its path by whether an operand is
    # tracked: watching out.weight alone must still take the taped one
    from journeynet.training import _batch_loss

    vocab = toy_vocab()
    config = ModelConfig(
        max_len=12, conv_stages=((3, 4, 4),), lstm_hidden=(6, 5), fc_width=5, dropout_rate=0.0
    )
    model = toy_model(seed=24, config=config, vocab=vocab)
    perturb_params(model, seed=8)
    batch = _ragged_batch(vocab, RAGGED)
    named = dict(model.parameters())
    watched = [named["out.weight"], named["lstm1.wh"]]

    def f():
        return _batch_loss(model, *batch, None)

    assert nm.grad_check(f, watched, h=1e-5) < 1e-4
    with nm.ComputeTape(watched) as tape:
        loss = f()
    nm.backward(tape, loss)
    assert all(np.abs(p.grad).min() > 0 for p in watched)
    assert all(p.grad is None for name, p in named.items() if name not in ("out.weight", "lstm1.wh"))


def test_tape_nodes_per_batch_do_not_grow_with_length():
    from journeynet import rng as rngmod
    from journeynet.training import _batch_loss

    vocab = toy_vocab()
    model = toy_model(seed=23, config=replace(TOY_CONFIG, dropout_rate=0.5), vocab=vocab)
    counts = []
    for n_pages in (1, 11):
        sessions = [make_session((["a", "b"] * 6)[:n_pages])] * 2
        phrases, rowidx, targets, mask = _ragged_batch(vocab, sessions)
        assert rowidx.shape[1] == n_pages + 1
        with nm.ComputeTape(p for _, p in model.parameters()) as tape:
            _batch_loss(model, phrases, rowidx, targets, mask, rngmod.stream(0, "dropout", 0, 0))
        counts.append(len(tape))
    assert counts[0] == counts[1]


def test_every_pass_runs_the_one_layer_loop(monkeypatch):
    from journeynet.training import _batch_loss, evaluate

    vocab = toy_vocab()
    model = toy_model(seed=51, config=replace(TOY_CONFIG, lstm_hidden=(6, 4)), vocab=vocab)
    calls = []
    original = SequenceModel.cell_steps

    def counting(self, xproj, state, rows=None):
        calls.append((xproj.rows if rows is None else len(rows), len(state[0][0])))
        return original(self, xproj, state, rows)

    monkeypatch.setattr(SequenceModel, "cell_steps", counting)
    phrases, rowidx, targets, mask = _ragged_batch(vocab, RAGGED)
    with nm.ComputeTape(p for _, p in model.parameters()):
        _batch_loss(model, phrases, rowidx, targets, mask, None)
    evaluate(model, RAGGED, vocab)
    state, _ = model.start(BATCHED_PREFIXES)
    model.step(state, [0, 2, 2], [1, 0, 4])
    model.forward_session(["kw", "a", "b"])
    # (input rows, sequences) of each call: 3 sessions of 9 steps, then one
    # step per depth of evaluate's prefix tree (the 3 sessions of 2, 5 and 9
    # inputs share no prefix), every prefix to its longest, 3 rows of one step,
    # one session of 3
    tree = [(3, 3), (3, 3), (2, 2), (2, 2), (2, 2), (1, 1), (1, 1), (1, 1), (1, 1)]
    longest = max(len(p.pages) + 1 for p in BATCHED_PREFIXES)
    n = len(BATCHED_PREFIXES)
    assert calls == [(27, 3), *tree, (longest * n, n), (3, 3), (3, 1)]


def test_a_recorded_batch_frees_its_layer_inputs_before_backward(monkeypatch):
    # layer 0 reads the phrase projection through the row index (no (T*B) x 4H gather),
    # and each deeper layer frees the projection it forms once its forward pass ends
    import gc
    import weakref

    from journeynet.training import _batch_loss

    vocab = toy_vocab()
    model = toy_model(seed=52, config=replace(TOY_CONFIG, lstm_hidden=(6, 4)), vocab=vocab)
    phrases, rowidx, targets, mask = _ragged_batch(vocab, RAGGED)
    n, widths = rowidx.size, {4 * hs for hs in model.config.lstm_hidden}
    refs = []

    def note(a):  # every (T*B) x 4H array a product or an op result makes
        if a.shape[0] == n and a.shape[1] in widths:
            refs.append(weakref.ref(a))
        return a

    product, result = nm.rows_product, nm.Matrix._result
    monkeypatch.setattr(nm, "rows_product", lambda a, w, out=None: note(product(a, w, out)))
    monkeypatch.setattr(nm.Matrix, "_result", classmethod(lambda cls, data: result(note(data))))
    weights = [p for _, p in model.parameters()]
    with nm.ComputeTape(weights) as tape:
        loss = _batch_loss(model, phrases, rowidx, targets, mask, None)
    gc.collect()
    assert refs  # layer 1's projection
    assert all(ref() is None for ref in refs)
    nm.backward(tape, loss)
    assert all(p.grad is not None for p in weights)


# ---------------------------------------------------------------------------
# incremental inference


def test_predict_next_is_last_forward_step():
    model = toy_model(seed=9)
    prefix = Prefix("kw phrase", ("a", "b"))
    dist = predict_next(model, prefix)
    full = model.forward_session(["kw phrase", "a", "b"])[-1].probs
    assert np.array_equal(dist, full)
    assert abs(dist.sum() - 1.0) < 1e-6


def test_start_step_matches_forward_session():
    model = toy_model(seed=13)
    state, (dist,) = model.start([Prefix("kw", ("a",))])
    state, dist2 = model.step(state, [0], [model.vocab.encode("b")])
    full = model.forward_session(["kw", "a", "b"])
    assert np.array_equal(dist, full[1].probs)
    assert dist2.shape == (1, len(model.vocab))
    assert np.array_equal(dist2[0], full[2].probs)


def test_start_step_matches_forward_session_with_odd_phrases():
    # an out-of-vocabulary page is fed as its own text, and a keyword equal
    # to a page name reads that page's row of the projection table
    model = toy_model(seed=29)
    unknown = model.vocab.encode(UNKNOWN_PAGE)
    state, (dist,) = model.start([Prefix("b", ("zz-not-a-page", "a"))])
    state, dist2 = model.step(state, [0], [model.vocab.encode("c")])
    state, dist3 = model.step(state, [0], [unknown])
    full = model.forward_session(["b", "zz-not-a-page", "a", "c", UNKNOWN_PAGE])
    assert np.array_equal(dist, full[2].probs)
    assert np.array_equal(dist2[0], full[3].probs)
    assert np.array_equal(dist3[0], full[4].probs)


def shift(w):  # an edit through a new array
    w.data = w.data + 0.01


def shift_made_writeable(w):  # an in-place edit, after making the array writeable
    w.data.flags.writeable = True
    w.data += 0.01


def assert_frozen(w):
    """A bare in-place edit of `w`, a weight of a served model, raises numpy's ValueError."""
    with pytest.raises(ValueError, match="read-only"):
        w.data[...] *= 0.5


def test_start_sees_in_place_weight_edits():
    model = toy_model(seed=31)
    phrases = ["kw", "a", "b"]
    prefix = Prefix(phrases[0], phrases[1:])
    model.compute_copy()  # serving freezes every weight
    old_state, (before,) = model.start([prefix])
    for weights in (model.encoder.stages[0].kernels, model.layers[0].wx):
        for edit in (shift, shift_made_writeable):
            assert_frozen(weights)
            edit(weights)
            state, (dist,) = model.start([prefix])
            assert not np.array_equal(dist, before)
            assert np.array_equal(dist, model.forward_session(phrases)[-1].probs)
            fresh = model_from_dict(model_to_dict(model))
            assert np.array_equal(dist, fresh.start([prefix])[1][0])
            _, stepped = model.step(state, [0], [model.vocab.encode("c")])
            assert np.array_equal(stepped[0], model.forward_session(phrases + ["c"])[-1].probs)
            model.compute_copy()  # freezes the edited weight again
            before = dist
    # a state started before the edits steps with the edited model's page table and weights,
    # also with no serving call between an edit and the step
    c = model.vocab.encode("c")
    shift(model.encoder.stages[0].kernels)
    fresh = model_from_dict(model_to_dict(model))
    assert np.array_equal(model.step(old_state, [0], [c])[1], fresh.step(LstmState(old_state.layers), [0], [c])[1])


def test_extending_prefix_changes_distribution():
    model = toy_model(seed=15)
    d1 = predict_next(model, Prefix("kw", ("a",)))
    d2 = predict_next(model, Prefix("kw", ("a", "b")))
    assert not np.allclose(d1, d2)


def test_state_size_constant_over_long_sequences():
    model = toy_model(seed=17)
    state, _ = model.start([Prefix("kw", ())])
    shapes = [(h.shape, c.shape) for h, c in state.layers]
    for _ in range(40):
        state, dist = model.step(state, [0], [model.vocab.encode("a")])
        assert [(h.shape, c.shape) for h, c in state.layers] == shapes
        assert dist.shape == (1, len(model.vocab))


def assert_start_rows_equal_single_starts(predictor, prefixes):
    states, dists = predictor.start(prefixes)
    assert dists.shape == (len(prefixes), len(predictor.vocab))
    members = states if isinstance(states, list) else [states]
    for k, prefix in enumerate(prefixes):
        # a cold copy for each: the batch's memo would serve the prefix its own row
        one_states, one_dists = copy.deepcopy(predictor).start([prefix])
        assert np.array_equal(dists[k], one_dists[0])
        one_members = one_states if isinstance(one_states, list) else [one_states]
        for batch, one in zip(members, one_members):
            for (h, c), (h1, c1) in zip(batch.layers, one.layers):
                assert np.array_equal(h.data[k:k + 1], h1.data)
                assert np.array_equal(c.data[k:k + 1], c1.data)


BATCHED_PREFIXES = [
    Prefix("kw", ("a", "b")),
    Prefix("", ("zz-not-a-page", "c")),  # an out-of-vocabulary page, fed as its own text
    Prefix("b", ()),  # a keyword equal to a page name
    Prefix("car insurance", ("a", "zz-not-a-page", "yy")),
]


def test_batched_start_rows_equal_one_prefix_starts():
    model = toy_model(seed=41, config=replace(TOY_CONFIG, lstm_hidden=(6, 4)))
    assert_start_rows_equal_single_starts(model, BATCHED_PREFIXES)
    model.start(BATCHED_PREFIXES)
    assert model._cache.table.shape == (len(model.vocab), 4 * 6)


def test_batched_start_rows_equal_one_prefix_starts_in_an_ensemble():
    from journeynet.training import Ensemble

    ensemble = Ensemble([toy_model(seed=43), toy_model(seed=44)])
    assert_start_rows_equal_single_starts(ensemble, BATCHED_PREFIXES)
    # any iterable of prefixes, as for one model: every member reads all of them
    _, dists = ensemble.start(p for p in BATCHED_PREFIXES)
    assert np.array_equal(dists, ensemble.start(BATCHED_PREFIXES)[1])


def test_start_and_step_under_a_tape_return_the_off_tape_bits():
    # a tape that does not watch the weights sees inference run on plain
    # arrays; one that does records what runs, with the same bits
    def run(model):
        enc = model.vocab.encode
        state, dists = model.start(BATCHED_PREFIXES)
        new, stepped = model.step(state, [3, 0, 0, 2], [enc("a"), enc("c"), enc(UNKNOWN_PAGE), 0])
        return [dists, stepped, model._cache.table] + [
            m for s in (state, new) for pair in s.layers for m in pair
        ]

    def cold():
        return toy_model(seed=39, config=replace(TOY_CONFIG, lstm_hidden=(6, 4)))

    off = run(cold())
    for watched in (False, True):
        model = cold()  # a cold model runs every prefix and step of the call
        with nm.ComputeTape([p for _, p in model.parameters()] if watched else []) as tape:
            on = run(model)
        assert (len(tape) > 0) == watched
        assert len(on) == len(off) == 11
        for a, b in zip(on, off):
            assert type(a) is np.ndarray
            assert np.array_equal(a, b)


def test_inference_records_nothing_on_an_active_tape():
    model = toy_model(seed=39, config=replace(TOY_CONFIG, lstm_hidden=(6, 4)))
    unrelated = nm.Matrix(np.ones((model.w_fc.cols, 2)))
    with nm.ComputeTape([unrelated]) as tape:
        state, _ = model.start([Prefix("kw", ("a",))])
        model.start(BATCHED_PREFIXES)
        model.step(state, [0, 0], [model.vocab.encode("b"), 0])
        model.forward_session(["kw", "a", "zz-not-a-page"])
        assert len(tape) == 0
        # the tape is still the active one and records its own op afterwards
        nm.matmul(model.w_fc, unrelated)
        assert len(tape) == 1


def test_start_rejects_no_prefixes():
    with pytest.raises(ValueError):
        toy_model().start([])


def test_batched_start_encodes_the_page_names_once(monkeypatch):
    model = toy_model(seed=45)
    calls = []
    original = type(model.encoder).embed_batch

    def counting(self, phrases):
        calls.append(list(phrases))
        return original(self, phrases)

    monkeypatch.setattr(type(model.encoder), "embed_batch", counting)
    model.start(BATCHED_PREFIXES)
    # the page names in a call of their own, for the page table; then every other phrase of the call once
    extras = ["", "car insurance", "kw", "yy", "zz-not-a-page"]
    assert calls == [list(model.vocab.page_names), extras]
    # the page table is kept: a later call encodes the other phrases of its new prefixes only
    calls.clear()
    model.start([BATCHED_PREFIXES[0], Prefix("kw", ("zz-new",)), Prefix("c", ("a",))])
    assert calls == [["kw", "zz-new"]]


# the paper's encoder (62 and 14 windows per phrase) over a small vocabulary
SNAPSHOT_CONFIG = ModelConfig(lstm_hidden=(8, 6), fc_width=7, dropout_rate=0.0)
SNAPSHOT_CALLS = {
    "one prefix": [Prefix("car insurance", ("a", "b"))],
    "16 prefixes": [
        Prefix(kw, pages)
        for kw in ("", "kw", "b", "cheap cover")
        for pages in ((), ("a",), ("c", "zz-not-a-page"), ("b", "a", "c"))
    ],
    "keyword is a page name": [Prefix("b", ("a", "c"))],  # no phrase besides the page names
    "empty keyword": [Prefix("", ("c",))],
    "out-of-vocabulary page": [Prefix("kw", ("zz-not-a-page", "a"))],
    # phrases that name the reserved pages feed their vocabulary rows, as page or keyword
    "null and unknown pages": [Prefix(UNKNOWN_PAGE, ("a", NULL_PAGE)), Prefix("kw", (UNKNOWN_PAGE, "b"))],
}


def member_models(predictor):
    """The models of a predictor: an ensemble's members, or the model itself."""
    return getattr(predictor, "models", [predictor])


def start_outputs(predictor, prefixes):
    """Every array a `start` gives: distributions, then each member's page table (its
    serving cache's) and state rows."""
    states, dists = predictor.start(prefixes)
    states = states if isinstance(states, list) else [states]
    return [dists] + [
        a for m, s in zip(member_models(predictor), states) for a in (m._cache.table, *(x for pair in s.layers for x in pair))
    ]


def assert_same_outputs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is np.ndarray and a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.fixture
def embed_calls(monkeypatch):
    """The phrase lists of every CnnEncoder.embed_batch call."""
    from journeynet.textenc import CnnEncoder

    calls = []
    original = CnnEncoder.embed_batch

    def counting(self, phrases):
        calls.append(list(phrases))
        return original(self, phrases)

    monkeypatch.setattr(CnnEncoder, "embed_batch", counting)
    return calls


def phrase_extras(predictor, prefixes):
    """The phrases of `prefixes` besides the page names, sorted, as a `start` lists them."""
    phrases = {p for prefix in prefixes for p in (prefix.keywords, *prefix.pages)}
    return sorted(phrases - set(predictor.vocab.page_names))


@pytest.fixture
def passes(monkeypatch):
    """The row count of every padded pass: each starts from one SequenceModel._zero_state."""
    calls = []
    original = SequenceModel._zero_state

    def counting(self, batch, dtype):
        calls.append(batch)
        return original(self, batch, dtype)

    monkeypatch.setattr(SequenceModel, "_zero_state", counting)
    return calls


def snapshot_pair(seed=53):
    """Two freshly loaded copies of one paper-encoder model: one to warm, one left cold."""
    d = model_to_dict(toy_model(seed=seed, config=SNAPSHOT_CONFIG))
    return model_from_dict(d), model_from_dict(d)


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CALLS))
@pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
def test_snapshot_start_gives_the_bits_of_a_cold_start(case, ensemble, embed_calls):
    from journeynet.training import Ensemble

    warm, cold = snapshot_pair()
    if ensemble:
        other = snapshot_pair(seed=54)
        warm, cold = Ensemble([warm, other[0]]), Ensemble([cold, other[1]])
    prefixes = SNAPSHOT_CALLS[case]
    warm.start(prefixes[:1])
    embed_calls.clear()
    got = start_outputs(warm, prefixes)
    # a warm start encodes only the other phrases of the prefixes its memo lacks,
    # once per member, and none if they have none
    extras = phrase_extras(warm, prefixes[1:])
    assert embed_calls == ([extras] * (2 if ensemble else 1) if extras else [])
    embed_calls.clear()
    assert_same_outputs(got, start_outputs(cold, prefixes))
    # a cold start encodes the page names in a call of their own, then every other phrase once
    extras = phrase_extras(cold, prefixes)
    assert embed_calls == ([list(cold.vocab.page_names)] + ([extras] if extras else [])) * (2 if ensemble else 1)
    if not ensemble:  # a phrase that names a page feeds that page's row: the bits of encoding it
        for k, prefix in enumerate(prefixes):
            assert np.array_equal(got[0][k], warm.forward_session([prefix.keywords, *prefix.pages])[-1].probs)


def encoder_weight(model, index):
    """Encoder weight `index` in stage order: conv0 kernels, conv0 bias, conv1 kernels, ..."""
    return [w for st in model.encoder.stages for w in (st.kernels, st.bias)][index]


def to_float32(w):  # equal values, another dtype
    w.data = w.data.astype(np.float32)


@pytest.mark.parametrize("index", range(4))  # both stages' kernels and biases
def test_snapshot_sees_in_place_edits_and_float32_copies_of_the_encoder(index, embed_calls):
    warm, cold = snapshot_pair()
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    page_names, extras = list(warm.vocab.page_names), phrase_extras(warm, prefixes)
    for edit in (shift, shift_made_writeable, to_float32):
        warm.start(prefixes)
        assert_frozen(encoder_weight(warm, index))
        for model in (warm, cold):
            edit(encoder_weight(model, index))
        embed_calls.clear()
        got = start_outputs(warm, prefixes)
        assert embed_calls == [page_names, extras]
        assert_same_outputs(got, start_outputs(cold, prefixes))
        if edit is not to_float32:  # a checkpoint loads float64 weights
            assert_same_outputs(got, start_outputs(model_from_dict(model_to_dict(warm)), prefixes))
        # the refreshed memo serves the next call: it encodes nothing
        embed_calls.clear()
        assert_same_outputs(start_outputs(warm, prefixes), got)
        assert embed_calls == []


def warm_and_cold(ensemble):
    """`snapshot_pair`'s two models, or two ensembles of them with a second model each."""
    from journeynet.training import Ensemble

    warm, cold = snapshot_pair()
    if ensemble:
        other = snapshot_pair(seed=54)
        warm, cold = Ensemble([warm, other[0]]), Ensemble([cold, other[1]])
    return warm, cold


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CALLS))
@pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
def test_memo_serves_repeated_calls_and_compute_copies_with_the_bits_of_a_cold_start(
    case, ensemble, embed_calls, passes
):
    warm, cold = warm_and_cold(ensemble)
    prefixes = SNAPSHOT_CALLS[case]
    copy = warm.compute_copy()
    first, served = start_outputs(warm, prefixes), start_outputs(copy, prefixes)
    embed_calls.clear()
    passes.clear()
    # each model's first call fills its own memo, which serves every prefix of its repeats
    again = [start_outputs(warm, prefixes), start_outputs(warm, prefixes)]
    served_again = start_outputs(copy, prefixes)
    assert embed_calls == [] and passes == []
    for got in again:
        assert_same_outputs(got, first)
    assert_same_outputs(served_again, served)
    assert_same_outputs(first, start_outputs(cold, prefixes))
    assert_same_outputs(served, start_outputs(cold.compute_copy(), prefixes))


def start_rows_and_tables(predictor, prefixes):
    """A `start`'s arrays of one row per prefix (distributions, then each member's state rows),
    and each member's page table."""
    states, dists = predictor.start(prefixes)
    states = states if isinstance(states, list) else [states]
    rows = [dists, *(a for s in states for pair in s.layers for a in pair)]
    return rows, [m._cache.table for m in member_models(predictor)]


@pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
def test_memo_runs_the_pass_over_the_new_prefixes_of_a_call_only(ensemble, embed_calls, passes):
    warm, cold = warm_and_cold(ensemble)
    seen = SNAPSHOT_CALLS["16 prefixes"][:6]
    new = SNAPSHOT_CALLS["16 prefixes"][6:] + SNAPSHOT_CALLS["one prefix"]
    # memoized, new and duplicated prefixes, interleaved
    prefixes = [new[0], seen[3], new[1], new[0], *seen, *new[2:], seen[3], new[1]]
    distinct = (seen + new)[::-1]
    order = [distinct.index(prefix) for prefix in prefixes]
    members = 2 if ensemble else 1
    # a model and its compute copy each keep a memo of their own
    for model, reference in ((warm, cold), (warm.compute_copy(), cold.compute_copy())):
        model.start(seen)
        embed_calls.clear()
        passes.clear()
        rows, tables = start_rows_and_tables(model, prefixes)
        # one pass over the distinct new prefixes, which encodes their phrases besides the page names
        assert passes == [len(new)] * members
        assert embed_calls == [phrase_extras(model, new)] * members
        # row k is the row of prefixes[k], with the bits of a cold start
        want_rows, want_tables = start_rows_and_tables(reference, distinct)
        assert_same_outputs(rows, [a[order] for a in want_rows])
        assert_same_outputs(tables, want_tables)


@pytest.mark.parametrize("edit", [shift_made_writeable, shift, to_float32], ids=["in-place", "new-array", "float32"])
@pytest.mark.parametrize("index", [0, 3])  # conv0 kernels, conv1 bias
def test_memo_is_dropped_after_an_encoder_edit(edit, index, embed_calls):
    warm, cold = snapshot_pair()
    for model in (warm, cold):
        # float32-representable values, so the float32 copy compares equal
        w = encoder_weight(model, index)
        w.data[...] = w.data.astype(np.float32)
    warm.start(SNAPSHOT_CALLS["one prefix"])
    prefixes = SNAPSHOT_CALLS["out-of-vocabulary page"] + SNAPSHOT_CALLS["one prefix"]
    warm.start(prefixes)
    embed_calls.clear()
    assert_frozen(encoder_weight(warm, index))
    for model in (warm, cold):
        edit(encoder_weight(model, index))
    got = start_outputs(warm, prefixes)
    # nothing of the cache is read: the page names are encoded again, then every other phrase
    assert embed_calls == [list(warm.vocab.page_names), phrase_extras(warm, prefixes)]
    assert_same_outputs(got, start_outputs(cold, prefixes))
    if edit in (shift, shift_made_writeable):
        assert_same_outputs(got, start_outputs(model_from_dict(model_to_dict(warm)), prefixes))
    # and the memo restarts from that pass
    embed_calls.clear()
    assert_same_outputs(start_outputs(warm, prefixes), got)
    assert embed_calls == []


def test_memo_past_its_bound_empties_and_keeps_the_bits(monkeypatch, passes):
    from journeynet import seqmodel

    monkeypatch.setattr(seqmodel, "MAX_KEPT_NODES", 3)
    warm, _ = snapshot_pair()
    k = [Prefix(f"k{i}", ("a",)) for i in range(6)]
    calls = [  # prefixes, rows of the call's pass, kept nodes (all roots) after it
        ([k[0], k[1]], 2, 2),
        ([k[2], k[0]], 1, 3),  # fills the store
        ([k[3], k[1]], 2, 2),  # k3 would pass the bound: the store restarts, then runs and keeps both
        ([k[4], k[5], k[0], k[1]], 4, 4),  # the store restarts and keeps all four, past the bound
        ([k[0], k[4], k[5]], 0, 4),
        ([k[1], k[3], k[1]], 2, 2),
    ]
    for prefixes, rows, nodes in calls:
        passes.clear()
        got = start_outputs(warm, prefixes)
        assert passes == ([rows] if rows else [])
        assert warm._cache.nodes.size == len(warm._cache.memo) == nodes
        assert_same_outputs(got, start_outputs(snapshot_pair()[1], prefixes))


@pytest.mark.parametrize("name", ["lstm1.wh", "out.bias"])
def test_memo_sees_an_in_place_edit_made_writeable(name, passes):
    warm, cold = snapshot_pair()
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    before = start_outputs(warm, prefixes)
    assert_frozen(warm.weights[name])
    for model in (warm, cold):  # one entry: a shift of all of out.bias leaves the softmax as it is
        w = model.weights[name].data
        w.flags.writeable = True
        w[0, 0] += 0.5
    passes.clear()
    got = start_outputs(warm, prefixes)
    # the edit restarts the cache: one pass runs every prefix again
    assert passes == [len(prefixes)]
    assert not np.array_equal(got[0], before[0])
    assert_same_outputs(got, start_outputs(cold, prefixes))


def test_memo_serves_a_second_start_under_a_tape_that_watches_the_weights(passes):
    warm, cold = snapshot_pair()
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    weights = [p for _, p in warm.parameters()]
    with nm.ComputeTape(weights) as tape:
        first = start_outputs(warm, prefixes)  # builds the cache, and the tape records the pass
        recorded = len(tape)
        passes.clear()
        second = start_outputs(warm, prefixes)
    # the memo serves the second call: no pass runs and the tape records nothing more
    assert recorded > 0 and passes == [] and len(tape) == recorded
    for got in (first, second):
        assert_same_outputs(got, start_outputs(cold, prefixes))
    for w in weights:
        assert_frozen(w)


def test_memo_rows_are_not_written_through_the_arrays_a_start_returns():
    warm, cold = snapshot_pair()
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    for _ in range(2):  # a first call fills the memo, a second reads it
        state, dists = warm.start(prefixes)
        dists[...] = 0.0
        for h, c in state.layers:
            h[...] = 0.0
            c[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):  # the page table every state steps with
            warm._cache.table[...] = 0.0
    assert_same_outputs(start_outputs(warm, prefixes), start_outputs(cold, prefixes))


# ---------------------------------------------------------------------------
# rollout trees: the node store steps each path of a recurring prefix once


@pytest.fixture
def stepped_rows(monkeypatch):
    """The row count of every SequenceModel.cell_steps call."""
    calls = []
    original = SequenceModel.cell_steps

    def counting(self, xproj, state, rows=None):
        calls.append(len(state[0][0]))
        return original(self, xproj, state, rows)

    monkeypatch.setattr(SequenceModel, "cell_steps", counting)
    return calls


TREE_PREFIXES = SNAPSHOT_CALLS["16 prefixes"][:5]
# (rows, pages) of steps from a start state of TREE_PREFIXES: new pairs, the
# same pairs again, and a mix of two of them with three new ones
TREE_STEPS = [
    ([0, 1, 2, 3], [0, 1, 2, 0]),
    ([0, 1, 2, 3], [0, 1, 2, 0]),
    ([3, 0, 4, 2, 1], [0, 3, 4, 1, 1]),
]


def state_outputs(state, dists):
    """A step's or start's distributions and its state's rows, member by member for an ensemble."""
    members = state if isinstance(state, list) else [state]
    return [dists, *(a for s in members for pair in s.layers for a in pair)]


def kept_start(model, prefixes):
    """The state of a second `start` of `prefixes`, which the memo serves whole: a kept state."""
    model.start(prefixes)
    state, dists = model.start(prefixes)
    assert all(s.nodes is not None for s in (state if isinstance(state, list) else [state]))
    return state, dists


def stepped_both(warm, cold, states, rows, pages):
    """`step` of a warm model's state and of a cold one's plain state, their outputs compared bit for bit."""
    (new, got), want = warm.step(states[0], rows, pages), cold.step(states[1], rows, pages)
    assert_same_outputs(state_outputs(new, got), state_outputs(*want))
    return new, want[0]


def test_tree_kept_steps_give_a_cold_models_rows_on_hits_misses_and_mixed_calls(stepped_rows):
    warm, cold = snapshot_pair()
    state, dists = kept_start(warm, TREE_PREFIXES)
    cold_state, cold_dists = cold.start(TREE_PREFIXES)
    assert cold_state.nodes is None
    assert_same_outputs(state_outputs(state, dists), state_outputs(cold_state, cold_dists))
    computed = []
    for rows, pages in TREE_STEPS:
        stepped_rows.clear()
        new, _ = warm.step(state, rows, pages)
        computed.append(stepped_rows[:])
        assert new.nodes is not None
        new, cold_new = stepped_both(warm, cold, (state, cold_state), rows, pages)
    # only the children the store lacks run, in one call
    assert computed == [[4], [], [3]]
    # one step deeper from the mixed call: misses, then hits
    for computes in ([3], []):
        stepped_rows.clear()
        deeper, dists = warm.step(new, [4, 0, 1], [2, 2, 0])
        assert stepped_rows == computes and deeper.nodes is not None
        stepped_both(warm, cold, (new, cold_new), [4, 0, 1], [2, 2, 0])
    # start, then step through the tree, gives forward_session's bits
    names, (mixed_rows, mixed_pages) = warm.vocab.page_names, TREE_STEPS[2]
    for j, (row, page) in enumerate(zip([4, 0, 1], [2, 2, 0])):
        prefix = TREE_PREFIXES[mixed_rows[row]]
        phrases = [prefix.keywords, *prefix.pages, names[mixed_pages[row]], names[page]]
        assert np.array_equal(dists[j], warm.forward_session(phrases)[-1].probs)


def test_tree_of_a_one_shot_prefix_adds_no_child(stepped_rows):
    warm, _ = snapshot_pair()
    state, _ = warm.start(TREE_PREFIXES)
    stepped_rows.clear()
    for _ in range(2):  # a state the pass made steps plain, however often
        new, _ = warm.step(state, [0, 1, 2], [0, 1, 2])
        warm.step(new, [0, 1, 2], [1, 1, 1])
    assert state.nodes is None and new.nodes is None
    assert stepped_rows == [3, 3] * 2
    nodes = warm._cache.nodes
    assert nodes.size == len(TREE_PREFIXES) and (nodes.child[:nodes.size] < 0).all()


@pytest.mark.parametrize("edit", [shift, shift_made_writeable], ids=["new-array", "in-place"])
@pytest.mark.parametrize("name", ["lstm1.wh", "fc.weight"])
def test_tree_state_held_across_a_weight_edit_steps_plain_with_the_new_weights(edit, name, stepped_rows):
    warm, cold = snapshot_pair()
    state, _ = kept_start(warm, TREE_PREFIXES)
    cold_state, _ = cold.start(TREE_PREFIXES)
    _, before = warm.step(state, [0, 1], [0, 1])  # the store keeps these children
    nodes = warm._cache.nodes
    size = nodes.size
    for model in (warm, cold):
        edit(model.weights[name])
    # before and after the next serving call restarts the cache
    for serve in (False, True):
        if serve:
            warm.start(TREE_PREFIXES)
            assert warm._cache.nodes is not nodes
        stepped_rows.clear()
        new, _ = stepped_both(warm, cold, (state, cold_state), [0, 1], [0, 1])
        # the held state runs both rows from its own rows, with the edited weights and their page table
        assert new.nodes is None and stepped_rows == [2, 2]
        assert not np.array_equal(warm.step(state, [0, 1], [0, 1])[1], before)
        assert nodes.size == size


def test_tree_kept_step_under_a_tape_that_watches_the_weights_adds_the_missing_children(stepped_rows):
    warm, cold = snapshot_pair()
    state, _ = kept_start(warm, TREE_PREFIXES)
    warm.step(state, [0, 1], [0, 1])  # the store keeps these children
    nodes = warm._cache.nodes
    size = nodes.size
    cold_state, _ = cold.start(TREE_PREFIXES)
    stepped_rows.clear()
    with nm.ComputeTape([p for _, p in warm.parameters()]) as tape:
        new, _ = stepped_both(warm, cold, (state, cold_state), [0, 1, 2], [0, 1, 2])  # two pairs held, one not
    # the warm model runs and records the missing child only, and keeps it
    assert stepped_rows == [1, 3] and len(tape) > 0
    assert new.nodes is not None and warm._cache.nodes is nodes and nodes.size == size + 1
    stepped_rows.clear()
    again, _ = stepped_both(warm, cold, (state, cold_state), [0, 1, 2], [0, 1, 2])
    assert stepped_rows == [3] and np.array_equal(again.nodes, new.nodes)


def test_tree_past_its_bound_restarts_or_steps_plain_with_the_same_bits(monkeypatch, stepped_rows):
    from journeynet import seqmodel

    monkeypatch.setattr(seqmodel, "MAX_KEPT_NODES", 10)
    warm, cold = snapshot_pair()
    prefixes = TREE_PREFIXES[:3]
    root = kept_start(warm, prefixes)[0], cold.start(prefixes)[0]
    nodes = warm._cache.nodes
    first = stepped_both(warm, cold, root, [0, 1, 2, 0], [0, 1, 2, 1])
    assert first[0].nodes is not None and nodes.size == 7
    # four new children would pass the bound: the call steps plain and keeps nothing
    second = stepped_both(warm, cold, first, [0, 1, 2, 3], [0, 0, 0, 0])
    assert second[0].nodes is None and nodes.size == 7
    stepped_both(warm, cold, second, [0, 3], [1, 1])
    # two hits and one new child fit
    stepped_rows.clear()
    third = stepped_both(warm, cold, root, [0, 1, 2], [0, 1, 0])
    assert third[0].nodes is not None and nodes.size == 8 and stepped_rows[0] == 1
    # a start whose three new prefixes do not fit restarts the store and runs its two hits again, with their bits
    mixed = [*prefixes[:2], *SNAPSHOT_CALLS["16 prefixes"][5:8]]
    assert_same_outputs(start_outputs(warm, mixed), start_outputs(snapshot_pair()[1], mixed))
    assert warm._cache.nodes is not nodes and warm._cache.nodes.size == 5
    # states of the old store step plain
    for states in (root, third):
        new, _ = stepped_both(warm, cold, states, [0, 1], [2, 2])
        assert new.nodes is None


def test_tree_start_whose_new_prefixes_do_not_fit_restarts_and_runs_its_hits_again(monkeypatch, passes):
    from journeynet import seqmodel

    monkeypatch.setattr(seqmodel, "MAX_KEPT_NODES", 6)
    warm, cold = snapshot_pair()
    seen, new = TREE_PREFIXES[:4], SNAPSHOT_CALLS["16 prefixes"][5:8]
    warm.start(seen)
    nodes = warm._cache.nodes
    mixed = [new[0], seen[1], new[1], seen[3], new[2], new[0]]
    passes.clear()
    got = start_outputs(warm, mixed)
    # four kept and three new prefixes pass the bound: a new store keeps the call's five distinct prefixes
    assert passes == [5]
    assert warm._cache.nodes is not nodes and warm._cache.nodes.size == len(warm._cache.memo) == 5
    assert_same_outputs(got, start_outputs(cold, mixed))


def test_tree_start_of_more_prefixes_than_the_bound_keeps_them_all_and_steps_plain(monkeypatch, stepped_rows):
    from journeynet import seqmodel

    monkeypatch.setattr(seqmodel, "MAX_KEPT_NODES", 3)
    warm, cold = snapshot_pair()
    state, dists = kept_start(warm, TREE_PREFIXES)
    nodes = warm._cache.nodes
    assert nodes.size == len(warm._cache.memo) == len(TREE_PREFIXES)
    cold_state, cold_dists = cold.start(TREE_PREFIXES)
    assert_same_outputs(state_outputs(state, dists), state_outputs(cold_state, cold_dists))
    # no child fits in a store past its bound: the warm model steps every row, as the cold one does
    stepped_rows.clear()
    new, _ = stepped_both(warm, cold, (state, cold_state), [0, 1, 2], [0, 1, 2])
    assert new.nodes is None and stepped_rows == [3, 3] and nodes.size == len(TREE_PREFIXES)


@pytest.mark.parametrize("n_prefixes, rows, pages, children", [
    (1, [0, 0], [1, 1], 1),
    (3, [2, 0, 2, 1, 0], [1, 0, 1, 3, 0], 3),
])
def test_tree_kept_step_computes_and_keeps_a_repeated_pair_once(n_prefixes, rows, pages, children, stepped_rows):
    warm, cold = snapshot_pair()
    prefixes = TREE_PREFIXES[:n_prefixes]
    states = kept_start(warm, prefixes)[0], cold.start(prefixes)[0]
    stepped_rows.clear()
    new, _ = stepped_both(warm, cold, states, rows, pages)
    assert stepped_rows == [children, len(rows)] and warm._cache.nodes.size == n_prefixes + children
    assert len(set(new.nodes.tolist())) == children


def test_tree_of_kept_ensemble_members_gives_the_same_bits(stepped_rows):
    warm, cold = warm_and_cold(ensemble=True)
    states = kept_start(warm, TREE_PREFIXES)[0], cold.start(TREE_PREFIXES)[0]
    for rows, pages in TREE_STEPS:
        stepped_rows.clear()
        new = stepped_both(warm, cold, states, rows, pages)
        assert all(s.nodes is not None for s in new[0])
    deeper = stepped_both(warm, cold, new, [4, 0, 1], [2, 2, 0])
    stepped_rows.clear()
    stepped_both(warm, cold, new, [4, 0, 1], [2, 2, 0])
    # the warm members serve the repeat from their trees; the cold ones run it
    assert stepped_rows == [3, 3] and all(s.nodes is not None for s in deeper[0])


def step_outputs(model, prefixes):
    """Distributions of `start` and of one `step` of every row to page 0, and every state array."""
    state, dists = model.start(prefixes)
    new, stepped = model.step(state, range(len(prefixes)), [0] * len(prefixes))
    return [dists, stepped, model._cache.table, *(a for s in (state, new) for pair in s.layers for a in pair)]


def test_compute_copy_start_step_are_float32_and_match_its_forward_session():
    model = toy_model(seed=57, config=SNAPSHOT_CONFIG)
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    before = step_outputs(model, prefixes)
    copy = model.compute_copy()
    served = step_outputs(copy, prefixes)
    assert all(a.dtype == np.float32 for a in served)
    # the encoder too is cast: the CNN serves in float32, as it trains
    for a, b in ((encoder_weight(copy, i).data, encoder_weight(model, i).data) for i in range(4)):
        assert a.dtype == np.float32 and np.array_equal(a, b.astype(np.float32)) and not np.shares_memory(a, b)
    for k, prefix in enumerate(prefixes):
        full = copy.forward_session([prefix.keywords, *prefix.pages, copy.vocab.page_names[0]])
        assert np.array_equal(served[0][k], full[-2].probs)
        assert np.array_equal(served[1][k], full[-1].probs)
    # the masters are neither cast nor written: their outputs keep their dtype and bits
    assert all(w.data.dtype == np.float64 for _, w in model.parameters())
    assert all(a.dtype == np.float64 for a in before)
    assert_same_outputs(step_outputs(model, prefixes), before)


def test_compute_copy_shares_no_array_with_its_model():
    model = toy_model(seed=57, config=SNAPSHOT_CONFIG)
    copy = model.compute_copy()
    for _, w in model.parameters():
        for _, c in copy.parameters():
            assert not np.shares_memory(w.data, c.data)
    assert {w.data.dtype for _, w in copy.parameters()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("index", [0, 3])  # conv0 kernels, conv1 bias
def test_compute_copy_held_across_an_in_place_encoder_edit_keeps_its_bits(index):
    warm, cold = snapshot_pair()
    prefixes = SNAPSHOT_CALLS["16 prefixes"]
    copy = warm.compute_copy()
    held = step_outputs(copy, prefixes)
    shift_made_writeable(encoder_weight(warm, index))
    warm.start(prefixes)  # serves the edit: the model's cache and its next copy start again
    assert warm.compute_copy() is not copy
    # the held copy is a snapshot: its weights and bits are those of the model before the edit
    assert_same_outputs(step_outputs(copy, prefixes), held)
    assert_same_outputs(held, step_outputs(cold.compute_copy(), prefixes))
    assert not np.array_equal(encoder_weight(copy, index).data, encoder_weight(warm, index).data)


def test_compute_copy_start_is_within_1e_6_of_float64_at_the_paper_config():
    pages = [f"page {i}" for i in range(12)]
    model = toy_model(seed=61, config=ModelConfig(), vocab=toy_vocab(pages))
    prefixes = [Prefix(kw, pages[:n]) for kw in ("", "car insurance quotes") for n in (1, 3, 6)]
    exact, served = step_outputs(model, prefixes), step_outputs(model.compute_copy(), prefixes)
    for a, b in zip(exact[:2], served[:2]):
        assert np.abs(a - b).max() < 1e-6


@pytest.mark.parametrize("rows, pages", [
    ([-1], [0]),
    ([2], [0]),  # the state has 2 rows
    ([0], [-1]),
    ([0], [5]),  # the table has 5 rows (a, b, c, NULL, UNKNOWN)
    ([0, 1], [0]),
    ([[0]], [[0]]),
])
def test_step_rejects_bad_rows_and_pages(rows, pages):
    model = toy_model(seed=47)
    state, _ = model.start([Prefix("kw", ("a",)), Prefix("kw", ("b",))])
    with pytest.raises(ShapeError):
        model.step(state, rows, pages)


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "plain"])
def test_step_of_no_rows_is_a_shape_error(kept):
    # both the kept and the plain path refuse, before any cell runs
    model = toy_model(seed=47)
    prefixes = [Prefix("kw", ("a",)), Prefix("kw", ("b",))]
    state, _ = kept_start(model, prefixes) if kept else model.start(prefixes)
    assert (state.nodes is not None) == kept
    with pytest.raises(ShapeError, match="at least one row"):
        model.step(state, [], [])


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["no-sequence", "no-step"])
def test_batch_step_probs_of_an_empty_pass_is_a_shape_error(shape):
    # the LSTM kernel takes its states as given: without this rule it divided by zero or read no rows
    with pytest.raises(ShapeError, match="at least one sequence of at least one step"):
        toy_model(seed=47).batch_step_probs(["a"], np.zeros(shape, np.intp))


def test_untaped_head_is_bitwise_taped_head():
    model = toy_model(seed=49, config=replace(TOY_CONFIG, dropout_rate=0.5))
    gen = np.random.default_rng(3)
    for batch in (1, 2, 7, 64):
        h = nm.Matrix(gen.normal(size=(batch, model.layers[-1].wh.rows)))
        with nm.ComputeTape(p for _, p in model.parameters()) as tape:
            taped = model.head(h).data
        assert len(tape)  # the taped ops ran
        assert np.array_equal(model.head(h).data, taped)


def test_rate_zero_head_given_a_generator_is_the_head_without_one():
    model = toy_model(seed=49)  # dropout_rate 0
    gen = rngmod.stream(3, "dropout")
    for batch in (1, 7):
        h = nm.Matrix(np.random.default_rng(batch).normal(size=(batch, model.layers[-1].wh.rows)))
        assert np.array_equal(model.head(h, gen).data, model.head(h).data)
    assert np.array_equal(gen.random(5), rngmod.stream(3, "dropout").random(5))  # no draw was taken


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bitwise(tmp_path):
    vocab = build_vocab(
        [make_session(["a", "b", "c", "a"]), make_session(["b", "c"])], min_freq=1
    )
    model = toy_model(seed=21, vocab=vocab)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    clone = load_model(path)

    assert clone.vocab.page_names == model.vocab.page_names
    assert clone.config == model.config
    for (name_a, pa), (name_b, pb) in zip(model.parameters(), clone.parameters()):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data)

    prefix = Prefix("car insurance", ("a", "b"))
    assert np.array_equal(predict_next(model, prefix), predict_next(clone, prefix))


def test_checkpoint_bytes_stable(tmp_path):
    model = toy_model(seed=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_dict_roundtrip_preserves_predictions():
    model = toy_model(seed=33)
    clone = model_from_dict(model_to_dict(model))
    p = Prefix("kw", ("c",))
    assert np.array_equal(predict_next(model, p), predict_next(clone, p))


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)
    path.write_text("[1, 2]")
    with pytest.raises(CheckpointError, match="must be a JSON object"):
        load_model(path)
    path.write_text(json.dumps(TOY_CHECKPOINTS["ensemble"]))
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("max_len", 12.7),
    ("max_len", "12"),
    ("fc_width", 5.0),
    ("lstm_hidden", [6.0]),
    ("conv_stages", [[3, 4, 4.0]]),
    ("fc_width", True),
    ("dropout_rate", False),
    ("dropout_rate", "0"),
])
def test_config_and_checkpoint_reject_a_size_or_rate_of_another_type(field, value):
    # the loader passes the stored fields unconverted, so a stored 12.7 or "12" is no max_len 12
    rule = "dropout_rate must be an int or float" if field == "dropout_rate" else "must be an int >= 1"
    with pytest.raises(ConfigError, match=rule):
        ModelConfig(**{field: value})
    d = model_to_dict(toy_model(seed=8))
    d["config"][field] = value
    with pytest.raises(CheckpointError, match="ConfigError"):
        model_from_dict(d)


def test_load_rejects_weights_the_config_does_not_lay_out():
    # the config drops the last of two LSTM layers; its fc weights still fit
    # (both layers are 6 wide), but the stored lstm1 weights have no place
    d = model_to_dict(toy_model(seed=8, config=replace(TOY_CONFIG, lstm_hidden=(6, 6))))
    d["config"]["lstm_hidden"] = [6]
    with pytest.raises(CheckpointError, match="lstm1.wx"):
        model_from_dict(d)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_rejects_a_weight_that_is_not_finite_naming_it(value):
    d = model_to_dict(toy_model(seed=8))
    wh = d["weights"]["lstm0.wh"]
    data = np.frombuffer(base64.b64decode(wh["data"]), dtype="<f8").copy()
    data[3] = value
    wh["data"] = base64.b64encode(data.tobytes()).decode()
    with pytest.raises(CheckpointError, match="'lstm0.wh' are not all finite"):
        model_from_dict(d)


@pytest.mark.parametrize(
    "pages", [[5, "b", "c"], "abc", ["a", "", "c"], {"a": 0, "b": 1, "c": 2}],
    ids=["number", "string", "empty-name", "object"],
)
def test_load_rejects_page_names_that_are_not_a_list_of_non_empty_strings(pages):
    d = model_to_dict(toy_model(seed=8))  # pages a, b and c
    d["vocab"]["pages"] = pages
    with pytest.raises(CheckpointError, match=r"vocabulary pages(\[\d+\])? must be"):
        model_from_dict(d)


def test_layout_and_one_hot_are_capped_at_max_weights(monkeypatch):
    from journeynet import seqmodel

    config = ModelConfig()  # the paper's architecture
    count = sum(r * c for r, c in parameter_shapes(config, 12).values())
    assert count == 385_292
    monkeypatch.setattr(seqmodel, "MAX_WEIGHTS", count)
    parameter_shapes(config, 12)
    with pytest.raises(ConfigError, match=f"{count + 257} weights"):
        parameter_shapes(config, 13)  # one more class: 256 output weights and a bias
    one_hot = count // len(config.alphabet)
    ModelConfig(max_len=one_hot)
    with pytest.raises(ConfigError, match="one-hot"):
        ModelConfig(max_len=one_hot + 1)
    d = model_to_dict(toy_model(seed=8))
    d["config"]["max_len"] = one_hot + 1
    with pytest.raises(CheckpointError, match="one-hot"):
        model_from_dict(d)


def test_constructor_rejects_weights_off_the_layout():
    model = toy_model(seed=9)
    missing = dict(model.parameters())
    del missing["out.bias"]
    resized = {**dict(model.parameters()), "out.bias": nm.Matrix(np.zeros((1, 2)))}
    for weights in (missing, resized):
        with pytest.raises(ShapeError):
            SequenceModel(model.config, model.vocab, weights)


def test_constructor_rejects_a_conv_kernel_bank_off_the_layout():
    # the encoder's convolution reads its kernel bank as the layout gives it
    model = toy_model(seed=9)
    kernels = dict(model.parameters())["conv0.kernels"]
    for shape in ((kernels.rows - 1, kernels.cols), (kernels.rows, kernels.cols + 1)):
        weights = {**dict(model.parameters()), "conv0.kernels": nm.Matrix(np.zeros(shape))}
        with pytest.raises(ShapeError):
            SequenceModel(model.config, model.vocab, weights)


@pytest.mark.parametrize("alphabet", ["abca", "", ["a", "b"]], ids=["repeating", "empty", "not-text"])
def test_load_rejects_an_alphabet_the_config_rejects(alphabet):
    d = model_to_dict(toy_model(seed=8))
    d["config"]["alphabet"] = alphabet
    with pytest.raises(CheckpointError, match="alphabet"):
        model_from_dict(d)


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, the root's () first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _toy_checkpoints() -> dict:
    from journeynet.training import ENSEMBLE_FORMAT

    body = model_to_dict(toy_model(seed=51, config=replace(TOY_CONFIG, lstm_hidden=(6, 4))))
    return {
        "model": {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, "model": body},
        "ensemble": {"format": ENSEMBLE_FORMAT, "version": CHECKPOINT_VERSION, "members": [body, body]},
    }


TOY_CHECKPOINTS = _toy_checkpoints()
OTHER_TYPES = [None, True, "x", "", 1.5, float("inf"), [], [3], {}, {"shape": [1]}]
RESIZED = st.integers(-2, 3) | st.integers(4, 10**7) | st.just(int("1" + "0" * 400))


@given(kind=st.sampled_from(sorted(TOY_CHECKPOINTS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_checkpoint_loads_or_raises_journeynet_error(kind, data):
    # drop or retype any field, or resize any integer (config sizes, array shapes)
    from journeynet.training import load_predictor

    payload = copy.deepcopy(TOY_CHECKPOINTS[kind])
    path = data.draw(st.sampled_from(list(_json_paths(payload))[1:]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    resizable = isinstance(value, int) and not isinstance(value, bool)
    op = data.draw(st.sampled_from(["drop", "retype", "resize"] if resizable else ["drop", "retype"]))
    if op == "drop":
        del parent[path[-1]]
    elif op == "retype":
        parent[path[-1]] = data.draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    else:
        parent[path[-1]] = data.draw(RESIZED)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "mutated.ckpt"
        ckpt.write_text(json.dumps(payload))
        try:
            load_predictor(ckpt)
        except JourneynetError:
            pass
