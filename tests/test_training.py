import numpy as np
import pytest

from journeynet.errors import ConfigError, TrainingError
from journeynet.journeydata import (
    MarkovSpec,
    PageEvent,
    Session,
    build_vocab,
    expand_session,
    generate_synthetic,
    split,
)
from journeynet.seqmodel import ModelConfig, SequenceModel, predict_next, session_loss
from journeynet.training import (
    Ensemble,
    TrainConfig,
    ensemble_predict,
    evaluate,
    load_predictor,
    save_ensemble,
    train,
    train_ensemble,
)

TOY_TRAIN = dict(
    max_len=16,
    conv_stages=((3, 8, 4),),
    lstm_hidden=(16,),
    fc_width=16,
    dropout_rate=0.0,
)


class Prefix:
    def __init__(self, keywords="", pages=()):
        self.keywords = keywords
        self.pages = tuple(pages)


def small_chain():
    return MarkovSpec(
        states=("home", "quote", "confirm", "exit"),
        transitions=np.array(
            [
                [0.10, 0.60, 0.10, 0.20],
                [0.15, 0.10, 0.55, 0.20],
                [0.05, 0.15, 0.10, 0.70],
                [0.00, 0.00, 0.00, 1.00],
            ]
        ),
        initial=np.array([0.7, 0.3, 0.0, 0.0]),
        keywords_by_state={"home": "car insurance", "quote": "insurance quote online"},
        dwell_mean_by_state={"home": 4.0, "quote": 4.0, "confirm": 4.0},
    )


@pytest.fixture(scope="module")
def chain_data():
    sessions = generate_synthetic(small_chain(), 300, seed=11)
    tr, ev = split(sessions, 0.8, seed=11)
    vocab = build_vocab(tr, min_freq=2)
    return tr, ev, vocab


@pytest.fixture(scope="module")
def trained(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=12, batch_size=16, learning_rate=3e-3, seed=3, **TOY_TRAIN)
    model, report = train(tr, config, vocab, eval_sessions=ev)
    return model, report, config


def test_default_config_matches_reference_architecture():
    config = TrainConfig()
    assert config.conv_stages == ((3, 64, 4), (3, 64, 4))
    assert all(f == 64 and p == 4 for _, f, p in config.conv_stages)
    assert config.lstm_hidden == (128, 128)
    assert config.fc_width == 256
    assert config.dropout_rate == 0.5


def test_train_config_is_a_model_config():
    config = TrainConfig(epochs=3, seed=4, **TOY_TRAIN)
    assert isinstance(config, ModelConfig)
    projected = config.model_config()
    assert type(projected) is ModelConfig
    assert projected == ModelConfig(**TOY_TRAIN)
    assert TrainConfig().model_config() == ModelConfig()


def test_trained_model_holds_a_plain_model_config(trained):
    model, _, config = trained
    assert type(model.config) is ModelConfig
    assert model.config == config.model_config()


@pytest.mark.parametrize("bad", [
    dict(lstm_hidden=()),
    dict(conv_stages=()),
    dict(lstm_hidden=(8, 0)),
    dict(conv_stages=((3, 4, 0),)),
    dict(conv_stages=((3, 4),)),
    dict(max_len=0),
    dict(fc_width=0),
    dict(dropout_rate=1.0),
    dict(epochs=0),
    dict(batch_size=0),
    dict(learning_rate=0.0),
    dict(gradient_clip_norm=0.0),
])
def test_train_config_rejects_out_of_range_values_at_construction(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


def test_overfits_single_deterministic_session():
    session = Session(
        "s1",
        "car insurance quote",
        tuple(PageEvent(p, 1.0) for p in ["home", "quote", "confirm"]),
    )
    vocab = build_vocab([session], min_freq=1)
    config = TrainConfig(
        epochs=300, batch_size=4, learning_rate=3e-3, seed=0, **TOY_TRAIN
    )
    model, report = train([session], config, vocab)
    inputs, targets = expand_session(session, vocab)
    total_nats = session_loss(model.forward_session(inputs), session, vocab)
    assert total_nats < 0.01
    # the fitted chain is reproduced step by step
    preds = model.forward_session(inputs)
    for p, t in zip(preds, targets):
        assert p.probs[t] > 0.99


def test_initial_loss_is_log_n(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, seed=9, **TOY_TRAIN)
    model = SequenceModel.build(config.model_config(), vocab, seed=9)
    _, loss = evaluate(model, ev, vocab)
    assert loss == pytest.approx(np.log(len(vocab)), rel=0.15)


def test_training_loss_non_increasing_early(trained):
    _, report, _ = trained
    losses = [e.train_loss for e in report.epochs[:3]]
    for a, b in zip(losses, losses[1:]):
        assert b <= a * 1.05


def test_learns_dominant_transitions(trained, chain_data):
    model, report, _ = trained
    _, ev, vocab = chain_data
    acc, loss = evaluate(model, ev, vocab)
    assert acc == report.final.eval_accuracy
    # dominant successor of "home" is "quote" with 0.6
    dist = predict_next(model, Prefix("car insurance", ("home",)))
    assert vocab.decode(int(dist.argmax())) == "quote"


def test_loss_is_permutation_sensitive(trained, chain_data):
    model, _, _ = trained
    _, ev, vocab = chain_data
    session = next(s for s in ev if len({e.page_name for e in s.events}) >= 3)
    inputs, _ = expand_session(session, vocab)
    original = session_loss(model.forward_session(inputs), session, vocab)
    shuffled = Session(
        session.session_id, session.keywords, tuple(reversed(session.events))
    )
    inputs2, _ = expand_session(shuffled, vocab)
    reordered = session_loss(model.forward_session(inputs2), shuffled, vocab)
    assert original != reordered


def test_evaluate_matches_bruteforce_recount(trained, chain_data):
    model, _, _ = trained
    _, ev, vocab = chain_data
    acc, _ = evaluate(model, ev, vocab)
    hits = total = 0
    for s in ev:
        inputs, targets = expand_session(s, vocab)
        preds = model.forward_session(inputs)
        for p, t in zip(preds, targets):
            hits += int(int(p.probs.argmax()) == t)
            total += 1
    assert acc == hits / total


def test_uniform_output_model_scores_at_chance():
    rng = np.random.default_rng(0)
    pages = [f"p{i}" for i in range(5)]
    # length == page count makes every reachable class (pages + NULL) appear
    # as a target equally often in expectation
    sessions = [
        Session(
            f"s{i}",
            "",
            tuple(PageEvent(pages[j], 1.0) for j in rng.integers(0, 5, size=5)),
        )
        for i in range(400)
    ]
    vocab = build_vocab(sessions, min_freq=1)
    config = TrainConfig(epochs=1, seed=1, **TOY_TRAIN)
    model = SequenceModel.build(config.model_config(), vocab, seed=1)
    model.w_out.data[...] = 0.0
    model.b_out.data[...] = 0.0
    acc, _ = evaluate(model, sessions, vocab)
    total_steps = 400 * 6
    chance = 1.0 / 6.0  # 5 pages + NULL are the reachable targets
    sigma = np.sqrt(chance * (1 - chance) / total_steps)
    assert abs(acc - chance) < 3 * sigma


def test_training_is_deterministic(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=2, batch_size=16, seed=7, dropout_rate=0.3, **{
        k: v for k, v in TOY_TRAIN.items() if k != "dropout_rate"
    })
    m1, r1 = train(tr, config, vocab, eval_sessions=ev)
    m2, r2 = train(tr, config, vocab, eval_sessions=ev)
    assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
    assert [e.eval_accuracy for e in r1.epochs] == [e.eval_accuracy for e in r2.epochs]
    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1.data, p2.data)


def test_train_rejects_eventless_sessions(chain_data):
    tr, _, vocab = chain_data
    config = TrainConfig(epochs=1, seed=0, **TOY_TRAIN)
    with pytest.raises(ConfigError, match="no page events"):
        train(tr + [Session("empty", "kw", ())], config, vocab)
    with pytest.raises(ConfigError, match="no training sessions"):
        train([], config, vocab)


def test_divergence_raises_training_error(chain_data, monkeypatch):
    tr, _, vocab = chain_data
    from journeynet import numerics as nm
    from journeynet import training as tr_mod

    def bad_loss(*args, **kwargs):
        return nm.Matrix._result(np.array([[np.inf]]))

    monkeypatch.setattr(tr_mod, "_batch_loss", bad_loss)
    config = TrainConfig(epochs=1, seed=0, **TOY_TRAIN)
    with pytest.raises(TrainingError) as exc:
        train(tr, config, vocab)
    assert exc.value.epoch == 0
    assert exc.value.batch == 0


def test_report_csv_shape(trained):
    _, report, config = trained
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,train_loss,eval_loss,eval_accuracy"
    assert len(lines) == config.epochs + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) > 0


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_of_one_is_bitwise_identical(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=2, batch_size=16, seed=5, **TOY_TRAIN)
    single, _ = train(tr, config, vocab, eval_sessions=ev)
    ensemble, _ = train_ensemble(tr, config, vocab, k=1, eval_sessions=ev)
    assert len(ensemble) == 1
    prefix = Prefix("car insurance", ("home", "quote"))
    assert np.array_equal(
        ensemble_predict(ensemble, prefix), predict_next(single, prefix)
    )


def test_ensemble_members_differ(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=5, **TOY_TRAIN)
    ensemble, _ = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    w0 = ensemble.models[0].w_out.data
    w1 = ensemble.models[1].w_out.data
    assert not np.array_equal(w0, w1)



def test_ensemble_step_is_member_mean_per_row(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=5, **TOY_TRAIN)
    ensemble, _ = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    states, _ = ensemble.start(Prefix("car insurance", ("home",)))
    rows, pages = [0, 0, 0], [vocab.encode("quote"), vocab.encode("home"), vocab.encode("confirm")]
    _, dists = ensemble.step(states, rows, pages)
    member = [m.step(s, rows, pages)[1] for m, s in zip(ensemble.models, states)]
    assert dists.shape == (3, len(vocab))
    assert np.array_equal(dists, np.mean(member, axis=0))

class _StubModel:
    """Fixed-output predictor for arithmetic checks."""

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)
        self.n_classes = len(self.dist)
        self.vocab = None

    def start(self, prefix):
        return None, self.dist.copy()

    def step(self, state, rows, pages):
        return None, np.tile(self.dist, (len(pages), 1))


def test_ensemble_mean_is_arithmetic():
    ensemble = Ensemble([_StubModel([0.2, 0.8]), _StubModel([0.6, 0.4])])
    out = ensemble_predict(ensemble, Prefix())
    assert np.allclose(out, [0.4, 0.6], atol=1e-15)


def test_ensemble_mean_is_valid_distribution():
    rng = np.random.default_rng(2)
    members = []
    for _ in range(5):
        raw = rng.uniform(0.05, 1.0, size=7)
        members.append(_StubModel(raw / raw.sum()))
    out = ensemble_predict(Ensemble(members), Prefix())
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out >= 0)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        Ensemble([])


def test_ensemble_checkpoint_roundtrip(tmp_path, chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=2, **TOY_TRAIN)
    ensemble, _ = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    path = tmp_path / "ensemble.ckpt"
    save_ensemble(ensemble, path)
    loaded = load_predictor(path)
    assert isinstance(loaded, Ensemble)
    prefix = Prefix("car insurance", ("home",))
    assert np.array_equal(
        ensemble_predict(loaded, prefix), ensemble_predict(ensemble, prefix)
    )


def test_evaluate_accepts_ensemble(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=2, **TOY_TRAIN)
    ensemble, _ = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    acc, loss = evaluate(ensemble, ev, vocab)
    assert 0.0 <= acc <= 1.0
    assert loss > 0


# ---------------------------------------------------------------------------
# mixed precision: float32 batches over float64 master weights


def _float_dtypes(params):
    return {p.data.dtype for p in params}


def test_training_batches_run_in_float32_and_masters_stay_float64(chain_data, monkeypatch, tmp_path):
    from journeynet import numerics as nm
    from journeynet.seqmodel import load_model, save_model

    tr, ev, vocab = chain_data
    seen = []
    original = nm.backward

    def checking_backward(tape, loss):
        params = {id(m): m for node in tape._nodes for m in node.inputs if m.trainable}
        seen.append((
            {n.output.data.dtype for n in tape._nodes if n.output.shape != (1, 1)},
            _float_dtypes(params.values()),
            len(params),
        ))
        original(tape, loss)
        seen.append({p.grad.dtype for p in params.values()})

    monkeypatch.setattr(nm, "backward", checking_backward)
    config = TrainConfig(epochs=1, batch_size=4, seed=2)  # the paper's architecture
    model, _ = train(tr[:8], config, vocab, eval_sessions=ev[:4])
    assert len(seen) == 4  # two batches, before and after backward
    for outputs, weights, n_params in seen[0::2]:
        assert outputs == {np.dtype(np.float32)}
        assert weights == {np.dtype(np.float32)}
        assert n_params == len(model.parameters())
    assert seen[1::2] == [{np.dtype(np.float32)}] * 2
    assert _float_dtypes(p for _, p in model.parameters()) == {np.dtype(np.float64)}

    path = tmp_path / "model.ckpt"
    save_model(model, path)
    for (_, p), (_, q) in zip(model.parameters(), load_model(path).parameters()):
        assert q.data.dtype == np.float64 and np.array_equal(p.data, q.data)


def test_training_error_mid_batch_restores_float64_masters(chain_data, monkeypatch):
    from journeynet import numerics as nm
    from journeynet import training as tr_mod

    tr, _, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=8, seed=4, **TOY_TRAIN)
    models = []
    real_loss = tr_mod._batch_loss

    def diverging_loss(model, *args):
        models.append(model)
        assert _float_dtypes(p for _, p in model.parameters()) == {np.dtype(np.float32)}
        total = real_loss(model, *args)
        return nm.scale(total, np.inf)

    monkeypatch.setattr(tr_mod, "_batch_loss", diverging_loss)
    with pytest.raises(TrainingError):
        train(tr, config, vocab)
    fresh = SequenceModel.build(config.model_config(), vocab, config.seed)
    for (_, p), (_, q) in zip(models[0].parameters(), fresh.parameters()):
        assert p.data.dtype == np.float64 and np.array_equal(p.data, q.data)


def test_float32_batch_gradient_matches_float64(chain_data):
    from journeynet import numerics as nm
    from journeynet import rng as rngmod
    from journeynet.training import (
        COMPUTE_DTYPE,
        _batch_loss,
        _batch_tensors,
        _compute_copies,
        _expand_all,
    )

    tr, _, vocab = chain_data
    config = TrainConfig(seed=5)  # the paper's architecture, dropout 0.5
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    params = [p for _, p in model.parameters()]
    expanded = _expand_all(tr[:6], vocab, config.unit_seconds, config.dwell_cap)
    assert len({len(e.inputs) for e in expanded}) > 1  # ragged
    batch = _batch_tensors(expanded, range(6))

    def grads():
        with nm.ComputeTape() as tape:
            loss = _batch_loss(model, *batch, rngmod.stream(0, "dropout"))
        nm.backward(tape, loss)
        out = [p.grad.astype(np.float64) for p in params]
        nm.zero_gradients(params)
        return out

    g64 = grads()
    with _compute_copies(params, [np.empty(p.shape, dtype=COMPUTE_DTYPE) for p in params]):
        g32 = grads()
    for (name, _), a, b in zip(model.parameters(), g32, g64):
        assert np.linalg.norm(a - b) <= 1e-3 * np.linalg.norm(b), name


def _reference_step(params, sq, lr, clip, decay, eps):
    """The optimizer step as first written, with a temporary per operation."""
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if norm > clip:
        factor = clip / norm
        grads = [g * factor for g in grads]
    for p, g, v in zip(params, grads, sq):
        v *= decay
        v += (1.0 - decay) * g * g
        p.data -= lr * g / (np.sqrt(v) + eps)


@pytest.mark.parametrize("clip", [1e-3, 1e6], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("missing", [None, 1], ids=["all-grads", "one-missing"])
def test_adaptive_step_is_bitwise_the_reference_formula(clip, missing):
    from journeynet import numerics as nm
    from journeynet.training import RMS_DECAY, RMS_EPSILON, _AdaptiveStep

    rng = np.random.default_rng(9)
    shapes = [(7, 5), (1, 5), (33, 20)]
    mine = [nm.parameter(rng.standard_normal(s)) for s in shapes]
    ref = [nm.parameter(p.data) for p in mine]
    config = TrainConfig(learning_rate=3e-3, gradient_clip_norm=clip, **TOY_TRAIN)
    opt = _AdaptiveStep(mine, config)
    ref_sq = [np.zeros(s) for s in shapes]
    for _ in range(4):
        for i, (p, q) in enumerate(zip(mine, ref)):
            g = None if i == missing else rng.standard_normal(p.shape)
            p.grad, q.grad = g, None if g is None else g.copy()
        opt.step()
        _reference_step(ref, ref_sq, config.learning_rate, clip, RMS_DECAY, RMS_EPSILON)
        for p, q in zip(mine, ref):
            assert (p.grad is None) == (q.grad is None)
            if p.grad is not None:
                assert np.array_equal(p.grad, q.grad)  # the step left its input alone
            assert np.array_equal(p.data, q.data)
        for v, w in zip(opt.sq, ref_sq):
            assert np.array_equal(v, w)
