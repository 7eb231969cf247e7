import copy
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from journeynet.errors import ConfigError, TrainingError
from journeynet.journeydata import (
    MarkovSpec,
    PageEvent,
    PageVocabulary,
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
    dict(conv_stages=((0, 4, 4),)),
    dict(conv_stages=((3, 4),)),
    dict(max_len=0),
    dict(fc_width=0),
    dict(dropout_rate=1.0),
    dict(dropout_rate=-0.1),
    dict(alphabet="aa"),
    dict(alphabet=""),
    dict(alphabet=123),
    dict(alphabet=None),
    dict(alphabet=["a", "b"]),
    dict(epochs=0),
    dict(batch_size=0),
    dict(learning_rate=0.0),
    dict(learning_rate=float("nan")),
    dict(gradient_clip_norm=0.0),
    dict(gradient_clip_norm=float("nan")),
    dict(learning_rate=float("inf")),
    dict(epochs=2.5),  # each field of a run is an int, or an int or float, and no bool
    dict(epochs=True),
    dict(batch_size="4"),
    dict(seed=1.5),
    dict(seed="7"),
    dict(learning_rate="0.1"),
    dict(learning_rate=True),
    dict(gradient_clip_norm=None),
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


def test_train_rejects_an_empty_held_out_set_before_the_first_batch(chain_data, monkeypatch):
    from journeynet import training as tr_mod

    tr, _, vocab = chain_data
    calls = []
    batch_loss = tr_mod._batch_loss

    def counting_batch_loss(*args):
        calls.append(1)
        return batch_loss(*args)

    monkeypatch.setattr(tr_mod, "_batch_loss", counting_batch_loss)
    config = TrainConfig(epochs=1, batch_size=16, seed=0, **TOY_TRAIN)
    with pytest.raises(ConfigError, match="no sessions to evaluate"):
        train(tr, config, vocab, eval_sessions=[])
    assert calls == []


@pytest.mark.parametrize("call, name", [
    ("train", "sessions"),
    ("train", "eval_sessions"),
    ("train_ensemble", "eval_sessions"),
    ("evaluate", "sessions"),
])
def test_sessions_that_are_not_iterable_are_a_config_error_naming_the_argument(chain_data, call, name):
    # each used to end in "TypeError: 'int' object is not iterable"
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=0, **TOY_TRAIN)
    model = SequenceModel.build(config.model_config(), vocab, seed=0)
    calls = {
        "train": lambda **kw: train(**{"sessions": tr, "config": config, "vocab": vocab, **kw}),
        "train_ensemble": lambda **kw: train_ensemble(tr, config, vocab, k=1, **kw),
        "evaluate": lambda **kw: evaluate(model, vocab=vocab, **kw),
    }
    with pytest.raises(ConfigError, match=f"^{name} must be an ordered iterable, not a string, set or mapping, got 5$"):
        calls[call](**{name: 5})


def test_a_set_of_sessions_is_refused_as_its_order_would_follow_the_hash_seed(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=0, **TOY_TRAIN)
    model = SequenceModel.build(config.model_config(), vocab, seed=0)
    with pytest.raises(ConfigError, match="^sessions must be an ordered iterable"):
        train(set(tr), config, vocab)
    with pytest.raises(ConfigError, match="^eval_sessions must be an ordered iterable"):
        train_ensemble(tr, config, vocab, k=1, eval_sessions=frozenset(ev))
    with pytest.raises(ConfigError, match="^sessions must be an ordered iterable"):
        evaluate(model, set(ev), vocab)


def test_each_epochs_report_is_a_standalone_evaluate_of_that_epochs_weights(chain_data, monkeypatch):
    from journeynet import training as tr_mod

    tr, ev, vocab = chain_data
    snapshots = []
    evaluate_ = tr_mod.evaluate

    def snapshotting_evaluate(predictor, sessions, vocab_):
        # train hands over the held-out sessions themselves, once per epoch
        assert list(sessions) == ev and vocab_ is vocab
        snapshots.append(copy.deepcopy(predictor))
        return evaluate_(predictor, sessions, vocab_)

    monkeypatch.setattr(tr_mod, "evaluate", snapshotting_evaluate)
    config = TrainConfig(epochs=3, batch_size=16, seed=4, **{**TOY_TRAIN, "dropout_rate": 0.2})
    # a one-shot iterator: every epoch still scores every held-out session
    _, report = train(tr, config, vocab, eval_sessions=iter(ev))
    assert len(snapshots) == config.epochs
    for stats, snapshot in zip(report.epochs, snapshots):
        assert (stats.eval_accuracy, stats.eval_loss) == evaluate(snapshot, ev, vocab)


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


def test_train_runs_one_helper_thread_and_leaves_none_running(chain_data, monkeypatch):
    from journeynet import numerics as nm
    from journeynet import training as tr_mod

    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=0, **TOY_TRAIN)
    before, during = threading.active_count(), []
    real_loss = tr_mod._batch_loss

    def counting_loss(*args):
        during.append(threading.active_count())
        return real_loss(*args)

    monkeypatch.setattr(tr_mod, "_batch_loss", counting_loss)
    train(tr, config, vocab, eval_sessions=ev[:4])
    assert max(during) == before + 1 and threading.active_count() == before

    def diverging_loss(*args):
        during.append(threading.active_count())
        return nm.scale(real_loss(*args), np.inf) if len(during) > 2 else real_loss(*args)

    during.clear()
    monkeypatch.setattr(tr_mod, "_batch_loss", diverging_loss)
    with pytest.raises(TrainingError):
        train(tr, config, vocab)
    assert max(during) == before + 1 and threading.active_count() == before


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


@pytest.mark.parametrize("k", [True, 2.5, "2"])
def test_ensemble_size_must_be_an_int_of_at_least_one(chain_data, k):
    # no bool that counts as one member, and no float or string left for range() to reject
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=5, **TOY_TRAIN)
    with pytest.raises(ConfigError, match="ensemble size must be an int >= 1"):
        train_ensemble(tr, config, vocab, k=k, eval_sessions=ev)


def test_ensemble_trained_from_iterators_is_bitwise_the_list_trained_one(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=5, **TOY_TRAIN)
    listed, listed_reports = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    iterated, iterated_reports = train_ensemble(iter(tr), config, vocab, k=2, eval_sessions=iter(ev))
    assert [r.to_csv() for r in iterated_reports] == [r.to_csv() for r in listed_reports]
    for m1, m2 in zip(listed.models, iterated.models):
        for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes()


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
    states, _ = ensemble.start([Prefix("car insurance", ("home",))])
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
        # NULL and UNKNOWN take the last two classes; an ensemble's members share one vocabulary
        self.vocab = PageVocabulary([f"page{i}" for i in range(self.n_classes - 2)], min_freq=1)

    def start(self, prefixes):
        return None, np.tile(self.dist, (len(prefixes), 1))

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


def test_evaluate_rejects_a_vocabulary_other_than_the_predictors(trained, chain_data):
    model, _, _ = trained
    tr, ev, vocab = chain_data
    other = build_vocab(tr[:5], min_freq=1)
    # the same pages in another order: encoding targets with it would score the wrong classes
    assert len(other) == len(vocab) and other.page_names != vocab.page_names
    with pytest.raises(ConfigError, match="vocabulary"):
        evaluate(model, ev, other)
    # an equal vocabulary of another object is the predictor's
    assert evaluate(model, ev, PageVocabulary.from_dict(vocab.to_dict())) == evaluate(model, ev, vocab)


def test_evaluate_accepts_ensemble(chain_data):
    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=16, seed=2, **TOY_TRAIN)
    ensemble, _ = train_ensemble(tr, config, vocab, k=2, eval_sessions=ev)
    acc, loss = evaluate(ensemble, ev, vocab)
    assert 0.0 <= acc <= 1.0
    assert loss > 0


# ---------------------------------------------------------------------------
# evaluate's prefix tree against a padded pass over each session


def padded_evaluate(predictor, sessions, vocab):
    """`evaluate` as a padded pass over each batch of one session: every session's
    whole sequence runs alone, an ensemble's distributions are the member mean of
    each pass, and each step's target probability and argmax hit are pooled in
    the order of the sorted (inputs, targets) pairs."""
    from journeynet import numerics as nm
    from journeynet.seqmodel import padded_batch

    members = predictor.models if isinstance(predictor, Ensemble) else [predictor]
    probs, hits = [], []
    for inputs, targets in sorted(expand_session(s, vocab) for s in sessions):
        phrases, rowidx, _ = padded_batch([inputs])
        dist = np.mean([m.batch_step_probs(phrases, rowidx).data for m in members], axis=0)
        probs.append(dist[np.arange(len(targets)), targets])
        hits.append(dist.argmax(axis=1) == targets)
    prob, hit = np.concatenate(probs), np.concatenate(hits)
    return float(hit.mean()), float(-np.log(np.maximum(prob, nm.PROB_FLOOR)).mean())


def _journey(sid, keywords, pages, dwell=4.0):
    return Session(sid, keywords, tuple(PageEvent(p, dwell) for p in pages))


def held_out_sets(ev):
    """Held-out sets whose prefix trees share, repeat and end prefixes in every way evaluate meets."""
    return {
        "two-identical": [_journey("a", "car insurance", ("home", "quote"))] * 2,
        "strict-prefix": [
            _journey("a", "car insurance", ("home", "quote", "confirm", "home")),
            _journey("b", "car insurance", ("home", "quote")),
        ],
        # 95 s and 200 s of dwell give 4 and 5 (the cap) copies of a page
        "long-dwell": [
            Session("a", "car insurance", (PageEvent("home", 95.0), PageEvent("quote", 4.0))),
            Session("b", "car insurance", (PageEvent("home", 200.0), PageEvent("confirm", 31.0))),
            _journey("c", "car insurance", ("home", "home", "home", "quote")),
        ],
        "empty-keywords": [_journey("a", "", ("quote", "home")), _journey("b", "", ("quote", "confirm"))],
        "single": [_journey("a", "insurance quote online", ("quote", "confirm", "help-page"))],
        "many-mixed": list(ev),
    }


@pytest.fixture(scope="module")
def predictors(chain_data, trained):
    """A trained one-layer model, a built two-layer model and a two-member two-layer ensemble."""
    _, _, vocab = chain_data
    config = ModelConfig(**{**TOY_TRAIN, "lstm_hidden": (12, 8)})
    members = [SequenceModel.build(config, vocab, seed) for seed in (31, 32)]
    for model in members:  # off the zero biases of a fresh build, so rows differ and ties are rare
        gen = np.random.default_rng(model.w_out.data.size)
        for _, w in model.parameters():
            w.data = w.data + gen.normal(scale=0.3, size=w.shape)
    return {"trained": trained[0], "two-layer": members[0], "ensemble": Ensemble(members)}


@pytest.mark.parametrize("which", ["trained", "two-layer", "ensemble"])
@pytest.mark.parametrize("held", ["two-identical", "strict-prefix", "long-dwell", "empty-keywords", "single",
                                  "many-mixed"])
def test_evaluate_is_bitwise_a_padded_pass_over_each_batch(chain_data, predictors, which, held):
    _, ev, vocab = chain_data
    sessions = held_out_sets(ev)[held]
    assert evaluate(predictors[which], sessions, vocab) == padded_evaluate(predictors[which], sessions, vocab)


@pytest.mark.parametrize("which", ["trained", "two-layer", "ensemble"])
def test_evaluate_does_not_depend_on_the_order_of_the_held_out_sessions(chain_data, predictors, which):
    _, ev, vocab = chain_data
    sessions = held_out_sets(ev)["many-mixed"]
    shuffled = [sessions[i] for i in np.random.default_rng(49).permutation(len(sessions))]
    want = evaluate(predictors[which], sessions, vocab)
    assert evaluate(predictors[which], shuffled, vocab) == want
    assert evaluate(predictors[which], sessions[::-1], vocab) == want


def test_the_held_out_sets_share_what_their_names_say(chain_data):
    _, ev, vocab = chain_data
    sets = {name: [expand_session(s, vocab)[0] for s in sessions] for name, sessions in held_out_sets(ev).items()}
    assert sets["two-identical"][0] == sets["two-identical"][1]
    longer, shorter = sets["strict-prefix"]
    assert longer[:len(shorter)] == shorter and len(shorter) < len(longer)
    assert [len(inputs) for inputs in sets["long-dwell"]] == [6, 8, 5]
    assert all(inputs[0] == "" for inputs in sets["empty-keywords"])
    assert len(sets["single"]) == 1
    lengths = {len(inputs) for inputs in sets["many-mixed"]}
    assert len(sets["many-mixed"]) > 16 and len(lengths) > 3


@pytest.mark.parametrize("rows, phrases", [(1, 1), (2, 3), (5, 16)])
def test_evaluate_in_passes_of_a_smaller_bound_gives_the_same_bits(chain_data, predictors, monkeypatch, rows, phrases):
    import journeynet.seqmodel as sm_mod
    import journeynet.training as tr_mod

    _, ev, vocab = chain_data
    sessions = held_out_sets(ev)["many-mixed"]
    want = {which: evaluate(p, sessions, vocab) for which, p in predictors.items()}
    passes = []
    cell_steps = SequenceModel.cell_steps

    def noting(self, xproj, state, rows_=None):
        passes.append(len(rows_))
        return cell_steps(self, xproj, state, rows_)

    monkeypatch.setattr(tr_mod, "EVAL_ROWS", rows)
    monkeypatch.setattr(sm_mod, "MAX_PASS_PHRASES", phrases)
    monkeypatch.setattr(SequenceModel, "cell_steps", noting)
    for which, predictor in predictors.items():
        assert evaluate(predictor, sessions, vocab) == want[which]
    assert max(passes) == rows


def test_evaluate_steps_each_distinct_input_prefix_once(chain_data, trained, monkeypatch):
    _, ev, vocab = chain_data
    model = trained[0]
    sessions = [*ev, *held_out_sets(ev)["strict-prefix"], *ev[:5]]
    rows = []
    cell_steps = SequenceModel.cell_steps

    def counting(self, xproj, state, rows_=None):
        rows.append(len(rows_))
        return cell_steps(self, xproj, state, rows_)

    monkeypatch.setattr(SequenceModel, "cell_steps", counting)
    evaluate(model, sessions, vocab)
    inputs = [expand_session(s, vocab)[0] for s in sessions]
    prefixes = {tuple(seq[:t + 1]) for seq in inputs for t in range(len(seq))}
    assert sum(rows) == len(prefixes) < sum(map(len, inputs))
    assert len(rows) == max(map(len, inputs))  # one pass per depth


def test_no_cnn_pass_of_a_start_or_of_evaluate_holds_more_phrases_than_the_bound(monkeypatch):
    # no tape is active, so every pass here is untaped: the page table of 40
    # names, a first start's 20 new keyword phrases and evaluate's 38 keyword
    # phrases and 38 pages go through the CNN MAX_PASS_PHRASES at a time
    from journeynet import seqmodel
    from journeynet.textenc import CnnEncoder

    pages = [f"page-{i:02d}" for i in range(38)]
    vocab = PageVocabulary(pages, min_freq=1)
    assert len(vocab) == 40
    model = SequenceModel.build(ModelConfig(**TOY_TRAIN), vocab, 40)
    passes = []
    embed_batch = CnnEncoder.embed_batch

    def noting(self, phrases):
        passes.append(len(phrases))
        return embed_batch(self, phrases)

    monkeypatch.setattr(CnnEncoder, "embed_batch", noting)
    model.start([Prefix(f"keyword {i}", pages[i:i + 3]) for i in range(20)])
    assert sum(passes) == 40 + 20 and max(passes) <= seqmodel.MAX_PASS_PHRASES
    passes.clear()
    evaluate(model, [_journey(f"s{i}", f"keyword {i}", pages[i:] + pages[:i]) for i in range(38)], vocab)
    assert sum(passes) == 38 + 38 and max(passes) <= seqmodel.MAX_PASS_PHRASES


def test_evaluate_memory_barely_grows_with_the_held_out_set(chain_data):
    # a keyword phrase of its own makes each session a root of the prefix tree,
    # so the tree's widest depth is the held-out set; EVAL_ROWS bounds the
    # rows held at once, and only the per-step results grow with the set
    import dataclasses
    import tracemalloc

    _, _, vocab = chain_data
    model = SequenceModel.build(ModelConfig(**{**TOY_TRAIN, "lstm_hidden": (64, 64)}), vocab, 5)
    held = [dataclasses.replace(s, keywords=f"{s.keywords} {i}")
            for i, s in enumerate(generate_synthetic(small_chain(), 2000, seed=12))]

    def peak(n):
        tracemalloc.start()
        try:
            evaluate(model, held[:n], vocab)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < 2 * peak(250)


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
        params = {id(m): m for m in tape.leaves}
        operands = {id(m) for node in tape._nodes for m in node.inputs}
        seen.append((
            {n.output.data.dtype for n in tape._nodes if n.output.shape != (1, 1)},
            _float_dtypes(params.values()),
            len(params.keys() & operands),  # the watched weights the batch used
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


def test_every_step_column_of_a_batch_mask_has_a_live_row():
    # evaluate pools each step column over its live rows and never meets an empty one
    from journeynet.training import _batch_tensors

    gen = np.random.default_rng(11)
    for _ in range(200):
        lengths = gen.integers(1, 40, size=gen.integers(1, 20))
        expanded = [([f"p{k}" for k in gen.integers(0, 5, size=n)], [0] * n) for n in lengths]
        _, rowidx, _, mask = _batch_tensors(expanded, gen.permutation(len(expanded)).tolist())
        assert rowidx.shape[1] == mask.shape[1] == lengths.max()
        assert (mask > 0).any(axis=0).all()


def test_paper_config_batch_records_14_tape_nodes_and_train_adds_the_mean(chain_data, monkeypatch):
    from journeynet import numerics as nm
    from journeynet import rng as rngmod
    from journeynet.training import _batch_loss, _batch_tensors

    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=4, seed=2)  # the paper's architecture
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    batch = _batch_tensors([expand_session(s, vocab) for s in tr[:4]], range(4))
    with nm.ComputeTape(p for _, p in model.parameters()) as tape:
        _batch_loss(model, *batch, rngmod.stream(0, "dropout"))
    assert len(tape) == 14
    sizes = []
    original = nm.backward

    def counting_backward(tape, loss):
        sizes.append(len(tape))
        original(tape, loss)

    monkeypatch.setattr(nm, "backward", counting_backward)
    train(tr[:8], config, vocab, eval_sessions=ev[:4])
    assert sizes == [15, 15]  # and `scale` to the batch mean


def test_slot_reentered_tape_gives_long_short_long_batches_a_fresh_tapes_gradients(chain_data):
    from journeynet import numerics as nm
    from journeynet.training import _batch_loss, _batch_tensors

    tr, _, vocab = chain_data
    config = TrainConfig(seed=2)  # the paper's architecture, with dropout
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    twin = model.cast()
    leaves = [p for _, p in twin.parameters()]
    expanded = [expand_session(s, vocab) for s in tr]
    by_len = sorted(range(len(expanded)), key=lambda i: len(expanded[i][0]))
    batches = [_batch_tensors(expanded, idx) for idx in (by_len[-8:-4], by_len[:4], by_len[-4:])]
    steps = [rowidx.shape[1] for _, rowidx, _, _ in batches]
    assert steps[1] < steps[0] < steps[2]  # the last batch grows every slot

    def gradients(tape, bi, batch):
        with tape:
            loss = _batch_loss(twin, *batch, np.random.default_rng(bi))
        nm.backward(tape, loss)
        grads = [p.grad.tobytes() for p in leaves]
        for p in leaves:
            p.grad = None
        return grads

    fresh = [gradients(nm.ComputeTape(leaves), bi, batch) for bi, batch in enumerate(batches)]
    tape = nm.ComputeTape(leaves)
    assert [gradients(tape, bi, batch) for bi, batch in enumerate(batches)] == fresh
    # a helper runs the leaf-gradient products and changes no bit
    with ThreadPoolExecutor(max_workers=1) as helper:
        tape = nm.ComputeTape(leaves, helper)
        assert [gradients(tape, bi, batch) for bi, batch in enumerate(batches)] == fresh


def _built_models(monkeypatch):
    """Every model `SequenceModel.build` returns from now on, with its weight arrays as built."""
    built = []
    original = SequenceModel.build.__func__

    def recording(cls, *args):
        model = original(cls, *args)
        built.append((model, [p.data for _, p in model.parameters()]))
        return model

    monkeypatch.setattr(SequenceModel, "build", classmethod(recording))
    return built


def test_training_batch_loss_runs_a_float32_twin_and_the_model_keeps_its_float64_arrays(chain_data, monkeypatch):
    from journeynet import training as tr_mod

    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=2, batch_size=8, seed=4, **TOY_TRAIN)
    built, twins = _built_models(monkeypatch), []
    real_loss = tr_mod._batch_loss

    def recording_loss(model, *args):
        twins.append(model)
        return real_loss(model, *args)

    monkeypatch.setattr(tr_mod, "_batch_loss", recording_loss)
    model, _ = train(tr, config, vocab, eval_sessions=ev[:4])
    [(first, arrays)] = built
    assert first is model and len(twins) > 2 and len({id(t) for t in twins}) == 1
    assert twins[0] is not model
    assert _float_dtypes(p for _, p in twins[0].parameters()) == {np.dtype(np.float32)}
    assert all(p.data is a and a.dtype == np.float64 for (_, p), a in zip(model.parameters(), arrays))
    assert all(p.grad is None for _, p in model.parameters())


def test_compute_copy_after_training_holds_the_bits_the_optimizer_last_wrote_into_the_twin(chain_data, monkeypatch):
    # one cast builds the model that trains and the model that serves
    from journeynet.seqmodel import COMPUTE_DTYPE

    tr, ev, vocab = chain_data
    config = TrainConfig(epochs=2, batch_size=8, seed=4, **TOY_TRAIN)
    casts, original = [], SequenceModel.cast

    def recording(self):
        casts.append(original(self))
        return casts[-1]

    monkeypatch.setattr(SequenceModel, "cast", recording)
    model, _ = train(tr, config, vocab, eval_sessions=ev[:4])
    [twin] = casts
    copy = model.compute_copy()
    assert casts == [twin, copy]
    for (name, p), (_, t), (_, c) in zip(model.parameters(), twin.parameters(), copy.parameters()):
        assert c.data.dtype == t.data.dtype == COMPUTE_DTYPE, name
        assert c.data.tobytes() == t.data.tobytes() and not np.shares_memory(c.data, t.data), name
        assert np.array_equal(c.data, p.data.astype(COMPUTE_DTYPE)), name


def test_training_error_mid_batch_leaves_the_float64_masters_in_place(chain_data, monkeypatch):
    from journeynet import numerics as nm
    from journeynet import training as tr_mod

    tr, _, vocab = chain_data
    config = TrainConfig(epochs=1, batch_size=8, seed=4, **TOY_TRAIN)
    built, twins = _built_models(monkeypatch), []
    real_loss = tr_mod._batch_loss

    def diverging_loss(model, *args):
        twins.append(model)
        assert _float_dtypes(p for _, p in model.parameters()) == {np.dtype(np.float32)}
        total = real_loss(model, *args)
        return nm.scale(total, np.inf)

    monkeypatch.setattr(tr_mod, "_batch_loss", diverging_loss)
    with pytest.raises(TrainingError):
        train(tr, config, vocab)
    [(model, arrays)] = built
    assert twins == [twins[0]] and twins[0] is not model
    fresh = SequenceModel.build(config.model_config(), vocab, config.seed)
    for (_, p), a, (_, q) in zip(model.parameters(), arrays, fresh.parameters()):
        assert p.data is a and p.data.dtype == np.float64 and np.array_equal(p.data, q.data)


def test_float32_batch_gradient_matches_float64(chain_data):
    from journeynet import numerics as nm
    from journeynet import rng as rngmod
    from journeynet.training import _batch_loss, _batch_tensors

    tr, _, vocab = chain_data
    config = TrainConfig(seed=5)  # the paper's architecture, dropout 0.5
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    twin = model.cast()
    expanded = [expand_session(s, vocab) for s in tr[:6]]
    assert len({len(inputs) for inputs, _ in expanded}) > 1  # ragged
    batch = _batch_tensors(expanded, range(6))

    def grads(m):
        params = [p for _, p in m.parameters()]
        with nm.ComputeTape(params) as tape:
            loss = _batch_loss(m, *batch, rngmod.stream(0, "dropout"))
        nm.backward(tape, loss)
        out = [p.grad.astype(np.float64) for p in params]
        for p in params:
            p.grad = None
        return out

    g64, g32 = grads(model), grads(twin)
    for (name, _), a, b in zip(model.parameters(), g32, g64):
        assert np.linalg.norm(a - b) <= 1e-3 * np.linalg.norm(b), name


@pytest.mark.parametrize("case", ["paper", "one-event"])
def test_one_batch_loss_gives_every_weight_of_the_training_graph_a_gradient(chain_data, case):
    # the optimizer reads every weight's gradient after each batch
    from journeynet import numerics as nm
    from journeynet import rng as rngmod
    from journeynet.training import _batch_loss, _batch_tensors

    tr, _, vocab = chain_data
    if case == "paper":
        config, sessions = TrainConfig(seed=5), tr[:6]  # dropout 0.5
    else:  # a batch of one single-step session, two LSTM layers
        config = TrainConfig(seed=5, **{**TOY_TRAIN, "lstm_hidden": (16, 8)})
        sessions = [Session("s", "", (PageEvent("home", 1.0),))]
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    batch = _batch_tensors([expand_session(s, vocab) for s in sessions], range(len(sessions)))
    params = [p for _, p in model.parameters()]
    with nm.ComputeTape(params) as tape:
        loss = _batch_loss(model, *batch, rngmod.stream(0, "dropout"))
    nm.backward(tape, loss)
    missing = [name for name, p in model.parameters() if p.grad is None]
    assert not missing


def _reference_step(params, sq, lr, clip, decay, eps):
    """The optimizer step as first written, with a temporary per operation."""
    grads = [p.grad for p in params]
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if norm > clip:
        factor = clip / norm
        grads = [g * factor for g in grads]
    for p, g, v in zip(params, grads, sq):
        v *= decay
        v += (1.0 - decay) * g * g
        p.data -= lr * g / (np.sqrt(v) + eps)


@pytest.fixture
def helper():
    """A one-thread executor that runs one side of each optimizer step, as `train` gives one;
    meanwhile threads switch every microsecond, so the two sides, which write one list of
    sums, interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool
    finally:
        sys.setswitchinterval(interval)


# (shapes, the layout indices of each side's weights, in layout order)
SPLITS = {
    # odd sizes, the largest too, each side holding two
    "two-two": ([(7, 5), (1, 5), (33, 20), (9, 77)], ([1, 3], [0, 2])),
    # one large weight alone on the calling thread, every small one on the helper
    "one-many": ([(1, 5), (3, 7), (61, 99), (20, 33), (1, 1), (9, 77), (5, 5), (1, 40)], ([2], [0, 1, 3, 4, 5, 6, 7])),
}


@pytest.mark.parametrize("clip", [1e-3, 1e6], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("grad_dtype", [np.float64, np.float32], ids=["float64-grads", "float32-grads"])
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_adaptive_step_is_bitwise_the_reference_formula(clip, grad_dtype, split, helper):
    from journeynet import numerics as nm
    from journeynet.training import RMS_DECAY, RMS_EPSILON, _AdaptiveStep

    rng = np.random.default_rng(9)
    shapes, sides = SPLITS[split]
    mine = [nm.Matrix(rng.standard_normal(s)) for s in shapes]
    ref = [nm.Matrix(p.data) for p in mine]
    # the step reads the gradients from the twin and writes the twin
    twin = [nm.Matrix._result(p.data.astype(grad_dtype)) for p in mine]
    config = TrainConfig(learning_rate=3e-3, gradient_clip_norm=clip, **TOY_TRAIN)
    opt = _AdaptiveStep(mine, twin, config, helper)
    assert tuple(sorted(side) for side in opt.sides) == sides
    ref_sq = [np.zeros(s) for s in shapes]
    for _ in range(4):
        grads = [rng.standard_normal(s).astype(grad_dtype) for s in shapes]
        for d, q, g in zip(twin, ref, grads):
            # the reference formula runs in float64 on the gradients cast exactly
            d.grad, q.grad = g, g.astype(np.float64)
        opt.step()
        _reference_step(ref, ref_sq, config.learning_rate, clip, RMS_DECAY, RMS_EPSILON)
        for p, d, q, g in zip(mine, twin, ref, grads):
            assert p.grad is None and d.grad is None
            assert np.array_equal(g, q.grad)  # the step left its input alone
            assert np.array_equal(p.data, q.data)
            assert d.data.dtype == grad_dtype and np.array_equal(d.data, q.data.astype(grad_dtype))
        for v, w in zip(opt.sq, ref_sq):
            assert np.array_equal(v, w)


@pytest.mark.parametrize("clip", [1e-3, 1e6], ids=["clipped", "unclipped"])
def test_adaptive_step_views_of_other_shapes_share_its_scratch_bitwise(clip, helper):
    """The largest weight first, then a 1-row one: every weight's views of
    its side's scratch buffer start where that side's largest weight's did,
    and each side's largest runs in two chunks.  The largest is large enough
    that numpy lets the two sides of the update run at once."""
    from journeynet import numerics as nm
    from journeynet.training import RMS_DECAY, RMS_EPSILON, _AdaptiveStep

    rng = np.random.default_rng(10)
    shapes = [(300, 701), (1, 40), (7, 5), (20, 33), (33, 20), (1, 1)]
    mine = [nm.Matrix(rng.standard_normal(s)) for s in shapes]
    ref = [nm.Matrix(p.data) for p in mine]
    twin = [nm.Matrix._result(p.data.astype(np.float32)) for p in mine]
    config = TrainConfig(learning_rate=3e-3, gradient_clip_norm=clip, **TOY_TRAIN)
    opt = _AdaptiveStep(mine, twin, config, helper)
    ref_sq = [np.zeros(s) for s in shapes]
    for _ in range(4):
        grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        for d, q, g in zip(twin, ref, grads):
            d.grad, q.grad = g, g.astype(np.float64)
        opt.step()
        _reference_step(ref, ref_sq, config.learning_rate, clip, RMS_DECAY, RMS_EPSILON)
        for p, d, q, g, v, w in zip(mine, twin, ref, grads, opt.sq, ref_sq):
            assert d.grad is None and np.array_equal(g, q.grad)
            assert np.array_equal(p.data, q.data) and np.array_equal(v, w)
            assert np.array_equal(d.data, q.data.astype(np.float32))


def test_adaptive_step_writes_the_twin_as_the_cast_of_its_masters_and_clears_its_gradients(chain_data, helper):
    # after each step the next batch can run on the twin as it stands: no refresh, no gradient to clear
    from journeynet import numerics as nm
    from journeynet import rng as rngmod
    from journeynet.seqmodel import COMPUTE_DTYPE
    from journeynet.training import _AdaptiveStep, _batch_loss, _batch_tensors

    tr, _, vocab = chain_data
    config = TrainConfig(seed=3, learning_rate=0.05, **TOY_TRAIN)
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    twin = model.cast()
    params, leaves = [p for _, p in model.parameters()], [p for _, p in twin.parameters()]
    opt = _AdaptiveStep(params, leaves, config, helper)
    tape = nm.ComputeTape(leaves)
    expanded = [expand_session(s, vocab) for s in tr[:12]]
    for bi in range(3):
        batch = _batch_tensors(expanded, range(4 * bi, 4 * bi + 4))
        with tape:
            loss = _batch_loss(twin, *batch, rngmod.stream(0, "dropout", bi))
        nm.backward(tape, loss)
        before = [leaf.data.copy() for leaf in leaves]
        opt.step()
        assert not all(np.array_equal(b, leaf.data) for b, leaf in zip(before, leaves))
        for (name, p), leaf in zip(model.parameters(), leaves):
            assert leaf.grad is None, name
            assert leaf.data.dtype == COMPUTE_DTYPE, name
            assert np.array_equal(leaf.data, p.data.astype(COMPUTE_DTYPE)), name


def _float64_entries(obj) -> int:
    """Entries of every float64 array `obj` holds, through lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.size if obj.dtype == np.float64 else 0
    if isinstance(obj, (list, tuple)):
        return sum(_float64_entries(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_float64_entries(o) for o in obj.values())
    return 0


def test_adaptive_step_keeps_one_average_per_weight_and_one_scratch_buffer_per_thread(chain_data, helper):
    from journeynet.training import _AdaptiveStep

    _, _, vocab = chain_data
    config = TrainConfig()  # the paper's architecture
    model = SequenceModel.build(config.model_config(), vocab, 0)
    names, params = zip(*model.parameters())
    opt = _AdaptiveStep(list(params), list(params), config, helper)
    assert [names[k] for k in opt.sides[0]] == ["lstm0.wx", "lstm1.wh"]
    total = sum(p.data.size for p in params)
    largest = [max(params[k].data.size for k in side) for side in opt.sides]
    assert largest == [131_072, 65_536]  # lstm0.wx, and lstm0.wh or lstm1.wx
    assert _float64_entries(vars(opt)) == total + sum(largest)
