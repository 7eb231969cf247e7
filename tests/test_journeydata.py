import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet.errors import ConfigError, MarkovSpecError, ParseError, SchemaError
from journeynet.journeydata import (
    NULL_PAGE,
    UNKNOWN_PAGE,
    MarkovSpec,
    PageEvent,
    PageVocabulary,
    Session,
    build_vocab,
    expand_session,
    generate_synthetic,
    load_sessions,
    parse_log,
    replicate_dwell,
    save_sessions,
    serialize_session,
    split,
)


def make_session(pages, keywords="kw", dwell=1.0, sid="s1"):
    return Session(sid, keywords, tuple(PageEvent(p, dwell) for p in pages))


# ---------------------------------------------------------------------------
# parsing


def test_parse_empty_stream():
    assert parse_log(io.StringIO("")) == []


def test_parse_single_record():
    line = (
        '{"session_id": "a", "keywords": "car insurance",'
        ' "events": [{"page": "home", "dwell_seconds": 3},'
        ' {"page": "quote", "dwell_seconds": 40.5},'
        ' {"page": "done", "dwell_seconds": 0}]}'
    )
    sessions = parse_log(io.StringIO(line + "\n"))
    assert len(sessions) == 1
    s = sessions[0]
    assert s.session_id == "a"
    assert s.keywords == "car insurance"
    assert [ev.page_name for ev in s.events] == ["home", "quote", "done"]
    assert s.events[1].dwell_seconds == 40.5


def test_parse_skips_blank_lines():
    line = '{"session_id": "a", "keywords": "", "events": []}'
    sessions = parse_log(io.StringIO("\n" + line + "\n\n  \n" + line + "\n"))
    assert len(sessions) == 2


def test_parse_error_carries_line_number():
    good = '{"session_id": "a", "keywords": "", "events": []}'
    with pytest.raises(ParseError) as exc:
        parse_log(io.StringIO(good + "\n{broken\n"))
    assert exc.value.line_no == 2


def test_missing_field_is_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_log(io.StringIO('{"session_id": "a", "events": []}'))
    assert "keywords" in str(exc.value)
    assert exc.value.line_no == 1


def test_negative_dwell_is_schema_error():
    line = '{"session_id": "a", "keywords": "", "events": [{"page": "p", "dwell_seconds": -1}]}'
    with pytest.raises(SchemaError) as exc:
        parse_log(io.StringIO(line))
    assert exc.value.line_no == 1


def test_page_event_invariants():
    with pytest.raises(ValueError):
        PageEvent("", 1.0)
    with pytest.raises(ValueError):
        PageEvent("p", -0.5)


session_strategy = st.builds(
    make_session,
    pages=st.lists(st.text(min_size=1, max_size=12), min_size=0, max_size=5),
    keywords=st.text(max_size=20),
    dwell=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    sid=st.text(min_size=1, max_size=8),
)


@given(st.lists(session_strategy, max_size=6))
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(sessions):
    text = "".join(serialize_session(s) + "\n" for s in sessions)
    assert parse_log(io.StringIO(text)) == sessions


def test_file_roundtrip(tmp_path):
    sessions = [make_session(["home", "quote"], sid="x"), make_session([], sid="y")]
    path = tmp_path / "log.jsonl"
    save_sessions(sessions, path)
    assert load_sessions(path) == sessions


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_minimal_corpus():
    vocab = build_vocab([make_session(["home"])], min_freq=1)
    assert len(vocab) == 3
    assert vocab.page_names == ("home", NULL_PAGE, UNKNOWN_PAGE)
    assert vocab.encode("home") == 0
    assert vocab.encode(NULL_PAGE) == vocab.null_index == 1
    assert vocab.encode("never-seen") == vocab.unknown_index == 2


def test_vocab_threshold_boundary():
    sessions = [make_session(["rare"] * 4 + ["common"] * 5)]
    vocab = build_vocab(sessions, min_freq=5)
    assert "common" in vocab
    assert vocab.encode("rare") == vocab.unknown_index


def test_vocab_orders_by_frequency_then_name():
    sessions = [make_session(["b", "b", "a", "a", "c", "c", "c"])]
    vocab = build_vocab(sessions, min_freq=1)
    assert vocab.page_names[:3] == ("c", "a", "b")


def test_vocab_encode_decode_identity():
    sessions = [make_session(["home", "quote", "quote", "agency"])]
    vocab = build_vocab(sessions, min_freq=1)
    for name in vocab.page_names:
        assert vocab.decode(vocab.encode(name)) == name


def test_vocab_unknown_never_below_retained():
    sessions = [make_session(["p1", "p2", "p3"])]
    vocab = build_vocab(sessions, min_freq=1)
    retained = [vocab.encode(p) for p in ("p1", "p2", "p3")]
    assert max(retained) < vocab.null_index < vocab.unknown_index


def test_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError):
        build_vocab([], min_freq=1)


def test_vocab_dict_roundtrip():
    vocab = build_vocab([make_session(["a", "b", "b"])], min_freq=1)
    clone = PageVocabulary.from_dict(vocab.to_dict())
    assert clone.page_names == vocab.page_names
    assert clone.min_freq == vocab.min_freq


# ---------------------------------------------------------------------------
# dwell replication


def test_replicate_short_dwell_one_copy():
    s = make_session(["p"], dwell=10.0)
    assert replicate_dwell(s, unit_seconds=30, cap=5) == ["p", NULL_PAGE]


def test_replicate_ceiling():
    s = make_session(["p"], dwell=75.0)
    assert replicate_dwell(s, unit_seconds=30, cap=5) == ["p", "p", "p", NULL_PAGE]


def test_replicate_cap():
    s = make_session(["p"], dwell=10_000.0)
    assert replicate_dwell(s, unit_seconds=30, cap=5) == ["p"] * 5 + [NULL_PAGE]


def test_replicate_preserves_order():
    s = Session("s", "", (PageEvent("a", 35.0), PageEvent("b", 1.0)))
    assert replicate_dwell(s, unit_seconds=30, cap=5) == ["a", "a", "b", NULL_PAGE]


def test_replicate_parameter_validation():
    s = make_session(["p"])
    with pytest.raises(ValueError):
        replicate_dwell(s, unit_seconds=0)
    with pytest.raises(ValueError):
        replicate_dwell(s, cap=0)


@given(
    dwells=st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=1, max_size=8),
    unit=st.floats(min_value=0.5, max_value=500),
    cap=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_replicate_length_formula(dwells, unit, cap):
    s = Session("s", "", tuple(PageEvent(f"p{i}", d) for i, d in enumerate(dwells)))
    expanded = replicate_dwell(s, unit_seconds=unit, cap=cap)
    want = sum(min(cap, max(1, math.ceil(d / unit))) for d in dwells) + 1
    assert len(expanded) == want
    assert expanded[-1] == NULL_PAGE


def test_expand_session_inputs_and_targets():
    vocab = build_vocab([make_session(["a", "b"])], min_freq=1)
    s = Session("s", "hello", (PageEvent("a", 1.0), PageEvent("b", 1.0)))
    inputs, targets = expand_session(s, vocab)
    assert inputs == ["hello", "a", "b"]
    assert targets == [vocab.encode("a"), vocab.encode("b"), vocab.null_index]
    assert len(inputs) == len(targets)


# ---------------------------------------------------------------------------
# synthetic generation


def chain_spec():
    return MarkovSpec(
        states=("a", "b", "c", "d", "exit"),
        transitions=np.array(
            [
                [0.10, 0.40, 0.30, 0.10, 0.10],
                [0.05, 0.10, 0.50, 0.15, 0.20],
                [0.20, 0.20, 0.10, 0.30, 0.20],
                [0.10, 0.10, 0.10, 0.20, 0.50],
                [0.00, 0.00, 0.00, 0.00, 1.00],
            ]
        ),
        initial=np.array([0.5, 0.3, 0.1, 0.1, 0.0]),
        keywords_by_state={"a": "kw a", "b": "kw b", "c": "kw c", "d": "kw d"},
        dwell_mean_by_state={"a": 5.0, "b": 5.0, "c": 5.0, "d": 5.0},
    )


def test_degenerate_chain_is_deterministic():
    spec = MarkovSpec(
        states=("a", "b", "exit"),
        transitions=np.array([[0, 1, 0], [0, 0, 1], [0, 0, 1]], dtype=float),
        initial=np.array([1.0, 0.0, 0.0]),
    )
    for s in generate_synthetic(spec, 20, seed=9):
        assert [ev.page_name for ev in s.events] == ["a", "b"]


def test_generate_same_seed_identical():
    spec = chain_spec()
    a = generate_synthetic(spec, 50, seed=4)
    b = generate_synthetic(spec, 50, seed=4)
    assert a == b
    c = generate_synthetic(spec, 50, seed=5)
    assert a != c


def test_generate_keywords_follow_first_state():
    spec = chain_spec()
    for s in generate_synthetic(spec, 30, seed=1):
        assert s.keywords == "kw " + s.events[0].page_name


def test_generate_rejects_non_stochastic_rows():
    with pytest.raises(MarkovSpecError):
        MarkovSpec(
            states=("a", "exit"),
            transitions=np.array([[0.5, 0.4], [0.0, 1.0]]),
            initial=np.array([1.0, 0.0]),
        )


def test_generate_rejects_non_absorbing_terminal():
    with pytest.raises(MarkovSpecError):
        MarkovSpec(
            states=("a", "exit"),
            transitions=np.array([[0.5, 0.5], [0.5, 0.5]]),
            initial=np.array([1.0, 0.0]),
        )


def test_empirical_transition_frequencies_match_chain():
    spec = chain_spec()
    sessions = generate_synthetic(spec, 50_000, seed=77)
    n = spec.n_states
    counts = np.zeros((n, n))
    state_of = {name: i for i, name in enumerate(spec.states)}
    for s in sessions:
        idx = [state_of[ev.page_name] for ev in s.events]
        for a, b in zip(idx, idx[1:]):
            counts[a, b] += 1
        counts[idx[-1], n - 1] += 1  # absorption
    freq = counts[:-1] / counts[:-1].sum(axis=1, keepdims=True)
    assert np.all(np.abs(freq - spec.transitions[:-1]) < 0.01)


def test_no_page_follows_terminal():
    # absorption ends every sampled session, so the terminal state never
    # appears among events at all
    spec = chain_spec()
    for s in generate_synthetic(spec, 200, seed=3):
        assert spec.terminal not in [ev.page_name for ev in s.events]
        assert len(s.events) >= 1


def test_markov_spec_file_roundtrip(tmp_path):
    spec = chain_spec()
    path = tmp_path / "chain.json"
    spec.save(path)
    loaded = MarkovSpec.load(path)
    assert loaded.states == spec.states
    assert np.array_equal(loaded.transitions, spec.transitions)
    assert np.array_equal(loaded.initial, spec.initial)
    assert loaded.keywords_by_state == spec.keywords_by_state
    assert loaded.dwell_mean_by_state == spec.dwell_mean_by_state


# ---------------------------------------------------------------------------
# splitting


def test_split_80_20():
    sessions = [make_session(["p"], sid=str(i)) for i in range(10)]
    train, evalset = split(sessions, 0.8, seed=0)
    assert len(train) == 8 and len(evalset) == 2


def test_split_is_partition():
    sessions = [make_session(["p"], sid=str(i)) for i in range(23)]
    train, evalset = split(sessions, 0.7, seed=1)
    key = lambda s: s.session_id
    assert sorted(train + evalset, key=key) == sorted(sessions, key=key)
    assert not {s.session_id for s in train} & {s.session_id for s in evalset}


def test_split_deterministic():
    sessions = [make_session(["p"], sid=str(i)) for i in range(9)]
    assert split(sessions, 0.5, seed=3) == split(sessions, 0.5, seed=3)
    assert split(sessions, 0.5, seed=3) != split(sessions, 0.5, seed=4)


def test_split_validation():
    sessions = [make_session(["p"], sid=str(i)) for i in range(5)]
    with pytest.raises(ValueError):
        split(sessions[:1], 0.5, seed=0)
    with pytest.raises(ValueError):
        split(sessions, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(sessions, 0.0, seed=0)


@pytest.mark.parametrize("n", [0, 1])
def test_split_of_too_few_sessions_is_a_config_error(n):
    sessions = [make_session(["p"], sid=str(i)) for i in range(n)]
    with pytest.raises(ConfigError, match="at least 2 sessions"):
        split(sessions, 0.5, seed=0)


def test_split_never_empties_either_side():
    sessions = [make_session(["p"], sid=str(i)) for i in range(3)]
    train, evalset = split(sessions, 0.01, seed=0)
    assert len(train) == 1 and len(evalset) == 2
    train, evalset = split(sessions, 0.99, seed=0)
    assert len(train) == 2 and len(evalset) == 1
