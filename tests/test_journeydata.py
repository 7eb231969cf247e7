import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet.errors import ConfigError, MarkovSpecError, ParseError, SchemaError
from journeynet.journeydata import (
    DWELL_CAP,
    MAX_SESSION_EVENTS,
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
from toychains import funnel_chain, ten_page_chain


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


# each rule of the record's shape and of the types it builds, broken on line 2
MALFORMED_RECORDS = {
    "record-not-object": ('["a", "", []]', "must be an object"),
    "events-not-array": ('{"session_id": "b", "keywords": "", "events": {}}', "events must be an array"),
    "event-not-object": ('{"session_id": "b", "keywords": "", "events": ["p"]}', "event 0 must have"),
    "event-without-dwell": ('{"session_id": "b", "keywords": "", "events": [{"page": "p"}]}', "event 0 must have"),
    "bool-dwell": ('{"session_id": "b", "keywords": "", "events": [{"page": "p", "dwell_seconds": true}]}',
                   "event 0: dwell_seconds must be a number"),
    "text-dwell": ('{"session_id": "b", "keywords": "", "events": [{"page": "p", "dwell_seconds": "1"}]}',
                   "event 0: dwell_seconds must be a number"),
    "null-dwell": ('{"session_id": "b", "keywords": "", "events": [{"page": "p", "dwell_seconds": null}]}',
                   "event 0: dwell_seconds must be a number"),
    "int-dwell-past-float": ('{"session_id": "b", "keywords": "", "events": [{"page": "p", "dwell_seconds": 1%s}]}'
                             % ("0" * 400), "event 0: dwell_seconds must be >= 0 and finite"),
    "empty-page": ('{"session_id": "b", "keywords": "", "events": [{"page": "p", "dwell_seconds": 1},'
                   ' {"page": "", "dwell_seconds": 1}]}', "event 1: page must be non-empty text"),
    "null-page": ('{"session_id": "b", "keywords": "", "events": [{"page": null, "dwell_seconds": 1}]}',
                  "event 0: page must be non-empty text"),
    "int-session-id": ('{"session_id": 7, "keywords": "", "events": []}', "session_id must be text"),
    "null-keywords": ('{"session_id": "b", "keywords": null, "events": []}', "keywords must be text"),
}


@pytest.mark.parametrize("record, message", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_a_malformed_record_is_a_schema_error_on_its_line(record, message):
    good = '{"session_id": "a", "keywords": "", "events": []}'
    with pytest.raises(SchemaError, match=message) as exc:
        parse_log(io.StringIO(good + "\n" + record + "\n" + good + "\n"))
    assert exc.value.line_no == 2


def test_page_event_invariants():
    with pytest.raises(ValueError):
        PageEvent("", 1.0)
    with pytest.raises(ValueError):
        PageEvent("p", -0.5)
    # as the log schema: an infinite dwell would overflow replicate_dwell and
    # save as "Infinity", which parse_log refuses
    for dwell in (math.inf, math.nan, -math.inf, 10**400):
        with pytest.raises(ValueError, match="finite"):
            PageEvent("p", dwell)


def test_page_event_rejects_what_the_log_schema_rejects():
    for dwell in (True, "1", None, [1.0]):
        with pytest.raises(ValueError, match="must be a number"):
            PageEvent("p", dwell)
    for page in (1, None, ""):
        with pytest.raises(ValueError, match="non-empty text"):
            PageEvent(page, 1.0)


def test_page_event_stores_an_integer_dwell_as_a_float():
    event = PageEvent("p", 30)
    assert type(event.dwell_seconds) is float
    assert '"dwell_seconds": 30.0' in serialize_session(Session("s", "", (event,)))


@pytest.mark.parametrize("session_id, keywords", [(1, ""), ("s", None), ("s", ["kw"])])
def test_session_fields_must_be_text(session_id, keywords):
    with pytest.raises(ValueError, match="must be text"):
        Session(session_id, keywords, ())


def test_reserved_page_name_is_schema_error():
    good = '{"session_id": "a", "keywords": "", "events": []}'
    for name in (NULL_PAGE, UNKNOWN_PAGE):
        line = '{"session_id": "b", "keywords": "", "events": [{"page": "%s", "dwell_seconds": 1}]}' % name
        with pytest.raises(SchemaError, match="reserved") as exc:
            parse_log(io.StringIO(good + "\n" + line + "\n"))
        assert exc.value.line_no == 2


@pytest.mark.parametrize("name", [NULL_PAGE, UNKNOWN_PAGE])
def test_a_page_event_may_not_take_a_reserved_name(name):
    # so no session built in code holds one either: build_vocab, expand_session
    # and session_loss never see a page that would be encoded as the exit class
    with pytest.raises(ValueError, match=r"reserved"):
        PageEvent(name, 1.0)
    with pytest.raises(ValueError, match=r"reserved"):
        make_session(["home", name, "quote"], sid="odd")


# a log page may take any non-empty name but the two reserved ones
page_name = st.text(min_size=1, max_size=12).filter(lambda p: p not in (NULL_PAGE, UNKNOWN_PAGE))

session_strategy = st.builds(
    make_session,
    pages=st.lists(page_name, min_size=0, max_size=5),
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
    assert "common" in vocab.page_names
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
    # the constructor owns the page-name rules: an iterator is read once
    assert PageVocabulary(iter(["a", "b"]), 1).page_names[:2] == ("a", "b")
    for pages in ("abc", {"a": 1}, 5, None, ["a", 5], ["a", ""], [["a"]]):
        with pytest.raises(ValueError, match="non-empty strings"):
            PageVocabulary(pages, 1)
        with pytest.raises(ValueError, match="non-empty strings"):
            PageVocabulary.from_dict({"pages": pages, "min_freq": 1})
    # a set's order follows the hash seed, so its classes would too
    for pages in ({"a", "b"}, frozenset({"a"}), {"a": 1}.keys()):
        with pytest.raises(ValueError, match="non-empty strings"):
            PageVocabulary(pages, 1)
    for pages in (["a", "b", "a"], ["a", NULL_PAGE]):
        with pytest.raises(ValueError, match="duplicate or reserved"):
            PageVocabulary(pages, 1)


@pytest.mark.parametrize("min_freq", [-3, 0, 5.9, True, "5"])
def test_vocab_min_freq_must_be_an_int_of_at_least_one(min_freq):
    # no count below 1, and no float, bool or string that int() would turn into one
    with pytest.raises(ConfigError, match="min_freq must be an int >= 1"):
        PageVocabulary(["a"], min_freq)
    with pytest.raises(ConfigError, match="min_freq must be an int >= 1"):
        PageVocabulary.from_dict({"pages": ["a"], "min_freq": min_freq})
    if not isinstance(min_freq, str):  # build_vocab compares counts with it
        with pytest.raises(ConfigError, match="min_freq must be an int >= 1"):
            build_vocab([make_session(["a"])], min_freq=min_freq)


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


def test_replicate_rejects_a_session_past_the_longest_generated_expansion():
    bound = MAX_SESSION_EVENTS * DWELL_CAP  # a generated session at the default cap
    fits = Session("s", "", (PageEvent("a", 30.0 * (bound - 1)), PageEvent("b", 30.0)))
    assert len(replicate_dwell(fits, unit_seconds=30, cap=bound)) == bound + 1
    over = Session("s", "", (PageEvent("a", 30.0 * bound), PageEvent("b", 30.0)))
    with pytest.raises(ConfigError, match=f"{bound + 1} pages"):
        replicate_dwell(over, unit_seconds=30, cap=bound)
    # a dwell of 1e13 s at a cap of 10**15 would be 3.3e11 copies: refused before any is made
    with pytest.raises(ConfigError, match="333333333334 pages"):
        replicate_dwell(make_session(["p"], dwell=1e13), unit_seconds=30, cap=10**15)


def test_replicate_parameter_validation():
    s = make_session(["p"])
    with pytest.raises(ValueError):
        replicate_dwell(s, unit_seconds=0)
    with pytest.raises(ConfigError):
        replicate_dwell(s, unit_seconds=float("nan"))
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


def searchsorted_walk(spec, n_sessions, seed):
    """generate_synthetic's sessions, each draw an np.searchsorted over array CDFs."""
    from journeynet import rng as rngmod

    init_cdf, row_cdfs = np.cumsum(spec.initial), np.cumsum(spec.transitions, axis=1)

    def index(cdf, u):
        return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)

    sessions = []
    for i in range(n_sessions):
        gen = rngmod.stream(seed, "session", i)
        state = first = index(init_cdf, gen.random())
        events = []
        while state != spec.n_states - 1:
            name = spec.states[state]
            mean = spec.dwell_mean_by_state.get(name, 10.0)
            events.append(PageEvent(name, float(gen.exponential(mean)) if mean > 0 else 0.0))
            state = index(row_cdfs[state], gen.random())
        keywords = spec.keywords_by_state.get(spec.states[first], "")
        sessions.append(Session(f"s{i:06d}", keywords, tuple(events)))
    return sessions


def zero_column_chain():
    # "never" has probability 0 in every row, so its CDF entry ties the one before
    return MarkovSpec(
        states=("a", "never", "b", "c", "exit"),
        transitions=np.array([
            [0.2, 0.0, 0.5, 0.0, 0.3],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [0.3, 0.0, 0.0, 0.3, 0.4],
            [0.0, 0.0, 0.6, 0.1, 0.3],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]),
        initial=np.array([0.5, 0.0, 0.0, 0.5, 0.0]),
        keywords_by_state={"a": "kw a", "c": "kw c"},
        dwell_mean_by_state={"a": 0.0, "b": 30.0},
    )


@pytest.mark.parametrize("make", [ten_page_chain, funnel_chain, zero_column_chain])
def test_generate_draws_the_sessions_of_a_searchsorted_walk(make):
    spec = make()
    for seed in (0, 7, 2018):
        assert generate_synthetic(spec, 300, seed) == searchsorted_walk(spec, 300, seed)


# sha256 of the serialised sessions, recorded before generation restarted one
# Philox per call.  A change of draws, here or in how numpy turns a derived
# key into a Philox key (see journeynet.rng), fails this test.
GOLDEN_SESSIONS = [
    (ten_page_chain, 2000, 2018, "80bcbeeacea2a717a624e175fd0508950264da10e0b20b31af4ab1a1c6f4a607"),
    (funnel_chain, 2000, 2019, "cb08882e08d64c8d02de4a227b62d9dab651835230e17d0c92fd6716a82cfb37"),
    (zero_column_chain, 1000, 7, "62caf6aae87118074bf0d7c01869a86ae54d95ffe2cbdcdeb110e8b666415401"),
]


@pytest.mark.parametrize("make, n_sessions, seed, digest", GOLDEN_SESSIONS, ids=["ten_page", "funnel", "zero_column"])
def test_generate_matches_the_recorded_digest(make, n_sessions, seed, digest):
    text = "".join(serialize_session(s) + "\n" for s in generate_synthetic(make(), n_sessions, seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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


@pytest.mark.parametrize("states", ["ab", {"a": 0, "b": 1}], ids=["text", "mapping"])
def test_markov_spec_states_must_be_a_list_of_names(states):
    # a string's characters or a mapping's keys are no list of names
    with pytest.raises(MarkovSpecError, match="states must be a list of names"):
        MarkovSpec(states=states, transitions=[[0.0, 1.0], [0.0, 1.0]], initial=[1.0, 0.0])


def test_generate_stops_a_session_that_does_not_exit():
    # valid (the exit is reachable), but a session would walk ~1e12 pages
    spec = MarkovSpec(
        states=("a", "exit"),
        transitions=np.array([[1.0 - 1e-12, 1e-12], [0.0, 1.0]]),
        initial=np.array([1.0, 0.0]),
    )
    with pytest.raises(MarkovSpecError, match="did not exit within"):
        generate_synthetic(spec, 1, seed=0)


def test_generate_rejects_a_dwell_mean_too_large_to_sample():
    # a finite mean whose exponential draws overflow to inf would write
    # "Infinity" dwell times, which no log reader accepts
    spec = MarkovSpec(
        states=("a", "exit"),
        transitions=np.array([[0.0, 1.0], [0.0, 1.0]]),
        initial=np.array([1.0, 0.0]),
        dwell_mean_by_state={"a": 1e308},
    )
    with pytest.raises(MarkovSpecError, match="too large"):
        generate_synthetic(spec, 50, seed=0)


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
        assert spec.states[-1] not in [ev.page_name for ev in s.events]
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
