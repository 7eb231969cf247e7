"""Property tests: every input file either parses or ends in a JourneynetError.

Each reader gets a file of arbitrary bytes, JSON built from arbitrary values,
and records shaped like the real thing with arbitrary fields, so that both
the decoding and the validation paths are explored.  A checkpoint that loads
must also score.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet import cli
from journeynet.errors import JourneynetError, MarkovSpecError, ParseError
from journeynet.journeydata import (
    MarkovSpec,
    PageVocabulary,
    generate_synthetic,
    load_sessions,
    parse_log,
    serialize_session,
)
from journeynet.seqmodel import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, ModelConfig, SequenceModel, model_to_dict
from journeynet.simulator import JourneyPrefix, Objective, score_batch
from journeynet.training import ENSEMBLE_FORMAT, load_predictor

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()  # NaN and the infinities are written as NaN / Infinity
    | st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
numbers = st.integers(min_value=-3, max_value=3) | st.floats() | scalars
names = st.sampled_from(["a", "b", "exit", ""]) | scalars


def as_bytes(strategy):
    return strategy.map(lambda v: json.dumps(v).encode())


def fuzz(*shaped):
    """Arbitrary bytes, arbitrary JSON, or JSON of one of the `shaped` strategies."""
    return st.one_of(st.binary(max_size=200), as_bytes(values), *(as_bytes(s) for s in shaped))


spec_like = st.fixed_dictionaries(
    {
        "states": st.lists(names, min_size=1, max_size=4) | values,
        "transitions": st.lists(st.lists(numbers, max_size=4), max_size=4) | values,
        "initial": st.lists(numbers, max_size=4) | values,
    },
    optional={
        "keywords_by_state": st.dictionaries(st.text(max_size=4), values, max_size=3) | values,
        "dwell_mean_by_state": st.dictionaries(names.filter(lambda n: isinstance(n, str)), numbers,
                                               max_size=3) | values,
    },
)
# near-valid chain specs, so that validation is reached past the type checks
chain_like = st.tuples(
    st.floats(min_value=0, max_value=0.9),
    st.dictionaries(names, numbers, max_size=2),
    st.dictionaries(names, values, max_size=2),
).map(lambda t: {
    "states": ["a", "exit"],
    "transitions": [[t[0], 1.0 - t[0]], [0.0, 1.0]],
    "initial": [1.0, 0.0],
    "dwell_mean_by_state": t[1],
    "keywords_by_state": t[2],
})
event_like = st.fixed_dictionaries({"page": names, "dwell_seconds": numbers}) | values
record_like = st.fixed_dictionaries({
    "session_id": names,
    "keywords": names,
    "events": st.lists(event_like, max_size=3) | values,
})
prefix_like = st.fixed_dictionaries(
    {"keywords": names},
    optional={"pages": st.lists(names, max_size=3) | values, "prefix_id": values},
)

# objective records whose pages are lists, strings, objects, numbers or nested lists
objective_like = st.fixed_dictionaries({
    "id": values,
    "pages": st.lists(names, max_size=3)
    | st.text(max_size=6)
    | st.dictionaries(st.text(max_size=4), values, max_size=2)
    | numbers
    | st.lists(st.lists(names, max_size=2), max_size=2),
})


def lines_of(strategy):
    return st.lists(strategy, max_size=3).map(lambda lines: b"\n".join(lines))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    """One file path that each example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "input"


def reads_or_raises(read, path, data: bytes):
    """`read` of `path` holding `data`: what it returns, or None after a JourneynetError."""
    path.write_bytes(data)
    try:
        return read(path)
    except JourneynetError:
        return None


@settings(max_examples=300, deadline=None)
@given(data=fuzz(spec_like, chain_like))
def test_markov_spec_load_parses_or_raises(input_file, data):
    reads_or_raises(MarkovSpec.load, input_file, data)


@settings(max_examples=200, deadline=None)
@given(chain=chain_like)
def test_a_chain_spec_that_loads_generates_a_readable_log(chain):
    # decoded in memory as MarkovSpec.load decodes its file, which
    # test_markov_spec_load_parses_or_raises covers
    try:
        sessions = generate_synthetic(MarkovSpec.from_dict(json.loads(json.dumps(chain))), 5, seed=0)
    except JourneynetError:
        return
    assert parse_log([serialize_session(s) for s in sessions]) == sessions


@settings(max_examples=300, deadline=None)
@given(data=lines_of(fuzz(record_like)))
def test_session_log_parses_or_raises(input_file, data):
    reads_or_raises(load_sessions, input_file, data)


@pytest.mark.parametrize("read, error, data", [
    (MarkovSpec.load, MarkovSpecError, b"not json"),
    (load_sessions, ParseError, b'{"session_id": "s", "keywords": "", "events": []}\n\xff\xfe'),  # not UTF-8
    (cli._load_prefixes, ParseError, b'{"keywords": "kw"}\n\xff\xfe'),  # not UTF-8
    (cli._parse_config_file, ParseError, b"epochs = 2\n\xff\xfe"),  # not UTF-8
    (load_predictor, ParseError, b'{"format": "journeynet-checkpoint", "version": 1}\xff\xfe'),  # not UTF-8
], ids=["chain spec", "session log", "prefix file", "config file", "checkpoint"])
def test_a_malformed_file_is_a_clean_error(tmp_path, read, error, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(error):
        read(path)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=200))
def test_parse_log_of_any_text_parses_or_raises(text):
    try:
        parse_log(text.split("\n"))
    except JourneynetError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=lines_of(fuzz(prefix_like)))
def test_prefix_file_parses_or_raises(input_file, data):
    reads_or_raises(cli._load_prefixes, input_file, data)


@settings(max_examples=300, deadline=None)
@given(data=fuzz(st.lists(objective_like, max_size=3)))
def test_objectives_file_parses_or_raises(input_file, data):
    reads_or_raises(cli._load_objectives, input_file, data)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
def test_config_file_parses_or_raises(input_file, data):
    reads_or_raises(cli._parse_config_file, input_file, data)


def _tiny_checkpoints() -> dict:
    """A valid model checkpoint of a tiny two-page model, and a two-member ensemble checkpoint."""
    config = ModelConfig(max_len=6, conv_stages=((3, 2, 2),), lstm_hidden=(3,), fc_width=3, dropout_rate=0.0)
    body = model_to_dict(SequenceModel.build(config, PageVocabulary(["a", "b"], min_freq=1), seed=0))
    return {
        "model": {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, "model": body},
        "ensemble": {"format": ENSEMBLE_FORMAT, "version": CHECKPOINT_VERSION, "members": [body, copy.deepcopy(body)]},
    }


TINY_CHECKPOINTS = _tiny_checkpoints()


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, below the root."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _section(path) -> str:
    """The part of a checkpoint a JSON path lies in: a model's config, vocab or weights, or the envelope."""
    return next((key for key in path if key in ("config", "vocab", "weights")), "envelope")


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(TINY_CHECKPOINTS)), data=st.data())
def test_checkpoint_with_one_field_replaced_loads_and_scores_or_raises(input_file, kind, data):
    payload = copy.deepcopy(TINY_CHECKPOINTS[kind])
    # a section first, so that the few vocabulary fields are drawn as often as the many weight fields
    paths = list(_json_paths(payload))
    section = data.draw(st.sampled_from(sorted({_section(p) for p in paths})))
    path = data.draw(st.sampled_from([p for p in paths if _section(p) == section]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(values)
    predictor = reads_or_raises(load_predictor, input_file, json.dumps(payload).encode())
    if predictor is None:
        return
    try:
        score_batch(predictor, [JourneyPrefix("kw", ("a",))], [Objective("o", frozenset({"b"}))], 4, 3, seed=0)
    except JourneynetError:
        pass
