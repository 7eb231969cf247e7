import numpy as np
import pytest

from journeynet.errors import ConfigError, JourneynetError
from journeynet.rng import BLOCK, derive_key, indexed_keys, restart, stream, stream_at


def plain_state(bitgen):
    """A Philox state dict with its arrays as lists, so that states compare with ==."""
    state = bitgen.state
    return {
        "counter": state["state"]["counter"].tolist(),
        "key": state["state"]["key"].tolist(),
        "buffer": state["buffer"].tolist(),
        **{k: state[k] for k in ("buffer_pos", "has_uint32", "uinteger")},
    }


def draws(gen):
    """Doubles, exponentials and 64-bit integers; after an advance, doubles and buffered 32-bit ones."""
    first = [gen.random(3), gen.exponential(2.0, size=2), gen.integers(0, 2**40, size=2)]
    gen.bit_generator.advance(5)
    return np.concatenate(first + [gen.random(2), gen.integers(0, 1000, size=3)])


def test_derive_key_values_are_pinned():
    assert derive_key(2018, "session", 7) == (5722486895691720482, 5180136908735317990)
    assert derive_key(-1, "conversion", 0) == (12986412150248560860, 11341995817127467355)
    assert derive_key() == (4665148505410102986, 8103847710287220046)


def test_restart_gives_the_state_and_draws_of_a_fresh_philox():
    keys = [derive_key(11, "restart", i) for i in range(1200)]
    # both conversions numpy applies: exact words, and float64-rounded ones
    regimes = {np.asarray(k).dtype.kind for k in keys}
    assert regimes == {"i", "u", "f"}
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    for key in keys:
        draws(gen)  # leave a part-used buffer, a spare 32-bit word and an advanced counter
        assert bitgen.state["has_uint32"] == 1
        restart(bitgen, key)
        fresh = np.random.Philox(key=key)
        assert plain_state(bitgen) == plain_state(fresh)
        assert np.array_equal(draws(gen), draws(np.random.Generator(fresh)))


def test_restart_rounds_a_mixed_key_as_numpy_does():
    key = (2**63 + 12345, 5)  # one word >= 2**63: numpy goes through float64
    bitgen = np.random.Philox(key=0)
    restart(bitgen, key)
    assert bitgen.state["state"]["key"].tolist() == [2**63 + 12288, 5]
    assert plain_state(bitgen) == plain_state(np.random.Philox(key=key))


@pytest.mark.parametrize("block", [0, 1, 3, 10])
def test_stream_at_is_the_stream_skipped_four_doubles_per_block(block):
    parts = (7, "conversion", 2)
    skipped = stream(*parts).random(BLOCK * block + 9)[BLOCK * block:]
    assert np.array_equal(stream_at(parts, block).random(9), skipped)


@pytest.mark.parametrize("parts", [(), (3, "session"), ("a", -5, "")])
def test_indexed_keys_equal_derive_key_of_each_index(parts):
    assert list(indexed_keys(parts, 40)) == [derive_key(*parts, i) for i in range(40)]
    assert list(indexed_keys(parts, 0)) == []


def test_type_tagged_labels_do_not_collide():
    assert derive_key(1, "23") != derive_key(12, "3")
    assert derive_key(1) != derive_key("1")
    assert derive_key(1, 2) != derive_key(12)
    assert derive_key("ab") != derive_key("a", "b")
    assert derive_key(0) != derive_key()
    assert len({derive_key(*p) for p in [(1, 1), (1, "1"), ("1", 1), ("1", "1"), (11,), ("11",)]}) == 6


@pytest.mark.parametrize("bad", [True, 1.5, None, b"x", (1,)])
def test_bad_label_types_raise_type_error(bad):
    with pytest.raises(TypeError, match="stream labels"):
        derive_key(1, bad)
    with pytest.raises(TypeError, match="stream labels"):
        next(indexed_keys((bad,), 3))
    with pytest.raises(TypeError, match="stream labels"):
        stream(bad)
    with pytest.raises(TypeError, match="stream labels"):
        stream_at((bad,), 2)


@pytest.mark.parametrize("label", [2**127 - 1, -2**127])
def test_int_labels_at_the_128_bit_bounds_derive_keys(label):
    key = derive_key(label)
    assert all(0 <= word < 2**64 for word in key)
    assert key != derive_key(label - 1 if label > 0 else label + 1)
    assert list(indexed_keys((label,), 2)) == [derive_key(label, 0), derive_key(label, 1)]
    assert np.array_equal(stream(label).random(3), np.random.Generator(np.random.Philox(key=key)).random(3))


@pytest.mark.parametrize("bad", [2**127, -2**127 - 1, 2**128, 10**60])
def test_int_labels_outside_128_bits_raise_config_error(bad):
    with pytest.raises(ConfigError, match=r"outside \[-2\*\*127, 2\*\*127\)"):
        derive_key(1, bad)
    with pytest.raises(ConfigError, match=r"outside \[-2\*\*127, 2\*\*127\)"):
        next(indexed_keys((bad,), 3))
    with pytest.raises(JourneynetError):
        stream(bad)
    with pytest.raises(JourneynetError):
        stream_at((bad,), 2)
