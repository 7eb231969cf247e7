"""Deterministic counter-based random streams.

Every source of randomness in the package is a Philox stream whose key is
derived by hashing a tuple of labels (seed, purpose, indices...).  Streams
derived from distinct label tuples are independent, and a stream's output
never depends on how work was scheduled across workers, only on its labels.

Philox advances its counter in blocks of four 64-bit outputs, so
``stream_at(parts, block)`` positions a stream exactly ``4 * block`` doubles
into the stream that ``stream(*parts)`` would produce.

The key that reaches Philox is not always the hashed one.  numpy converts
the ``(k0, k1)`` tuple as ``np.asarray(key).astype(np.uint64)``: when
exactly one word is >= 2**63 the array is float64, so both words are
rounded to 53 significant bits (half of all derived keys).  Every stream,
checkpoint and estimate rests on that converted key, so it is kept;
``restart`` converts the same way.

A Philox stream is nothing but its key, so a caller that walks many streams
in turn (``generate_synthetic``, one per session) builds one bit generator
and moves it to each key with ``restart``, instead of building one per
stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

# uniforms produced per Philox counter increment
BLOCK = 4
_ZEROS = (0, 0, 0, 0)


def _label_hash(parts):
    """blake2b state after the type-tagged, length-prefixed encoding of `parts`."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        _update(h, part)
    return h


def _update(h, part: int | str) -> None:
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"stream labels must be int or str, got {type(part).__name__}")
    if isinstance(part, int):
        try:
            raw = part.to_bytes(16, "little", signed=True)
        except OverflowError:
            raise ConfigError(f"seed or int label outside [-2**127, 2**127) ({part.bit_length()} bits)") from None
        h.update(b"i")
    else:
        raw = part.encode("utf-8")
        h.update(b"s")
    h.update(len(raw).to_bytes(4, "little"))
    h.update(raw)


def _key(h) -> tuple[int, int]:
    digest = h.digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def derive_key(*parts: int | str) -> tuple[int, int]:
    """Hash a label tuple into a 128-bit key, as two 64-bit words.

    Accepts ints in [-2**127, 2**127) (ConfigError for others) and strings
    (TypeError for other types); the encoding is unambiguous (type-tagged
    and length-prefixed) so e.g. (1, "23") and (12, "3") hash differently.
    Philox receives ``np.asarray(key).astype(np.uint64)`` of it, which
    rounds both words when exactly one is >= 2**63 (see the module notes).
    """
    return _key(_label_hash(parts))


def indexed_keys(parts: tuple[int | str, ...], count: int):
    """Yield ``derive_key(*parts, i)`` for i in range(count), hashing `parts` once."""
    shared = _label_hash(parts)
    for i in range(count):
        h = shared.copy()
        _update(h, i)
        yield _key(h)


def restart(bitgen: np.random.Philox, key: tuple[int, int]) -> None:
    """Put `bitgen` in the state ``np.random.Philox(key=key)`` starts in.

    A generator wrapping `bitgen` then draws what a fresh ``stream`` of that
    key draws.  The key is converted exactly as numpy's constructor does.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.asarray(key).astype(np.uint64)},
        "buffer": _ZEROS,
        "buffer_pos": BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }


def stream(*parts: int | str) -> np.random.Generator:
    """Fresh generator for the stream labelled by `parts`."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def stream_at(parts: tuple[int | str, ...], block: int) -> np.random.Generator:
    """Generator for the `parts` stream, skipped ahead `block` counter blocks."""
    bitgen = np.random.Philox(key=derive_key(*parts))
    if block:
        bitgen.advance(block)
    return np.random.Generator(bitgen)


def blocks_for(n_draws: int) -> int:
    """Counter blocks needed to hold `n_draws` doubles."""
    return -(-n_draws // BLOCK)
