"""Character-level text encoding.

A phrase (searched keywords or a page name) is lowercased, truncated,
one-hot quantized over a fixed alphabet, and pushed through stacked
convolution + max-pooling stages into a fixed-length embedding vector.
The embedding length depends only on the encoder configuration, never on
the phrase, so downstream sequence models see a constant input width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError
from .numerics import Matrix

# 26 letters + 10 digits + space hyphen underscore slash period apostrophe
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 -_/.'"


class Alphabet:
    """Ordered set of permitted characters with index lookup."""

    def __init__(self, chars: str = DEFAULT_ALPHABET):
        if len(set(chars)) != len(chars):
            raise ValueError("alphabet contains duplicate characters")
        if not chars:
            raise ValueError("alphabet must not be empty")
        self.chars = chars
        self._index = {c: i for i, c in enumerate(chars)}

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, c: str) -> bool:
        return c in self._index

    def lookup(self, c: str) -> int:
        return self._index[c]

    def get(self, c: str) -> int | None:
        return self._index.get(c)


def quantize(phrase: str, alphabet: Alphabet, max_len: int) -> np.ndarray:
    """One-hot matrix of shape max_len x alphabet size.

    Characters beyond max_len are dropped, the rest are lowercased before
    lookup; padding positions and out-of-alphabet characters yield zero rows.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    out = np.zeros((max_len, len(alphabet)))
    for pos, ch in enumerate(phrase[:max_len].lower()):
        col = alphabet.get(ch)
        if col is not None:
            out[pos, col] = 1.0
    return out


def conv1d(x: Matrix, kernels: Matrix, bias: Matrix, width: int, n: int = 1) -> Matrix:
    """Valid 1-D convolution over rows followed by ReLU.

    `x` stacks `n` equal-length sequences, each length x channels, one under
    the other; every sequence is convolved on its own and the outputs are
    stacked the same way.  `kernels` holds the width x channels x filters
    bank laid out row-major as (width * channels) x filters, position-major;
    `bias` is 1 x filters.
    """
    length, channels = x.rows // n, x.cols
    if width < 1:
        raise ValueError(f"kernel width must be >= 1, got {width}")
    if length * n != x.rows:
        raise ShapeError(f"{x.rows} rows do not split into {n} sequences")
    if length < width:
        raise ShapeError(f"input length {length} shorter than kernel width {width}")
    if kernels.rows != width * channels:
        raise ShapeError(
            f"kernel bank {kernels.shape} does not match width {width} x channels {channels}"
        )
    windows = _window_rows(x, width, n)
    return nm.relu(nm.add(nm.matmul(windows, kernels), bias))


def _window_rows(x: Matrix, width: int, n: int) -> Matrix:
    """Stack each sliding window of `width` rows of each of `n` sequences into one row (im2col)."""
    length, channels = x.rows // n, x.cols
    n_out = length - width + 1
    x3 = x.data.reshape(n, length, channels)
    view = np.lib.stride_tricks.sliding_window_view(x3, width, axis=1)
    data = np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(n * n_out, width * channels)
    out = Matrix._result(data)

    def back(g):
        gx = np.zeros((n, length, channels), dtype=x.data.dtype)
        gw = g.reshape(n, n_out, width, channels)
        for i in range(width):
            gx[:, i:i + n_out] += gw[:, :, i]
        return (gx.reshape(x.shape),)

    return nm.record(out, (x,), back)


def maxpool1d(x: Matrix, window: int, n: int = 1) -> Matrix:
    """Non-overlapping per-column max over row windows of each of `n` stacked
    equal-length sequences; a partial tail window is kept, so each sequence
    gives ceil(length / window) rows.  The gradient routes to the first
    maximal position in each window."""
    if window < 1:
        raise ValueError(f"pool window must be >= 1, got {window}")
    length, cols = x.rows // n, x.cols
    if length * n != x.rows:
        raise ShapeError(f"{x.rows} rows do not split into {n} sequences")
    n_out = -(-length // window)
    # -inf fills the tail window, so it never wins against a real entry
    seg = np.full((n, n_out * window, cols), -np.inf, dtype=x.data.dtype)
    seg[:, :length] = x.data.reshape(n, length, cols)
    seg = seg.reshape(n, n_out, window, cols)
    if not (nm.is_recording() and x.track):
        # off the tape only the maxima are needed, not where they came from
        return Matrix._result(seg.max(axis=2).reshape(n * n_out, cols))
    am = seg.argmax(axis=2)
    data = np.take_along_axis(seg, am[:, :, None, :], axis=2).reshape(n * n_out, cols)
    src = (
        np.arange(n)[:, None, None] * length + np.arange(n_out)[None, :, None] * window + am
    ).reshape(n * n_out, cols)
    out = Matrix._result(data)

    def back(g):
        # windows do not overlap, so every (row, column) is routed to at most once
        gx = np.zeros_like(x.data)
        gx[src, np.arange(cols)] = g
        return (gx,)

    return nm.record(out, (x,), back)


@dataclass
class ConvStage:
    kernels: Matrix
    bias: Matrix
    width: int
    pool: int

    @property
    def filters(self) -> int:
        return self.kernels.cols


class CnnEncoder:
    """Stacked convolution + max-pooling phrase encoder.

    All stage shapes are fixed at construction; `embed` maps any text to a
    1 x embedding_dim vector.
    """

    def __init__(self, alphabet: Alphabet, max_len: int, stages: list[ConvStage]):
        if not stages:
            raise ValueError("encoder needs at least one stage")
        self.alphabet = alphabet
        self.max_len = max_len
        self.stages = stages
        self.embedding_dim = self._output_dim()

    @classmethod
    def build(
        cls,
        alphabet: Alphabet,
        max_len: int,
        stage_specs: list[tuple[int, int, int]],
        rng: np.random.Generator,
    ) -> "CnnEncoder":
        """Initialise an encoder from (width, filters, pool) stage specs.

        Kernels are Glorot-uniform (:func:`numerics.glorot`); biases zero.
        A stage shorter than its kernel raises ShapeError from the constructor.
        """
        stages = []
        channels = len(alphabet)
        for width, filters, pool in stage_specs:
            kernels = nm.glorot(rng, width * channels, filters)
            bias = nm.parameter(np.zeros((1, filters)))
            stages.append(ConvStage(kernels, bias, width, pool))
            channels = filters
        return cls(alphabet, max_len, stages)

    def _output_dim(self) -> int:
        length = self.max_len
        for st in self.stages:
            if length < st.width:
                raise ShapeError(
                    f"stage input length {length} shorter than kernel width {st.width}"
                )
            length = -(-(length - st.width + 1) // st.pool)
        return length * self.stages[-1].filters

    def embed(self, phrase: str) -> Matrix:
        """Encode a phrase into a 1 x embedding_dim vector."""
        return self.embed_batch([phrase])

    def embed_batch(self, phrases: list[str]) -> Matrix:
        """Encode phrases into a len(phrases) x embedding_dim matrix, row i for phrase i.

        All phrases go through each stage together: one im2col product and
        one max-pool over the stacked quantized phrases.  The one-hot input
        takes the kernels' dtype, so the whole encoder follows the weights.
        """
        n = len(phrases)
        if not n:
            raise ValueError("embed_batch needs at least one phrase")
        h = Matrix._result(
            np.concatenate(
                [quantize(p, self.alphabet, self.max_len) for p in phrases],
                dtype=self.stages[0].kernels.data.dtype,
            )
        )
        for st in self.stages:
            h = maxpool1d(conv1d(h, st.kernels, st.bias, st.width, n), st.pool, n)
        return nm.reshape(h, n, self.embedding_dim)

    def parameters(self) -> list[tuple[str, Matrix]]:
        named = []
        for i, st in enumerate(self.stages):
            named.append((f"conv{i}.kernels", st.kernels))
            named.append((f"conv{i}.bias", st.bias))
        return named
