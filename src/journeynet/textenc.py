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
from .errors import check_int
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

    def get(self, c: str) -> int | None:
        return self._index.get(c)


def quantize(phrase: str, alphabet: Alphabet, max_len: int) -> np.ndarray:
    """One-hot matrix of shape max_len x alphabet size.

    Characters beyond max_len are dropped, the rest are lowercased before
    lookup, and the lowercased text is cut at max_len again (``'İ'.lower()``
    is two characters); padding positions and out-of-alphabet characters
    yield zero rows.  `max_len` is an int >= 1 (ValueError otherwise).
    """
    check_int(max_len, "max_len", ValueError, low=1)
    out = np.zeros((max_len, len(alphabet)))
    for pos, ch in enumerate(phrase[:max_len].lower()[:max_len]):
        col = alphabet.get(ch)
        if col is not None:
            out[pos, col] = 1.0
    return out


def conv1d(x: Matrix, kernels: Matrix, bias: Matrix, width: int, n: int) -> Matrix:
    """Valid 1-D convolution over rows followed by ReLU.

    `x` stacks `n` equal-length sequences, each length x channels, one under
    the other; every sequence is convolved on its own and the outputs are
    stacked the same way.  `kernels` holds the width x channels x filters
    bank laid out row-major as (width * channels) x filters, position-major;
    `bias` is 1 x filters.  Every shape here comes from the model's config
    and weight layout (:func:`seqmodel.parameter_shapes` rejects a stage
    input shorter than its kernel).
    """
    return nm.dense(_window_rows(x, width, n), kernels, bias, relu=True)


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


def maxpool1d(x: Matrix, window: int, n: int) -> Matrix:
    """Non-overlapping per-column max over row windows of each of `n` stacked
    equal-length sequences; a partial tail window is kept, so each sequence
    gives ceil(length / window) rows.  The gradient routes to the first
    maximal position in each window."""
    length, cols = x.rows // n, x.cols
    n_out = -(-length // window)
    # -inf fills the tail window, so it never wins against a real entry
    seg = np.full((n, n_out * window, cols), -np.inf, dtype=x.data.dtype)
    seg[:, :length] = x.data.reshape(n, length, cols)
    seg = seg.reshape(n, n_out, window, cols)
    top = seg.max(axis=2, keepdims=True)
    out = Matrix._result(top.reshape(n * n_out, cols))

    def back(g):
        # each window's first position equal to its max takes the gradient (no NaN
        # reaches here: `train` raises on a non-finite loss before `backward`)
        first = seg == top
        seen = first[:, :, 0].copy()
        for i in range(1, window):
            first[:, :, i] &= ~seen
            seen |= first[:, :, i]
        # windows do not overlap, so every entry gets at most one gradient, and the rest +0.0
        gx = np.where(first, g.reshape(n, n_out, 1, cols), 0)
        return (gx.reshape(n, n_out * window, cols)[:, :length].reshape(x.shape),)

    return nm.record(out, (x,), back)


@dataclass
class ConvStage:
    kernels: Matrix
    bias: Matrix
    width: int
    pool: int


class CnnEncoder:
    """Stacked convolution + max-pooling phrase encoder.

    The stages' weights follow the model's layout
    (:func:`seqmodel.parameter_shapes`), which fixes the embedding width;
    `embed` maps any list of texts to one row of that width each.
    """

    def __init__(self, alphabet: Alphabet, max_len: int, stages: list[ConvStage]):
        if not stages:
            raise ValueError("encoder needs at least one stage")
        self.alphabet = alphabet
        self.max_len = max_len
        self.stages = stages

    def embed(self, phrases: list[str]) -> Matrix:
        """Encode phrases into a len(phrases) x width matrix, row i for phrase i.

        All phrases go through each stage together: one im2col product and
        one max-pool over the stacked quantized phrases.  The one-hot input
        takes the kernels' dtype, so the whole encoder follows the weights.
        """
        n = len(phrases)
        if not n:
            raise ValueError("embed needs at least one phrase")
        h = Matrix._result(
            np.concatenate(
                [quantize(p, self.alphabet, self.max_len) for p in phrases],
                dtype=self.stages[0].kernels.data.dtype,
            )
        )
        for st in self.stages:
            h = maxpool1d(conv1d(h, st.kernels, st.bias, st.width, n), st.pool, n)
        return nm.reshape(h, n, h.data.size // n)
