"""Stacked-LSTM journey model over CNN phrase embeddings.

One shared character-level encoder embeds both the search-keyword phrase
(step 0) and every page name; the LSTM stack threads state left to right
and a fully connected + softmax head emits, at each step, a distribution
over all page classes (including the terminal NULL page) for the next step.
Every weight's name and shape is written once, in :func:`parameter_shapes`,
which initialisation, checkpoint loading and `parameters` all read.

Every pass runs one layer loop, `cell_steps`, of one
:func:`numerics.lstm_sequence` per layer from a given state.  Training,
`forward_session` and `start` run padded batches (`padded_batch`) from the
zero state; evaluation steps a prefix tree one depth at a time through
`_step_rows`, the pass serving's plain `step` runs.  The page table, a
`start`'s new phrases and evaluation's phrases go through the CNN in passes
of at most MAX_PASS_PHRASES (`_project_rows`); a padded batch of
`batch_step_probs` (training, `session_nll`, `forward_session`) is one
pass.  The incremental
(start / step) interface lets simulations feed sampled pages back in
without re-running the prefix: `start` keeps each prefix's state at its
own last step; `step` runs one step from the rows it continues.

Serving freezes a model.  Its first serving call (`start`, `step` or
`compute_copy`) builds one serving cache, which sets every weight array
read-only and then holds, each filled when first needed, the page table
(layer 0's projection of the page names, which every `start` miss and
every `step` reads), a node store with its start memo, and the compute
copy.  The memo maps every prefix a `start` has run to its root node,
which holds its state rows and next-page distribution: a frozen model's
start depends only on the prefix, and prefixes recur, so `start` runs
only the prefixes the memo lacks.  A `start` the memo serves
whole returns a kept state, and `step` of a kept state adds the children
it reaches to that prefix's rollout tree, so each sampled path of a
recurring prefix is stepped once per cache.  The compute copy is the
model's `cast`, the cast that also builds training's twin: it computes
every pass, the CNN's included, in float32 for the simulator's rollouts
(the model itself computes in float64), and it owns its arrays and its
serving cache, so a copy held across an edit of the model is a snapshot of
the weights it was made from.  The cache is reused while every weight is still
the same array and still read-only (:func:`_unchanged`), and restarts
whole otherwise.  So a served model's weights are edited by assigning a
new array to a `Matrix.data`, or by setting its ``flags.writeable = True``
first; the next serving call sees either edit, rebuilds, and freezes every
weight again.  A bare in-place write into a frozen array raises numpy's
ValueError, and so does :func:`numerics.grad_check` of a served model.
Two edits stay unseen: a write through a writeable numpy view taken before
the first serving call, and an edit made writeable and served by another
model built from the same `Matrix` objects.  A pickled model carries no
cache.  A `step` of a state whose store is no longer its model's (after an
edit, or after the store restarted at its bound) steps plain, on the
current cache's table, so a state held across an edit steps with the
edited weights throughout; training, evaluation, `batch_step_probs`,
`session_nll` and `forward_session` never read the cache, and freeze
nothing.  Serving is the same under any tape:
one that watches the weights records the passes and steps that run, on
frozen weights, and `start` and `step` return plain arrays, which reach no
loss.  Every product goes through :func:`numerics.rows_product`, so a row's
bits do not depend on the other rows of its batch for the product shapes
tier-1 checks in float64 and float32 (the CNN's im2col products of passes
of 1 to MAX_PASS_PHRASES phrases, and the LSTM and head products of models
of 8 and 12 classes at up to 128 rows);
the BLAS does not promise it for every shape.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .errors import CheckpointError, ConfigError, ShapeError, check_int, check_number, check_text, parse_json, read_text
from .journeydata import PageVocabulary, Session, expand_session
from .numerics import Matrix
from .textenc import DEFAULT_ALPHABET, Alphabet, CnnEncoder, ConvStage

CHECKPOINT_FORMAT = "journeynet-checkpoint"
CHECKPOINT_VERSION = 1
# dtype of every weight of a `SequenceModel.cast`: training's twin and the compute copy
COMPUTE_DTYPE = np.float32
# most weights a model may lay out, and most entries of one phrase's one-hot:
# 10**8 float64 masters take 0.8 GB (the paper's config has 385 292 weights)
MAX_WEIGHTS = 10**8
# most nodes (started prefixes and the rollout steps after them) a serving
# cache keeps, unless one `start` adds more: at the paper's config with V
# classes a node holds 2 048 + 8V bytes in float32 and 4 096 + 12V in
# float64 (~8.8 and ~17 MB in all at V = 12)
MAX_KEPT_NODES = 4096
# most phrases of one CNN pass of `SequenceModel._project_rows`, which builds the
# page table and projects a `start`'s new phrases and `evaluate`'s phrases (~130 KB
# each at the paper's config; tier-1 checks that a phrase keeps its bits in passes
# of up to this many)
MAX_PASS_PHRASES = 16


@dataclass(frozen=True)
class ModelConfig:
    alphabet: str = DEFAULT_ALPHABET
    max_len: int = 64
    conv_stages: tuple[tuple[int, int, int], ...] = ((3, 64, 4), (3, 64, 4))
    lstm_hidden: tuple[int, ...] = (128, 128)
    fc_width: int = 256
    dropout_rate: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "conv_stages", tuple(tuple(s) for s in self.conv_stages))
        object.__setattr__(self, "lstm_hidden", tuple(self.lstm_hidden))
        check_number(self.dropout_rate, "dropout_rate", ConfigError)
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate!r}")
        check_text(self.alphabet, "alphabet", ConfigError)
        try:
            Alphabet(self.alphabet)
        except ValueError as exc:  # an empty or repeating alphabet
            raise ConfigError(str(exc)) from exc
        if not self.conv_stages or not self.lstm_hidden:
            raise ConfigError("need at least one conv stage and one LSTM layer")
        if any(len(s) != 3 for s in self.conv_stages):
            raise ConfigError(f"conv stages must be (width, filters, pool), got {self.conv_stages}")
        layers = [(f"lstm_hidden[{i}]", h) for i, h in enumerate(self.lstm_hidden)]
        stages = [(f"conv stage {i} {part}", v) for i, s in enumerate(self.conv_stages)
                  for part, v in zip(("width", "filters", "pool"), s)]
        for name, size in [("max_len", self.max_len), ("fc_width", self.fc_width), *layers, *stages]:
            check_int(size, name, ConfigError, low=1)
        if self.max_len * len(self.alphabet) > MAX_WEIGHTS:
            raise ConfigError(
                f"max_len {self.max_len} gives a one-hot of more than {MAX_WEIGHTS} entries per phrase"
            )

    def to_dict(self) -> dict:
        """The ModelConfig fields, also of a subclass (JSON writes the tuples as arrays)."""
        return {f.name: getattr(self, f.name) for f in fields(ModelConfig)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config of the stored fields, as stored: `__post_init__` checks them."""
        return cls(**{f.name: d[f.name] for f in fields(ModelConfig)})


def parameter_shapes(config: ModelConfig, n_classes: int) -> dict[str, tuple[int, int]]:
    """Name -> (rows, cols) of every weight of the model, in the order `build` draws them.

    This is the model's one weight layout: `build` initialises it, the
    checkpoint loader checks each stored array against it, `SequenceModel`
    assembles its stages and layers from it and `parameters` lists it.  A
    conv stage turns `length` rows into ceil((length - width + 1) / pool);
    the embedding width is the last stage's length times its filters
    (ShapeError if a stage gets fewer rows than its kernel width, ConfigError
    if the layout holds more than MAX_WEIGHTS weights).
    """
    shapes, length, channels = {}, config.max_len, len(config.alphabet)
    for i, (width, filters, pool) in enumerate(config.conv_stages):
        if length < width:
            raise ShapeError(f"stage input length {length} shorter than kernel width {width}")
        shapes[f"conv{i}.kernels"] = (width * channels, filters)
        shapes[f"conv{i}.bias"] = (1, filters)
        length, channels = -(-(length - width + 1) // pool), filters
    in_dim = length * channels
    for i, hidden in enumerate(config.lstm_hidden):
        shapes[f"lstm{i}.wx"] = (in_dim, 4 * hidden)
        shapes[f"lstm{i}.wh"] = (hidden, 4 * hidden)
        shapes[f"lstm{i}.bias"] = (1, 4 * hidden)
        in_dim = hidden
    shapes["fc.weight"] = (in_dim, config.fc_width)
    shapes["fc.bias"] = (1, config.fc_width)
    shapes["out.weight"] = (config.fc_width, n_classes)
    shapes["out.bias"] = (1, n_classes)
    count = sum(rows * cols for rows, cols in shapes.values())
    if count > MAX_WEIGHTS:
        raise ConfigError(f"the model would have {count} weights, more than {MAX_WEIGHTS}")
    return shapes


@dataclass
class LstmLayer:
    """One LSTM layer's weights; gates are packed (input, forget, candidate, output)."""

    wx: Matrix
    wh: Matrix
    bias: Matrix


class LstmState:
    """Per-layer (hidden, cell) arrays of B rows, one per live sequence: plain
    arrays in the dtype of the model's LSTM weights (float64, float32 in a
    compute copy), so nothing in a state can reach a tape.

    A plain state holds its rows.  A kept state holds `nodes`, the ids of its
    rows in `store`, a serving cache's node store, and gathers `layers` from
    it at each read.  The page table a `step` reads is not the state's but
    the model's serving cache's, so a state held across a weight edit steps
    with the edited weights throughout.
    """

    def __init__(self, layers, nodes: np.ndarray | None = None, store=None):
        self._layers, self.nodes, self.store = layers, nodes, store

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self._layers if self.nodes is None else _pairs([col[self.nodes] for col in self.store.columns[:-1]])

    def __len__(self) -> int:
        return len(self._layers[0][0]) if self.nodes is None else len(self.nodes)


def _pairs(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (hidden, cell) pair of `rows`: every layer's hidden and cell rows, in layer
    order, then any other rows (a next-page distribution), which it leaves out."""
    return list(zip(rows[0::2], rows[1::2]))


def padded_batch(sequences, known=None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(phrases, rowidx, lengths) of a batch of non-empty phrase sequences.

    `known` maps some phrases to rows 0..len(known) - 1; `phrases` lists
    every other phrase of the sequences once, sorted, at the rows after them.
    `rowidx[b, t]` is the row fed to sequence b at step t, and 0 at the
    padding steps past its length.
    """
    if not all(sequences):
        raise ValueError("input sequence must be non-empty")
    known = {} if known is None else known
    phrases = sorted(set().union(*sequences).difference(known))
    row_of = {phrase: r for r, phrase in enumerate(phrases, len(known))}
    lengths = np.array([len(seq) for seq in sequences])
    rowidx = np.zeros((len(sequences), lengths.max()), dtype=np.intp)
    for b, seq in enumerate(sequences):
        rowidx[b, :len(seq)] = [known[p] if p in known else row_of[p] for p in seq]
    return phrases, rowidx, lengths


@dataclass(frozen=True)
class StepPrediction:
    """Distribution over the next page, emitted after consuming input step t."""

    step: int
    probs: np.ndarray


class SequenceModel:
    """CNN phrase encoder + stacked LSTM + fully connected softmax head."""

    def __init__(self, config: ModelConfig, vocab: PageVocabulary, weights: dict[str, Matrix]):
        """Assemble the model from `weights`, name -> Matrix, which must hold
        exactly the weights of ``parameter_shapes(config, len(vocab))``
        (ShapeError otherwise); the stages, layers and head take them in
        layout order."""
        shapes = parameter_shapes(config, len(vocab))
        if {name: w.shape for name, w in weights.items()} != shapes:
            raise ShapeError("weights do not follow the layout of the config and vocabulary")
        self.config = config
        self.vocab = vocab
        self.weights = {name: weights[name] for name in shapes}
        it = iter(self.weights.values())
        stages = [ConvStage(next(it), next(it), width, pool) for width, _, pool in config.conv_stages]
        self.encoder = CnnEncoder(Alphabet(config.alphabet), config.max_len, stages)
        self.layers = [LstmLayer(next(it), next(it), next(it)) for _ in config.lstm_hidden]
        self.w_fc, self.b_fc, self.w_out, self.b_out = it
        # built by the first serving call
        self._cache: _ServingCache | None = None

    def __getstate__(self) -> dict:
        """Pickle without the cache: unpickled arrays are writeable, so it could not hold."""
        return {**self.__dict__, "_cache": None}

    @classmethod
    def build(cls, config: ModelConfig, vocab: PageVocabulary, seed: int) -> "SequenceModel":
        """A freshly initialised model: each weight matrix is :func:`numerics.glorot`,
        drawn in layout order from one stream; biases are zero except each
        LSTM forget gate's, which is one (the gate starts open)."""
        from . import rng as rngmod

        gen = rngmod.stream(seed, "model-init")
        weights = {}
        for name, (rows, cols) in parameter_shapes(config, len(vocab)).items():
            if name.endswith(".bias"):
                bias = np.zeros((rows, cols))
                if name.startswith("lstm"):
                    bias[0, cols // 4:cols // 2] = 1.0
                weights[name] = Matrix(bias)
            else:
                weights[name] = nm.glorot(gen, rows, cols)
        return cls(config, vocab, weights)

    def parameters(self) -> list[tuple[str, Matrix]]:
        """(name, weight) pairs in the order of :func:`parameter_shapes`."""
        return list(self.weights.items())

    def _serving(self) -> "_ServingCache":
        """This model's serving cache, built anew if missing or if a weight changed (:func:`_unchanged`)."""
        if self._cache is None or not _unchanged(self.weights.values(), self._cache.arrays):
            self._cache = _ServingCache(self)
        return self._cache

    def cast(self) -> "SequenceModel":
        """A model of its own arrays, each the COMPUTE_DTYPE cast of this model's weight at its place."""
        return SequenceModel(self.config, self.vocab, {
            name: Matrix._result(w.data.astype(COMPUTE_DTYPE)) for name, w in self.weights.items()
        })

    def compute_copy(self) -> "SequenceModel":
        """This model's :meth:`cast`, which computes every pass in COMPUTE_DTYPE
        from a snapshot of the weights of this call.

        It builds its own serving cache at once, which freezes its weights, so
        its callers cannot write into it; this model's cache keeps it (see the
        module notes) until a weight of this model changes.
        """
        cache = self._serving()
        if cache.copy is None:
            cache.copy = self.cast()
            cache.copy._serving()
        return cache.copy

    # -- forward pieces ----------------------------------------------------

    def cell_steps(self, xproj: Matrix, state, rows=None) -> list[tuple[Matrix, np.ndarray]]:
        """Run the LSTM stack over layer 0's input projection `xproj`.

        `state` holds each layer's B x H (hidden, cell) arrays to start from.
        Layer 0 reads its (T*B) step rows of `xproj` in order, or through the
        row index `rows` if given; each deeper layer projects the hidden rows
        below it inside its :func:`numerics.lstm_sequence`, which frees the
        projection once its forward pass ends.  Returns, per layer, the
        time-major (T*B) x H hidden rows and cell rows of its
        :func:`numerics.lstm_sequence` (row t*B + b is sequence b after step t).
        """
        layers = []
        for layer, (h0, c0) in zip(self.layers, state):
            if layers:
                layers.append(nm.lstm_sequence(layers[-1][0], layer.wh, layer.bias, h0, c0, wx=layer.wx))
            else:
                layers.append(nm.lstm_sequence(xproj, layer.wh, layer.bias, h0, c0, rows=rows))
        return layers

    def head(self, h: Matrix, dropout_rng: np.random.Generator | None = None) -> Matrix:
        """Fully connected ReLU layer, dropout at the config's rate if given a generator, softmax over classes."""
        fc = nm.dense(h, self.w_fc, self.b_fc, relu=True)
        if dropout_rng is not None:
            fc = nm.dropout(fc, self.config.dropout_rate, dropout_rng)
        return nm.softmax(nm.dense(fc, self.w_out, self.b_out, relu=False))

    def _project(self, phrases: list[str]) -> Matrix:
        """Layer 0's input projection of the CNN embeddings of `phrases`, one row each."""
        return nm.matmul(self.encoder.embed_batch(phrases), self.layers[0].wx)

    def _project_rows(self, phrases: list[str]) -> np.ndarray:
        """The rows of :meth:`_project` of `phrases` as one plain array, MAX_PASS_PHRASES to a CNN pass."""
        return np.concatenate([self._project(phrases[at:at + MAX_PASS_PHRASES]).data
                               for at in range(0, len(phrases), MAX_PASS_PHRASES)])

    def _zero_state(self, batch: int, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's zero (hidden, cell) pair for `batch` sequences: the state a padded pass
        starts :meth:`cell_steps` from."""
        zero = [np.zeros((batch, hs), dtype) for hs in self.config.lstm_hidden]
        return [(z, z) for z in zero]

    def batch_step_probs(
        self,
        phrases: list[str],
        rowidx: np.ndarray,
        dropout_rng: np.random.Generator | None = None,
    ) -> Matrix:
        """Next-page distributions for every step of a padded batch, time-major.

        `rowidx[b, t]` selects the row of `phrases` fed to sequence b at step
        t; a pass needs B >= 1 sequences of T >= 1 steps (ShapeError
        otherwise).  Returns a (T*B) x classes matrix whose row t*B + b is the
        prediction after sequence b consumed step t; rows at padding steps
        are garbage and must be masked by the caller.  The head runs on all
        rows of the pass at once (a dropout mask is drawn as one (T*B) x fc
        block, the same stream as T draws of B x fc).
        """
        rowidx, proj = np.asarray(rowidx), self._project(phrases)
        if not rowidx.size:
            raise ShapeError(f"a pass needs at least one sequence of at least one step, got rows {rowidx.shape}")
        zero = self._zero_state(len(rowidx), proj.data.dtype)
        layers = self.cell_steps(proj, zero, nm.row_index(rowidx.T.ravel(), proj.rows))
        return self.head(layers[-1][0], dropout_rng)

    # -- whole-session paths -------------------------------------------------

    def forward_session(self, phrases: list[str]) -> list[StepPrediction]:
        """Inference pass over one session: one StepPrediction per input step.

        The CNN encodes the session's own phrases in one pass, while a `start` miss
        reads the page table (CNN passes of at most MAX_PASS_PHRASES page names).
        So a `start` of a prefix of `phrases` and `step`s of the rest give the same
        bits only where the CNN's im2col products and layer 0's product keep rows
        independent: tier-1 checks passes of 1 to 16 phrases, which holds every
        page-table pass, but not a session of more distinct phrases.
        """
        phrases, rowidx, _ = padded_batch([phrases])
        probs = self.batch_step_probs(phrases, rowidx).data
        return [StepPrediction(t, p) for t, p in enumerate(probs)]

    def session_nll(self, inputs: list[str], targets: list[int]) -> Matrix:
        """Summed cross-entropy of `targets` under the per-step predictions.

        The session runs through :meth:`batch_step_probs` as a batch of one.
        """
        if len(inputs) != len(targets):
            raise ValueError(f"{len(inputs)} inputs vs {len(targets)} targets")
        phrases, rowidx, _ = padded_batch([inputs])
        probs = self.batch_step_probs(phrases, rowidx)
        return nm.masked_cross_entropy(probs, targets, np.ones(len(targets)))

    # -- incremental inference (simulation protocol) -------------------------

    def start(self, prefixes) -> tuple[LstmState, np.ndarray]:
        """Consume each prefix's keywords + visited pages; return (P-row state, P x N distributions).

        Each of the P prefixes needs `.keywords` (text, possibly empty) and
        `.pages` (iterable of page names).  Every row comes from the model's
        checked serving cache, whose start memo maps every prefix run since
        the last weight change (so an edit of the weights, made as the module
        notes on frozen weights say, is seen by the next `start`) to its root
        node in the cache's node store.  If the memo holds every prefix, the
        state is kept: the nodes' ids, from which `step` reuses the paths
        stepped before.  Otherwise the distinct prefixes the memo lacks run
        through one padded pass (:meth:`_start_rows`) and the store keeps
        them all as new roots; if they would pass MAX_KEPT_NODES, the store
        restarts first and the call's hits run with them.  The state is then
        plain, its rows fresh gathers from the store, so no caller writes
        into it.  Since every product is a `rows_product`, row k is bit for
        bit that of ``start([prefixes[k]])``, warm or cold, wherever the BLAS
        keeps rows independent (see the module notes).
        """
        keys = [(p.keywords, *p.pages) for p in prefixes]
        if not keys:
            raise ValueError("start needs at least one prefix")
        cache = self._serving()
        fresh = list(dict.fromkeys(key for key in keys if key not in cache.memo))
        if fresh:
            if cache.nodes.size + len(fresh) > MAX_KEPT_NODES:  # a restart drops the hits: they run again
                cache.memo, cache.nodes = {}, _NodeStore()
                fresh = list(dict.fromkeys(keys))
            rows = self._start_rows(fresh, cache.page_table(self))
            cache.memo.update(zip(fresh, cache.nodes.add(rows).tolist()))
        nodes, ids = cache.nodes, np.array([cache.memo[key] for key in keys])
        if not fresh:
            return LstmState(None, ids, nodes), nodes.columns[-1][ids]
        rows = [col[ids] for col in nodes.columns]
        return LstmState(_pairs(rows)), rows[-1]

    def _start_rows(self, sequences, table: np.ndarray) -> list[np.ndarray]:
        """Each layer's hidden and cell rows, then the next-page distributions, of one padded
        pass over phrase sequences, each taken at its own last step.

        A phrase that names a page feeds that page's row of the page `table`;
        the CNN encodes each other phrase once (:meth:`_project_rows`).
        """
        phrases, rowidx, lengths = padded_batch(sequences, self.vocab._index)
        idx = rowidx.T.ravel()
        new = idx >= len(table)
        x = table[np.where(new, 0, idx)]
        if phrases:
            x[new] = self._project_rows(phrases)[idx[new] - len(table)]
        layers = self.cell_steps(Matrix._result(x), self._zero_state(len(lengths), x.dtype))
        return self._pass_rows(layers, (lengths - 1) * len(lengths) + np.arange(len(lengths)))

    def step(self, state: LstmState, rows, pages) -> tuple[LstmState, np.ndarray]:
        """Feed page `pages[j]` to row `rows[j]` of `state`, for every j at once.

        Returns (new B-row state, B x N next-page distributions), B = len(pages);
        `state` is left untouched, so one state can branch into several futures.
        `rows` must index rows of `state` and `pages` page classes, one
        page for each of at least one row (ShapeError otherwise).  Layer 0's
        input rows are those of `pages` in the page table of the model's
        checked serving cache.  A kept state whose store
        is still that cache's looks up each row's child through its page:
        one :meth:`cell_steps` and head run over the distinct children the
        store lacks, from their parents' stored rows, the store keeps them,
        and the new state is kept, its distributions gathered from the store.
        If the new children would pass MAX_KEPT_NODES, or the state is plain,
        each layer's rows are plain gathers, fed to :meth:`cell_steps` with
        the table and `pages` as its row index, and the new state is plain.
        """
        cache = self._serving()
        table, nodes = cache.page_table(self), state.store
        rows = nm.row_index(rows, len(state))
        pages = nm.row_index(pages, len(table))
        if rows.shape != pages.shape or not rows.size:
            raise ShapeError(f"{rows.size} rows for {pages.size} pages; a step feeds at least one row")
        if nodes is not None and nodes is cache.nodes:
            parents = state.nodes[rows]
            ids = nodes.child[parents, pages]
            new = np.flatnonzero(ids < 0)
            pairs = dict.fromkeys((parents[new] * len(table) + pages[new]).tolist()) if len(new) else {}
            if nodes.size + len(pairs) <= MAX_KEPT_NODES:
                if pairs:
                    origin, page = np.divmod(np.fromiter(pairs, np.intp), len(table))
                    prev = _pairs([col[origin] for col in nodes.columns[:-1]])
                    nodes.add(self._step_rows(prev, table, page), origin, page)
                    ids = nodes.child[parents, pages]
                return LstmState(None, ids, nodes), nodes.columns[-1][ids]
        rows = self._step_rows([(h[rows], c[rows]) for h, c in state.layers], table, pages)
        return LstmState(_pairs(rows)), rows[-1]

    def _step_rows(self, prev, table: np.ndarray, pages: np.ndarray) -> list[np.ndarray]:
        """Each layer's hidden and cell rows, then the next-page distributions, of one step
        from `prev` (each layer's hidden and cell rows) on the `table` rows of `pages`."""
        return self._pass_rows(self.cell_steps(Matrix._result(table), prev, pages))

    def _pass_rows(self, layers, keep=slice(None)) -> list[np.ndarray]:
        """Each layer's hidden and cell rows at `keep` of a :meth:`cell_steps` result, then the
        next-page distributions of the head over the last layer's kept hidden rows."""
        rows = [a[keep] for h, c in layers for a in (h.data, c)]
        return [*rows, self.head(Matrix._result(rows[-2])).data]


class _NodeStore:
    """The rollout trees of a serving cache's started prefixes, in the dtype of its rows.

    Node i holds row i of each of `columns` (each layer's hidden and cell
    row, then the next-page distribution row) and `child[i, page]`, the node
    one step further through `page` (-1 until a kept `step` computes it).
    A started prefix is a root.  Nodes are only added, never changed, so an
    id stays valid while any state holds the store; the arrays grow by
    doubling, up to MAX_KEPT_NODES rows or what one `start` call adds.
    """

    def __init__(self):
        self.size, self.columns, self.child = 0, [], np.empty((0, 0), np.int32)

    def add(self, rows: list[np.ndarray], parents=None, pages=None) -> np.ndarray:
        """Keep row j of `rows` (laid out as `columns`) as a new node, the child of
        node `parents[j]` through page `pages[j]` if given; return the new ids."""
        n, m = self.size, len(rows[0])
        if n + m > len(self.child):
            cap = max(min(max(2 * len(self.child), 64), MAX_KEPT_NODES), n + m)
            grown = [np.empty((cap, a.shape[1]), a.dtype) for a in rows]
            grown.append(np.full((cap, rows[-1].shape[1]), -1, np.int32))
            if n:
                for new, old in zip(grown, [*self.columns, self.child]):
                    new[:n] = old[:n]
            *self.columns, self.child = grown
        for col, a in zip(self.columns, rows):
            col[n:n + m] = a
        ids = np.arange(n, n + m)
        if parents is not None:
            self.child[parents, pages] = ids
        self.size = n + m
        return ids


class _ServingCache:
    """What serving builds from a model's weights: their `arrays`, each set read-only, then, each
    when first needed, the page table (:meth:`page_table`), the start `memo` ((keywords, *pages)
    -> that prefix's root in `nodes`), the `nodes` themselves (a :class:`_NodeStore`) and the
    compute `copy`."""

    def __init__(self, model: SequenceModel):
        self.arrays = tuple(w.data for w in model.weights.values())
        for a in self.arrays:
            a.flags.writeable = False
        self.table, self.memo, self.nodes, self.copy = None, {}, _NodeStore(), None

    def page_table(self, model: SequenceModel) -> np.ndarray:
        """The V x 4H page table of `model`, the model this cache was built for: layer 0's
        projection of the CNN embeddings of its page names (:meth:`SequenceModel._project_rows`),
        built read-only by the first call."""
        if self.table is None:
            self.table = model._project_rows(list(model.vocab.page_names))
            self.table.flags.writeable = False
        return self.table


def _unchanged(weights, kept: tuple[np.ndarray, ...]) -> bool:
    """Whether `weights` still hold the arrays `kept` (a serving cache's), each still read-only.

    This is the validity rule of the serving cache: a weight edited since
    holds a new array or one made writeable again.
    """
    return all(w.data is k and not k.flags.writeable for w, k in zip(weights, kept))


def predict_next(model, prefix) -> np.ndarray:
    """Distribution over the page following `prefix` (includes NULL page)."""
    return model.start([prefix])[1][0]


def session_loss(predictions: list[StepPrediction], session: Session, vocab: PageVocabulary) -> float:
    """Summed next-page cross-entropy (nats) of a session under `predictions`.

    The targets are those of :func:`journeydata.expand_session`; `predictions` must
    contain exactly one entry per target.
    """
    _, targets = expand_session(session, vocab)
    if len(predictions) != len(targets):
        raise ValueError(f"{len(predictions)} predictions for {len(targets)} transition targets")
    total = 0.0
    for pred, target in zip(predictions, targets):
        total += -np.log(max(float(pred.probs[target]), nm.PROB_FLOOR))
    return total


# ---------------------------------------------------------------------------
# checkpointing


def _encode_array(data: np.ndarray) -> dict:
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(np.ascontiguousarray(data, dtype="<f8").tobytes()).decode(),
    }


def _decode_array(d: dict) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8").copy()
    return arr.reshape(d["shape"])


def model_to_dict(model: SequenceModel) -> dict:
    return {
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "weights": {name: _encode_array(p.data) for name, p in model.parameters()},
    }


def checkpoint_field(d, key: str, kind: type, where: str):
    """`d[key]`, where `d` must be a JSON object holding a `kind` (dict or list) there."""
    value = d.get(key) if isinstance(d, dict) else None
    if not isinstance(value, kind):
        noun = "object" if kind is dict else "list"
        raise CheckpointError(f"{where} has no {key!r} {noun}")
    return value


def model_from_dict(d: dict) -> SequenceModel:
    """The model stored in `d`, assembled from its arrays; loading draws no weights.

    Every stored weight must be one that :func:`parameter_shapes` lays out
    for the stored config (CheckpointError naming any other, and for a
    layout over MAX_WEIGHTS, so a config naming absurd sizes fails before
    any array is decoded), each decodes to an array of finite values
    (CheckpointError naming the weight otherwise), and `SequenceModel`
    checks each decoded array's shape against that layout (ShapeError).
    """
    config, vocab, weights = (
        checkpoint_field(d, key, dict, "checkpoint model") for key in ("config", "vocab", "weights")
    )
    try:
        config = ModelConfig.from_dict(config)
        vocab = PageVocabulary.from_dict(vocab)
        shapes = parameter_shapes(config, len(vocab))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint model has a bad config or vocabulary ({exc!r})") from exc
    unknown = sorted(set(weights).difference(shapes))
    if unknown:
        raise CheckpointError(f"checkpoint has weights {unknown} that its config does not lay out")

    def weight(name: str) -> Matrix:
        if name not in weights:
            raise CheckpointError(f"checkpoint is missing weights for {name!r}")
        try:
            arr = _decode_array(weights[name])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"checkpoint weights for {name!r} are not an array") from exc
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint weights for {name!r} are not all finite")
        return Matrix(arr)

    return SequenceModel(config, vocab, {name: weight(name) for name in shapes})


def write_checkpoint(path, fmt: str, key: str, body) -> None:
    """Write `{"format": fmt, "version": CHECKPOINT_VERSION, key: body}` as sorted-key JSON."""
    payload = {"format": fmt, "version": CHECKPOINT_VERSION, key: body}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_checkpoint(path) -> dict:
    """The JSON object stored in a checkpoint file of any format, at CHECKPOINT_VERSION."""
    payload = parse_json(read_text(path), CheckpointError, f"{path}: not a JSON checkpoint")
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: a checkpoint must be a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    return payload


def save_model(model: SequenceModel, path) -> None:
    write_checkpoint(path, CHECKPOINT_FORMAT, "model", model_to_dict(model))


def load_model(path) -> SequenceModel:
    payload = read_checkpoint(path)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a model checkpoint")
    return model_from_dict(checkpoint_field(payload, "model", dict, str(path)))
