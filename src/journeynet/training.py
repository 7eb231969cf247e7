"""Mini-batch training, evaluation, and ensembling of journey models.

Sessions are dwell-expanded, bucketed by length, and padded within each
batch; padding steps are masked out of the loss.  The optimizer is plain
gradient descent with a per-parameter adaptive step (running average of
squared gradients) and global-norm gradient clipping.  Training and
evaluation run in float32, on the path :mod:`journeynet.seqmodel`'s module
notes describe: `train` casts its float64 initial draw once to the model
it trains, keeps no float64 weight and returns that model upcast once,
and `evaluate` steps each model's `compute_copy`.  Each batch's forward
and backward pass runs on the float32 model, and the optimizer step
updates its arrays in place; only the clip norm sums squares in float64.
One helper thread runs the leaf-gradient products of the backward pass
and, in each optimizer step, its own set of whole weights, fixed when
training starts, while the calling thread runs the rest; neither changes
a bit.  Every random
choice (init, shuffling, dropout) derives from the config seed, so a run is
exactly repeatable.  Each epoch ends with a plain `evaluate` of the model
as it trains on the held-out sessions (so a standalone `evaluate` of the
returned model gives the last epoch's result bit for bit), which steps
their distinct input prefixes, not their padded sequences, through prefix
trees that it builds on every call, and pools its loss and accuracy over
every step in sorted-session order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from . import rng as rngmod
from .errors import CheckpointError, ConfigError, TrainingError, check_int, check_iterable, check_number
from .journeydata import PageVocabulary, expand_session
from .seqmodel import (
    CHECKPOINT_FORMAT,
    ModelConfig,
    SequenceModel,
    checkpoint_field,
    model_from_dict,
    model_to_dict,
    _pairs,
    padded_batch,
    predict_next,
    read_checkpoint,
    write_checkpoint,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

ENSEMBLE_FORMAT = "journeynet-ensemble"


# adaptive step: decay of the running average of squared gradients, and its floor
RMS_DECAY = 0.9
RMS_EPSILON = 1e-8
# most nodes at one depth of a prefix tree of `evaluate`, and so most rows of
# one pass through `cell_steps` and the head and most state rows held at once
# (tier-1 checks that each row of the model's products keeps its bits up to this many)
EVAL_ROWS = 128


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """A ModelConfig plus the settings of one training run."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    gradient_clip_norm: float = 5.0

    def __post_init__(self):
        super().__post_init__()
        check_int(self.epochs, "epochs", ConfigError, low=1)
        check_int(self.batch_size, "batch_size", ConfigError, low=1)
        check_int(self.seed, "seed", ConfigError)
        check_number(self.learning_rate, "learning_rate", ConfigError)
        check_number(self.gradient_clip_norm, "gradient_clip_norm", ConfigError)
        # `not x > 0` also rejects NaN
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not self.gradient_clip_norm > 0:
            raise ConfigError(f"gradient_clip_norm must be > 0, got {self.gradient_clip_norm}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.to_dict())


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,eval_loss,eval_accuracy"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.train_loss!r},{e.eval_loss!r},{e.eval_accuracy!r}")
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]


class _AdaptiveStep:
    """Per-parameter scaling by a running average of squared gradients, written in place.

    `params` are the float32 weights that train: each one's `grad` holds
    its gradient, and the step is the one writer of its data.
    Each whole weight belongs to one of two sides, fixed here: the weights
    are taken largest first, each onto the side with fewer entries so far
    (the calling thread's on a tie).  Side 0 runs on the calling thread and
    side 1 on `helper` (an executor with one worker), at the same time.
    The step keeps one float32 running average per weight and one float64
    scratch buffer per side, sized to the side's largest weight,
    which the calling thread allocates.  `step` first has each side square
    each of its gradients into its buffer in float64 and sum it; the calling
    thread adds the sums up in layout order for the norm.  Then each side
    reads its buffer as two float32 halves, each as large as its largest
    weight: for each weight it copies the gradient into the first (so no
    `grad` is written) and updates the weight and its average in place,
    allocating nothing, so at its peak a step holds only the weights, their
    gradients and running averages and the two buffers.  Every entry gets the
    bits one thread would give it.  Once both sides are done, every `grad` is
    None, so the next backward pass starts from none.  Every weight of the
    training graph feeds every batch's loss, so every one has a gradient.
    """

    def __init__(self, params, config: TrainConfig, helper: Executor):
        self.params = params
        # Python floats, so that float32 arrays compute in float32 under every numpy's promotion rules
        self.lr = float(config.learning_rate)
        self.clip = float(config.gradient_clip_norm)
        self.helper = helper
        self.sq = [np.zeros_like(p.data) for p in params]
        self.sides, load = ([], []), [0, 0]
        for k in sorted(range(len(params)), key=lambda k: -params[k].data.size):  # stable: layout order on ties
            side = 0 if load[0] <= load[1] else 1
            self.sides[side].append(k)
            load[side] += params[k].data.size
        largest = [max((params[k].data.size for k in ks), default=0) for ks in self.sides]
        self.scratch = [np.zeros(size) for size in largest]

    def step(self) -> None:
        sums = [0.0] * len(self.sq)
        self._on_both_sides(self._sum_squares, sums)
        sumsq = 0.0
        for part in sums:  # in layout order, one float add at a time (Python 3.12's `sum` compensates)
            sumsq += part
        norm = math.sqrt(sumsq)
        factor = self.clip / norm if norm > self.clip else None
        self._on_both_sides(self._update, factor)
        for p in self.params:
            p.grad = None

    def _on_both_sides(self, work, arg) -> None:
        """`work(arg, 1)` on the helper while `work(arg, 0)` runs here."""
        task = self.helper.submit(work, arg, 1)
        try:
            work(arg, 0)
        finally:
            task.exception()  # the helper's side is done, also when this side failed
        task.result()

    def _sum_squares(self, sums: list, side: int) -> None:
        """Write the float64 sum of squares of each gradient of the side's weights into `sums`."""
        buf = self.scratch[side]
        for k in self.sides[side]:
            grad = self.params[k].grad
            t = buf[:grad.size].reshape(grad.shape)
            np.copyto(t, grad)  # then a plain float64 multiply, not a casting one: the same squares
            np.multiply(t, t, out=t)
            sums[k] = float(t.sum())

    def _update(self, factor, side: int) -> None:
        """Update the side's weights and their averages in place, through the two halves of its buffer."""
        halves = self.scratch[side].view(np.float32).reshape(2, -1)
        for k in self.sides[side]:
            p, v = self.params[k], self.sq[k]
            g, t = (h[:v.size].reshape(v.shape) for h in halves)
            np.copyto(g, p.grad)
            if factor is not None:
                g *= factor
            # v = d * v + ((1 - d) * g) * g;  w -= (lr * g) / (sqrt(v) + eps), associated
            # exactly so, which keeps the step bitwise that of the unfused formula
            v *= RMS_DECAY
            np.multiply(g, 1.0 - RMS_DECAY, out=t)
            t *= g
            v += t
            g *= self.lr
            np.sqrt(v, out=t)
            t += RMS_EPSILON
            g /= t
            p.data -= g


def _make_batches(expanded, order, batch_size, rng):
    """Chunk a shuffled index order of `expanded`, (inputs, targets) pairs of
    `expand_session`, into batches of similar length, in an order `rng` shuffles.

    The shuffled order is stably re-sorted by expanded length so padding waste
    stays low, and batch composition still varies per epoch.  The batch list
    itself is then re-shuffled: visiting batches in ascending length order
    would end every epoch on the longest sessions, whose early steps are
    never exit transitions, and that ordering bias leaks into the weights.
    """
    by_len = sorted(order, key=lambda i: len(expanded[i][0]))
    batches = [by_len[i:i + batch_size] for i in range(0, len(by_len), batch_size)]
    return [batches[i] for i in rng.permutation(len(batches))]


def _batch_tensors(expanded, idx_batch):
    """Pad a batch to its max length; returns (phrases, rowidx, targets, mask).

    The "" phrase is row 0 and feeds every padding step.
    """
    phrases, rowidx, lengths = padded_batch([expanded[i][0] for i in idx_batch], {"": 0})
    phrases = ["", *phrases]
    targets = np.zeros(rowidx.shape, dtype=np.intp)
    mask = np.zeros(rowidx.shape)
    for bi, (i, t) in enumerate(zip(idx_batch, lengths)):
        targets[bi, :t] = expanded[i][1]
        mask[bi, :t] = 1.0
    return phrases, rowidx, targets, mask


def _batch_loss(model, phrases, rowidx, targets, mask, dropout_rng):
    """Taped summed cross-entropy over all unmasked steps of a batch."""
    probs = model.batch_step_probs(phrases, rowidx, dropout_rng)
    return nm.masked_cross_entropy(probs, targets.T.ravel(), mask.T.ravel())


def train(
    sessions,
    config: TrainConfig,
    vocab: PageVocabulary,
    eval_sessions=None,
) -> tuple[SequenceModel, TrainReport]:
    """Train a model on `sessions`; returns the model and per-epoch stats.

    Per-epoch evaluation runs on `eval_sessions` when provided, otherwise on
    the training sessions; an empty `eval_sessions`, and `sessions` or
    `eval_sessions` that are no ordered iterable (`errors.check_iterable`: a
    set's order is the hash seed's), are a ConfigError before the first
    batch.  Identical (data, config, seed) give identical final weights and
    report.
    """
    sessions = check_iterable(sessions, "sessions", ConfigError, ordered=True)
    if not sessions:
        raise ConfigError("no training sessions")
    for s in sessions:
        if not s.events:
            raise ConfigError(f"training session {s.session_id!r} has no page events")
    held_out = sessions if eval_sessions is None else check_iterable(
        eval_sessions, "eval_sessions", ConfigError, ordered=True)
    if not held_out:
        raise ConfigError("no sessions to evaluate")
    # the float32 model that trains: the optimizer step writes its weights in place
    model = SequenceModel.build(config.model_config(), vocab, config.seed).cast()
    expanded = [expand_session(s, vocab) for s in sessions]
    params = [p for _, p in model.parameters()]
    report = TrainReport()
    from concurrent.futures import ThreadPoolExecutor  # only training pays its import

    # one helper thread for the leaf-gradient products and one side of each optimizer step
    with ThreadPoolExecutor(max_workers=1) as helper:
        optimizer = _AdaptiveStep(params, config, helper)
        # one tape, entered once per batch, so its LSTM rows serve every batch
        tape = nm.ComputeTape(params, helper)
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            epoch_rng = rngmod.stream(config.seed, "shuffle", epoch)
            order = epoch_rng.permutation(len(expanded))
            nats = 0.0
            steps = 0.0
            batches = _make_batches(expanded, list(order), config.batch_size, epoch_rng)
            for bi, idx_batch in enumerate(batches):
                phrases, rowidx, targets, mask = _batch_tensors(expanded, idx_batch)
                dropout_rng = rngmod.stream(config.seed, "dropout", epoch, bi)
                with tape:
                    total = _batch_loss(model, phrases, rowidx, targets, mask, dropout_rng)
                    n_steps = float(mask.sum())
                    mean_loss = nm.scale(total, 1.0 / n_steps)
                if not np.isfinite(total.item()):
                    raise TrainingError("training loss diverged", epoch=epoch, batch=bi)
                nm.backward(tape, mean_loss)
                optimizer.step()
                nats += total.item()
                steps += n_steps
            eval_acc, eval_loss = evaluate(model, held_out, vocab)
            report.epochs.append(
                EpochStats(
                    epoch=epoch,
                    train_loss=nats / steps,
                    eval_loss=eval_loss,
                    eval_accuracy=eval_acc,
                    seconds=time.perf_counter() - t0,
                )
            )
    return model.cast(np.float64), report


def evaluate(predictor, sessions, vocab: PageVocabulary) -> tuple[float, float]:
    """(next-page accuracy, mean loss in nats), pooled over every step.

    Accuracy counts steps whose argmax prediction (ties to the lowest index)
    equals the true next page; dropout is disabled.  `predictor` is a model
    or an ensemble, and `vocab` must hold its page names (ConfigError
    otherwise, and for no sessions).  Every model runs as its
    `SequenceModel.compute_copy`: a float32 model as it is, writeable (the
    model that trains, at each epoch's end), and a float64 one as the
    float32 cast that its serving cache keeps, which the first `evaluate`
    or serving call makes and which freezes it; `evaluate` writes no
    weight.  The sessions' (inputs, targets) pairs of `expand_session` are
    sorted, and their expanded inputs cut into runs whose prefix trees
    hold at most EVAL_ROWS nodes at each depth (:func:`_runs`); each run's
    distinct prefixes run once, one depth to a pass
    (:func:`_depth_distributions`), so a prefix runs twice only where it
    spans a cut; an ensemble averages its members' distributions at each
    node.  Of a depth's distributions only each step's target probability and
    argmax hit are kept, so beyond one pass the memory grows only with the
    steps.  Both results are the means of these per-step arrays, laid out
    session by session in sorted order.  Since every product keeps each row's
    bits (see `seqmodel`), a step's probability and hit are those of a padded
    pass over its session alone, and the result depends only on the multiset
    of sessions: not on their order, EVAL_ROWS or the CNN's phrase bound.
    """
    if vocab.page_names != predictor.vocab.page_names:
        raise ConfigError("evaluate needs the vocabulary of the predictor")
    expanded = sorted(expand_session(s, vocab)
                      for s in check_iterable(sessions, "sessions", ConfigError, ordered=True))
    if not expanded:
        raise ConfigError("no sessions to evaluate")
    inputs = [x for x, _ in expanded]
    lengths = np.array([len(x) for x in inputs])
    first = np.cumsum(lengths) - lengths  # each session's first step in the per-step arrays
    targets = np.concatenate([y for _, y in expanded])
    prob, hit = np.zeros(len(targets)), np.zeros(len(targets), bool)
    models = [m.compute_copy() for m in (predictor.models if isinstance(predictor, Ensemble) else [predictor])]
    for run in _runs(inputs):
        for t, (live, at, dist) in enumerate(_depth_distributions(models, inputs[run])):
            step = first[run.start + live] + t
            prob[step] = dist[at, targets[step]]
            hit[step] = dist.argmax(axis=1)[at] == targets[step]
    return float(hit.mean()), float(-np.log(np.maximum(prob, nm.PROB_FLOOR)).mean())


def _runs(sequences):
    """Slices of sorted non-empty phrase sequences into consecutive runs whose prefix
    trees hold at most EVAL_ROWS nodes at each depth (identical sequences share a run)."""
    nodes = np.zeros(max(map(len, sequences)), np.intp)  # the open run's nodes at each depth
    start = 0
    for i, seq in enumerate(sequences):
        # sorted, a sequence adds one node at each depth past its common prefix with the one before
        prev = sequences[i - 1] if i > start else []
        shared = next((t for t, (a, b) in enumerate(zip(prev, seq)) if a != b), len(prev))
        if (nodes[shared:len(seq)] == EVAL_ROWS).any():
            yield slice(start, i)
            start, shared = i, 0
            nodes[:] = 0
        nodes[shared:len(seq)] += 1
    yield slice(start, len(sequences))


def _depth_distributions(models, sequences):
    """Yield, depth by depth, the prefix tree of non-empty phrase sequences stepped by `models`.

    The nodes of depth t are the distinct prefixes of t + 1 phrases.  Depth t
    yields (live, node, dist): the indices of the sequences longer than t,
    the node of each one's first t + 1 phrases, and the next-page
    distributions of the depth's nodes, the member mean of `models` (of one
    model, its own bits).  Each model projects every phrase once for layer 0
    (`SequenceModel._project_rows`), and steps each depth in one pass from its
    nodes' parents' rows of the depth before through
    `SequenceModel._step_rows`; a root's parent -1 picks the one row of the
    zero state.  Only the rows of the last depth are kept.
    """
    phrases, rowidx, lengths = padded_batch(sequences)
    tables = [m._project_rows(phrases) for m in models]
    states = [m._zero_state(1) for m in models]
    node = np.full(len(sequences), -1, np.intp)
    for t in range(lengths.max()):
        live = np.flatnonzero(lengths > t)
        # a node is a distinct (parent, phrase) pair; floor division gives a root's parent -1
        pairs, node[live] = np.unique(node[live] * len(phrases) + rowidx[live, t], return_inverse=True)
        parents, rows = np.divmod(pairs, len(phrases))
        dists = []
        for k, (model, table) in enumerate(zip(models, tables)):
            *state, dist = model._step_rows([(h[parents], c[parents]) for h, c in states[k]], table, rows)
            states[k] = _pairs(state)
            dists.append(dist)
        yield live, node[live], np.mean(dists, axis=0)


class Ensemble:
    """Independently trained models over one vocabulary; predictions average."""

    def __init__(self, models: list[SequenceModel]):
        if not models:
            raise ValueError("ensemble needs at least one member")
        if any(m.vocab.page_names != models[0].vocab.page_names for m in models):
            raise ValueError("ensemble members must share one vocabulary")
        self.models = models

    def __len__(self) -> int:
        return len(self.models)

    @property
    def vocab(self) -> PageVocabulary:
        return self.models[0].vocab

    def start(self, prefixes):
        """Every member's P-row start state, and the member mean of their P x N distributions."""
        prefixes = list(prefixes)  # every member reads them
        states, dists = zip(*(m.start(prefixes) for m in self.models))
        return list(states), np.mean(dists, axis=0)

    def step(self, states, rows, pages):
        states, dists = zip(*(m.step(s, rows, pages) for m, s in zip(self.models, states)))
        return list(states), np.mean(dists, axis=0)

    def compute_copy(self) -> "Ensemble":
        """An ensemble of the members' compute copies (`SequenceModel.compute_copy`)."""
        return Ensemble([m.compute_copy() for m in self.models])


def train_ensemble(
    sessions,
    config: TrainConfig,
    vocab: PageVocabulary,
    k: int = 5,
    eval_sessions=None,
) -> tuple[Ensemble, list[TrainReport]]:
    """Train k models with seeds seed+0 .. seed+k-1 (ConfigError unless k is an int >= 1)."""
    check_int(k, "ensemble size", ConfigError, low=1)
    # every member reads them
    sessions = check_iterable(sessions, "sessions", ConfigError, ordered=True)
    if eval_sessions is not None:
        eval_sessions = check_iterable(eval_sessions, "eval_sessions", ConfigError, ordered=True)
    models = []
    reports = []
    for member in range(k):
        model, report = train(
            sessions, replace(config, seed=config.seed + member), vocab, eval_sessions
        )
        models.append(model)
        reports.append(report)
    return Ensemble(models), reports


# An ensemble serves the predictor protocol of one model, so its next-page
# distribution (the member mean) is predict_next's.
ensemble_predict = predict_next


def save_ensemble(ensemble: Ensemble, path) -> None:
    write_checkpoint(path, ENSEMBLE_FORMAT, "members", [model_to_dict(m) for m in ensemble.models])


def load_predictor(path):
    """Load either a single-model or an ensemble checkpoint."""
    payload = read_checkpoint(path)
    fmt = payload.get("format")
    if fmt == CHECKPOINT_FORMAT:
        return model_from_dict(checkpoint_field(payload, "model", dict, str(path)))
    if fmt == ENSEMBLE_FORMAT:
        models = [model_from_dict(d) for d in checkpoint_field(payload, "members", list, str(path))]
        try:
            return Ensemble(models)
        except ValueError as exc:  # no members, or members of different vocabularies
            raise CheckpointError(f"{path}: not a valid ensemble ({exc})") from exc
    raise CheckpointError(f"{path}: unrecognised checkpoint format {fmt!r}")
