"""Mini-batch training, evaluation, and ensembling of journey models.

Sessions are dwell-expanded, bucketed by length, and padded within each
batch; padding steps are masked out of the loss.  The optimizer is plain
gradient descent with a per-parameter adaptive step (running average of
squared gradients) and global-norm gradient clipping.  Each batch's forward
and backward pass runs in float32 on a twin model of its own arrays, the
`SequenceModel.cast` of the float64 master weights (the cast that also
builds the served compute copy, so the model that trains is the model that
serves); the masters and the optimizer state take the update from the
twin's gradients, and the step writes the cast of each updated master into
the twin and clears the twin's gradients (mixed precision, Micikevicius et
al., arXiv:1710.03740).  Every random
choice (init, shuffling, dropout) derives from the config seed, so a run is
exactly repeatable.  Each epoch ends with a plain `evaluate` of the float64
model on the held-out sessions, which it expands and pads on every call.
"""

from __future__ import annotations

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
# sessions per evaluation batch; a batch holds (steps x EVAL_BATCH) x 4H
# input projections at once, so it is kept small
EVAL_BATCH = 16


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
    """Per-parameter scaling by a running average of squared gradients.

    Each Matrix of `twin` is the twin of the weight of `params` at its place
    (in training, a weight of the float32 twin model): its `grad` holds the
    weight's gradient, and its data the weight cast to its dtype.  The step
    is the one writer of both once the twin is built.
    It keeps one float64 running average per weight and one float64 scratch
    buffer sized to the largest weight (rounded up to four quarters).
    `step` squares each gradient, of any float dtype, into the buffer in
    float64 for the norm; then each thread updates its half of every weight
    in chunks of a quarter of the buffer, using its two quarters: it copies
    a chunk of the gradient into the first, updates the float64 weights in
    place and copies each updated entry into its twin, allocating nothing,
    so at its peak a step holds only the weights, their twins and
    gradients, their running averages and the buffer.  The first half of
    every weight's entries runs on the calling thread and the rest on
    `helper` (an executor with one worker) at the same time.  Every entry
    gets the bits one thread would give it.  Once both halves are done,
    every twin's `grad` is None, so the next backward pass starts from none.
    Every weight of the training graph feeds every batch's loss, so every
    one has a gradient.
    """

    def __init__(self, params, twin, config: TrainConfig, helper: Executor):
        self.params, self.twin = params, twin
        self.lr = config.learning_rate
        self.clip = config.gradient_clip_norm
        self.helper = helper
        self.sq = [np.zeros_like(p.data) for p in params]
        self.quarter = -(-max(p.data.size for p in params) // 4)
        self.scratch = np.zeros(4 * self.quarter)

    def step(self) -> None:
        sumsq = 0.0
        for src, v in zip(self.twin, self.sq):
            t = self.scratch[:v.size].reshape(v.shape)
            sumsq += float(np.multiply(src.grad, src.grad, out=t, dtype=np.float64).sum())
        norm = np.sqrt(sumsq)
        factor = self.clip / norm if norm > self.clip else None
        task = self.helper.submit(self._update, factor, 1)
        try:
            self._update(factor, 0)
        finally:
            task.exception()  # the helper's half is done, also when this half failed
        task.result()
        for leaf in self.twin:
            leaf.grad = None

    def _update(self, factor, half: int) -> None:
        """Update half of the entries of every weight, its twin and average:
        the first size // 2 of each (`half` 0, in the buffer's first two
        quarters) or the rest (`half` 1, in its last two)."""
        q = self.quarter
        gbuf, tbuf = (self.scratch[k * q:(k + 1) * q] for k in (2 * half, 2 * half + 1))
        for p, leaf, avg in zip(self.params, self.twin, self.sq):
            entries = slice(avg.size // 2) if half == 0 else slice(avg.size // 2, None)
            flat = [a.reshape(-1)[entries] for a in (p.data, leaf.data, leaf.grad, avg)]
            for at in range(0, len(flat[0]), q):
                w, cast, grad, v = (a[at:at + q] for a in flat)
                g, t = gbuf[:v.size], tbuf[:v.size]
                np.copyto(g, grad)
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
                w -= g
                np.copyto(cast, w)


def _make_batches(expanded, order, batch_size, rng=None):
    """Chunk a shuffled index order of `expanded`, (inputs, targets) pairs of
    `expand_session`, into batches of similar length.

    The shuffled order is stably re-sorted by expanded length so padding waste
    stays low, and batch composition still varies per epoch.  The batch list
    itself is then re-shuffled: visiting batches in ascending length order
    would end every epoch on the longest sessions, whose early steps are
    never exit transitions, and that ordering bias leaks into the weights.
    """
    by_len = sorted(order, key=lambda i: len(expanded[i][0]))
    batches = [by_len[i:i + batch_size] for i in range(0, len(by_len), batch_size)]
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


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
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    expanded = [expand_session(s, vocab) for s in sessions]
    params = [p for _, p in model.parameters()]
    # the float32 model each batch runs on; the optimizer step keeps it the cast of the masters
    twin = model.cast()
    leaves = [p for _, p in twin.parameters()]
    report = TrainReport()
    from concurrent.futures import ThreadPoolExecutor  # only training pays its import

    # one helper thread for the leaf-gradient products and half of each optimizer step
    with ThreadPoolExecutor(max_workers=1) as helper:
        optimizer = _AdaptiveStep(params, leaves, config, helper)
        # one tape, entered once per batch, so its LSTM rows serve every batch
        tape = nm.ComputeTape(leaves, helper)
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
                    total = _batch_loss(twin, phrases, rowidx, targets, mask, dropout_rng)
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
    return model, report


def evaluate(predictor, sessions, vocab: PageVocabulary) -> tuple[float, float]:
    """(next-page accuracy, mean loss in nats), pooled over every step.

    Accuracy counts steps whose argmax prediction (ties to the lowest index)
    equals the true next page; dropout is disabled.  `predictor` is a model
    or an ensemble, and `vocab` must hold its page names (ConfigError
    otherwise, and for no sessions).  Sessions run in batches of EVAL_BATCH,
    in `_make_batches` order.
    """
    if vocab.page_names != predictor.vocab.page_names:
        raise ConfigError("evaluate needs the vocabulary of the predictor")
    expanded = [expand_session(s, vocab) for s in check_iterable(sessions, "sessions", ConfigError, ordered=True)]
    if not expanded:
        raise ConfigError("no sessions to evaluate")
    hits = 0.0
    nats = 0.0
    steps = 0.0
    for idx_batch in _make_batches(expanded, list(range(len(expanded))), EVAL_BATCH):
        phrases, rowidx, targets, mask = _batch_tensors(expanded, idx_batch)
        all_probs = predictor.batch_step_probs(phrases, rowidx).data
        for t, probs in enumerate(np.split(all_probs, rowidx.shape[1])):
            m = mask[:, t] > 0
            pred = probs.argmax(axis=1)
            hits += float((pred[m] == targets[m, t]).sum())
            p = np.maximum(probs[m, targets[m, t]], nm.PROB_FLOOR)
            nats += float(-np.log(p).sum())
            steps += float(m.sum())
    return hits / steps, nats / steps


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

    def batch_step_probs(self, phrases, rowidx) -> nm.Matrix:
        """Member-averaged time-major batch distributions (a constant matrix); no dropout."""
        per_member = [m.batch_step_probs(phrases, rowidx).data for m in self.models]
        return nm.Matrix._result(np.mean(per_member, axis=0))


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
