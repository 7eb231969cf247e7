"""Mini-batch training, evaluation, and ensembling of journey models.

Sessions are dwell-expanded, bucketed by length, and padded within each
batch; padding steps are masked out of the loss.  The optimizer is plain
gradient descent with a per-parameter adaptive step (running average of
squared gradients) and global-norm gradient clipping.  Each batch's forward
and backward pass runs in float32 on copies of the weights; the float64
master weights and the optimizer state take the update (mixed precision,
Micikevicius et al., arXiv:1710.03740).  Every random choice (init,
shuffling, dropout) derives from the config seed, so a run is exactly
repeatable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from . import rng as rngmod
from .errors import CheckpointError, ConfigError, TrainingError
from .journeydata import PageVocabulary, expand_session
from .seqmodel import (
    CHECKPOINT_FORMAT,
    ModelConfig,
    SequenceModel,
    checkpoint_field,
    model_from_dict,
    model_to_dict,
    read_checkpoint,
    write_checkpoint,
)

ENSEMBLE_FORMAT = "journeynet-ensemble"


# adaptive step: decay of the running average of squared gradients, and its floor
RMS_DECAY = 0.9
RMS_EPSILON = 1e-8
# dtype of every training batch's forward and backward pass
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """A ModelConfig plus the settings of one training run."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    gradient_clip_norm: float = 5.0
    unit_seconds: float = 30.0
    dwell_cap: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.gradient_clip_norm <= 0:
            raise ConfigError("gradient_clip_norm must be > 0")

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

    `step` copies each gradient, of any float dtype, into a float64 buffer
    of its own and updates the float64 weights in place, allocating nothing.
    A parameter without a gradient counts as a zero gradient: its running
    average decays and its weights stay as they are.
    """

    def __init__(self, params, config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.clip = config.gradient_clip_norm
        self.sq = [np.zeros_like(p.data) for p in params]
        self.grads = [np.zeros_like(p.data) for p in params]
        self.scratch = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        live = []
        sumsq = 0.0
        for p, g, t, v in zip(self.params, self.grads, self.scratch, self.sq):
            if p.grad is None:
                v *= RMS_DECAY
                continue
            np.copyto(g, p.grad)
            sumsq += float(np.multiply(g, g, out=t).sum())
            live.append((p, g, t, v))
        norm = np.sqrt(sumsq)
        for p, g, t, v in live:
            if norm > self.clip:
                g *= self.clip / norm
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


@contextmanager
def _compute_copies(params, copies):
    """Swap `copies` (COMPUTE_DTYPE arrays), refreshed from the weights, into
    the params' `data` for one batch; the masters return on any exit."""
    masters = [p.data for p in params]
    for p, c in zip(params, copies):
        np.copyto(c, p.data)
        p.data = c
    try:
        yield
    finally:
        for p, m in zip(params, masters):
            p.data = m


@dataclass
class _Expanded:
    inputs: list[str]
    targets: np.ndarray


def _expand_all(sessions, vocab, unit_seconds: float, cap: int) -> list[_Expanded]:
    out = []
    for s in sessions:
        inputs, targets = expand_session(s, vocab, unit_seconds, cap)
        out.append(_Expanded(inputs, np.asarray(targets, dtype=np.intp)))
    return out


def _make_batches(expanded, order, batch_size, rng=None):
    """Chunk a shuffled index order into batches of similar length.

    The shuffled order is stably re-sorted by expanded length so padding waste
    stays low, and batch composition still varies per epoch.  The batch list
    itself is then re-shuffled: visiting batches in ascending length order
    would end every epoch on the longest sessions, whose early steps are
    never exit transitions, and that ordering bias leaks into the weights.
    """
    by_len = sorted(order, key=lambda i: len(expanded[i].inputs))
    batches = [by_len[i:i + batch_size] for i in range(0, len(by_len), batch_size)]
    if rng is not None and len(batches) > 1:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


def _batch_tensors(expanded, idx_batch):
    """Pad a batch to its max length; returns (phrases, rowidx, targets, mask)."""
    lengths = [len(expanded[i].inputs) for i in idx_batch]
    t_max = max(lengths)
    b = len(idx_batch)
    phrases = sorted({ph for i in idx_batch for ph in expanded[i].inputs} | {""})
    row_of = {ph: r for r, ph in enumerate(phrases)}
    rowidx = np.zeros((b, t_max), dtype=np.intp)
    targets = np.zeros((b, t_max), dtype=np.intp)
    mask = np.zeros((b, t_max))
    pad_row = row_of[""]
    for bi, i in enumerate(idx_batch):
        ex = expanded[i]
        t = len(ex.inputs)
        rowidx[bi, :t] = [row_of[ph] for ph in ex.inputs]
        rowidx[bi, t:] = pad_row
        targets[bi, :t] = ex.targets
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
    the training sessions.  Identical (data, config, seed) give identical
    final weights and report.
    """
    sessions = list(sessions)
    if not sessions:
        raise ConfigError("no training sessions")
    for s in sessions:
        if not s.events:
            raise ConfigError(f"training session {s.session_id!r} has no page events")
    model = SequenceModel.build(config.model_config(), vocab, config.seed)
    expanded = _expand_all(sessions, vocab, config.unit_seconds, config.dwell_cap)
    held_out = list(eval_sessions) if eval_sessions is not None else sessions
    params = [p for _, p in model.parameters()]
    optimizer = _AdaptiveStep(params, config)
    copies = [np.empty(p.shape, dtype=COMPUTE_DTYPE) for p in params]
    report = TrainReport()

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_rng = rngmod.stream(config.seed, "shuffle", epoch)
        order = epoch_rng.permutation(len(expanded))
        nats = 0.0
        steps = 0.0
        batches = _make_batches(expanded, list(order), config.batch_size, epoch_rng)
        for bi, idx_batch in enumerate(batches):
            phrases, rowidx, targets, mask = _batch_tensors(expanded, idx_batch)
            dropout_rng = (
                rngmod.stream(config.seed, "dropout", epoch, bi)
                if config.dropout_rate > 0
                else None
            )
            with _compute_copies(params, copies):
                with nm.ComputeTape() as tape:
                    total = _batch_loss(model, phrases, rowidx, targets, mask, dropout_rng)
                    n_steps = float(mask.sum())
                    mean_loss = nm.scale(total, 1.0 / n_steps)
                if not np.isfinite(total.item()):
                    raise TrainingError("training loss diverged", epoch=epoch, batch=bi)
                nm.backward(tape, mean_loss)
            optimizer.step()
            nm.zero_gradients(params)
            nats += total.item()
            steps += n_steps
        eval_acc, eval_loss = evaluate(
            model, held_out, vocab, unit_seconds=config.unit_seconds, cap=config.dwell_cap
        )
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


def evaluate(
    predictor,
    sessions,
    vocab: PageVocabulary,
    unit_seconds: float = 30.0,
    cap: int = 5,
    batch_size: int = 16,
) -> tuple[float, float]:
    """(next-page accuracy, mean loss in nats), pooled over every step.

    Accuracy counts steps whose argmax prediction (ties to the lowest index)
    equals the true next page; dropout is disabled.  `predictor` is a model
    or an ensemble.  A batch holds (steps x batch_size) x 4H input
    projections at once, so the batch is kept small.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("no sessions to evaluate")
    expanded = _expand_all(sessions, vocab, unit_seconds, cap)
    hits = 0.0
    nats = 0.0
    steps = 0.0
    batches = _make_batches(expanded, list(range(len(expanded))), batch_size)
    for idx_batch in batches:
        phrases, rowidx, targets, mask = _batch_tensors(expanded, idx_batch)
        all_probs = predictor.batch_step_probs(phrases, rowidx).data
        for t, probs in enumerate(np.split(all_probs, rowidx.shape[1])):
            m = mask[:, t] > 0
            if not m.any():
                continue
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
        n = models[0].n_classes
        if any(m.n_classes != n for m in models):
            raise ValueError("ensemble members must share one output dimension")
        self.models = models

    def __len__(self) -> int:
        return len(self.models)

    @property
    def vocab(self) -> PageVocabulary:
        return self.models[0].vocab

    @property
    def n_classes(self) -> int:
        return self.models[0].n_classes

    def start(self, prefix):
        states = []
        dists = []
        for m in self.models:
            state, dist = m.start(prefix)
            states.append(state)
            dists.append(dist)
        return states, np.mean(dists, axis=0)

    def step(self, states, rows, pages):
        new_states = []
        dists = []
        for m, state in zip(self.models, states):
            state, dist = m.step(state, rows, pages)
            new_states.append(state)
            dists.append(dist)
        return new_states, np.mean(dists, axis=0)

    def batch_step_probs(self, phrases, rowidx, dropout_rng=None) -> nm.Matrix:
        """Member-averaged time-major batch distributions (a constant matrix)."""
        if dropout_rng is not None:
            raise ValueError("ensembles are inference-only; dropout is not supported")
        per_member = [m.batch_step_probs(phrases, rowidx).data for m in self.models]
        return nm.Matrix._result(np.mean(per_member, axis=0))


def train_ensemble(
    sessions,
    config: TrainConfig,
    vocab: PageVocabulary,
    k: int = 5,
    eval_sessions=None,
) -> tuple[Ensemble, list[TrainReport]]:
    """Train k models with seeds seed+0 .. seed+k-1."""
    if k < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    models = []
    reports = []
    for member in range(k):
        model, report = train(
            sessions, replace(config, seed=config.seed + member), vocab, eval_sessions
        )
        models.append(model)
        reports.append(report)
    return Ensemble(models), reports


def ensemble_predict(ensemble: Ensemble, prefix) -> np.ndarray:
    """Arithmetic mean of member next-page distributions."""
    return ensemble.start(prefix)[1]


def save_ensemble(ensemble: Ensemble, path) -> None:
    write_checkpoint(path, ENSEMBLE_FORMAT, "members", [model_to_dict(m) for m in ensemble.models])


def load_predictor(path):
    """Load either a single-model or an ensemble checkpoint."""
    payload = read_checkpoint(path)
    fmt = payload.get("format")
    if fmt == CHECKPOINT_FORMAT:
        return model_from_dict(checkpoint_field(payload, "model", dict, str(path)))
    if fmt == ENSEMBLE_FORMAT:
        members = checkpoint_field(payload, "members", list, str(path))
        if not members:
            raise CheckpointError(f"{path}: ensemble checkpoint has no members")
        return Ensemble([model_from_dict(d) for d in members])
    raise CheckpointError(f"{path}: unrecognised checkpoint format {fmt!r}")
