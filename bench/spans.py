"""Out-of-program tracing: wrap the library's public entry points with spans.

Each wrapped call records one span (name, start, end, parent, data) in an
in-memory list; `uninstall` restores every original attribute.  Names are
patched where the library looks them up: module globals for functions
(e.g. `training.expand_session`, `simulator.estimate_conversion`) and class
attributes for methods.  `data` carries a per-call count read from the
arguments or the result (rows stepped, tape nodes, padded cells, ...).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from journeynet import journeydata, numerics, rng, seqmodel, simulator, textenc, training


def _rows(args, kwargs, result):
    """Rows stepped in one `step` call, read from the returned distribution."""
    dist = np.asarray(result[1])
    return 1 if dist.ndim < 2 else int(dist.shape[0])


def _padding(args, kwargs, result):
    """(all cells, padded cells) of a padded batch.

    Padding steps feed the "" phrase, which sorts first in the batch's phrase
    list; a real step feeds "" only at t=0 (an empty keyword phrase).
    """
    phrases, rowidx = args[1], np.asarray(args[2])
    pad = int((rowidx[:, 1:] == 0).sum()) if phrases and phrases[0] == "" else 0
    return (int(rowidx.size), pad)


def _tape_nodes(args, kwargs, result):
    return len(args[0])


def _path_nodes(args, kwargs, result):
    return int(result.nodes)


def _samples(args, kwargs, result):
    return int(sum(row.n_samples for row in result))


# (owner, attribute, span name, data function)
ENTRY_POINTS = [
    (numerics, "backward", "numerics.backward", None),
    (numerics.ComputeTape, "__exit__", "numerics.tape", _tape_nodes),
    (textenc.CnnEncoder, "embed", "textenc.embed", None),
    (seqmodel.SequenceModel, "cell_steps", "seqmodel.cell_steps", None),
    (seqmodel.SequenceModel, "head", "seqmodel.head", None),
    (seqmodel.SequenceModel, "batch_step_probs", "seqmodel.batch_step_probs", _padding),
    (seqmodel.SequenceModel, "start", "seqmodel.start", None),
    (seqmodel.SequenceModel, "step", "seqmodel.step", _rows),
    (training, "load_predictor", "seqmodel.load", None),
    (training, "train", "training.train", None),
    (training, "evaluate", "training.evaluate", None),
    (training, "expand_session", "journeydata.expand", None),
    (journeydata, "generate_synthetic", "journeydata.generate", None),
    (simulator, "score_batch", "simulator.score_batch", _samples),
    (simulator, "estimate_conversion", "simulator.estimate", None),
    (simulator, "conversion_path_mass", "simulator.exact", _path_nodes),
    (rng, "stream", "rng.stream", None),
    (rng, "stream_at", "rng.stream", None),
]


class Tracer:
    """Span recorder; `install` patches ENTRY_POINTS, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, data]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, data_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if data_fn is not None:
                span[4] = data_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, data_fn in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, data_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def region(self, name: str):
        """A benchmark-level span, e.g. the timed region of a workload."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "data"], "spans": self.spans}, fh)


MEASURED_REGIONS = ("bench.setup", "bench.timed")


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics from a span list (see rationale.json for definitions).

    Layer spans count when they run inside the set-up or the timed region,
    the phases the end-to-end metrics time; warm-up, the standalone evaluate
    phase and the output checks are left out.  The checks' enumeration
    oracle is reported on its own as simulator.exact_*.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_t = [d - c for d, c in zip(dur, child)]

    # Each span inherits its parent's ancestry flags: enclosing bench region,
    # and whether it runs inside train() or evaluate().
    region: list[str | None] = [None] * n
    in_train = [False] * n
    in_eval = [False] * n
    for i, (name, _, _, p, _) in enumerate(spans):
        if name.startswith("bench."):
            region[i] = name
        elif p >= 0:
            region[i] = region[p]
        if p >= 0:
            in_train[i] = in_train[p] or spans[p][0] == "training.train"
            in_eval[i] = in_eval[p] or spans[p][0] == "training.evaluate"

    def pick(name, regions=MEASURED_REGIONS):
        return [i for i in range(n) if spans[i][0] == name and region[i] in regions]

    def total(idx, times):
        return float(sum(times[i] for i in idx))

    def data(idx):
        return sum(spans[i][4] for i in idx)

    tapes = pick("numerics.tape")
    train_batches = [i for i in pick("seqmodel.batch_step_probs") if in_train[i] and not in_eval[i]]
    cells = sum(spans[i][4][0] for i in train_batches)
    padded = sum(spans[i][4][1] for i in train_batches)
    steps = pick("seqmodel.step")
    samples = data(pick("simulator.score_batch"))
    exact = pick("simulator.exact", ("bench.check",))
    timed = pick("bench.timed")
    timed_wall = total(timed, dur)
    return {
        "numerics.backward_s": total(pick("numerics.backward"), dur),
        "numerics.tape_nodes_per_batch": data(tapes) / len(tapes) if tapes else 0,
        "textenc.embed_calls": len(pick("textenc.embed")),
        "textenc.embed_s": total(pick("textenc.embed"), dur),
        "seqmodel.cell_steps_s": total(pick("seqmodel.cell_steps"), self_t),
        "seqmodel.head_s": total(pick("seqmodel.head"), self_t),
        "seqmodel.step_calls": len(steps),
        "seqmodel.step_rows_per_call": data(steps) / len(steps) if steps else 0,
        "seqmodel.step_s": total(steps, dur),
        "seqmodel.start_calls": len(pick("seqmodel.start")),
        "seqmodel.start_s": total(pick("seqmodel.start"), dur),
        "seqmodel.load_s": total(pick("seqmodel.load"), dur),
        "training.self_s": total(pick("training.train"), self_t),
        "training.evaluate_s": total(pick("training.evaluate"), dur),
        "training.batches": len([i for i in pick("numerics.backward") if in_train[i]]),
        "training.padding_frac": padded / cells if cells else 0,
        "simulator.self_s": total(pick("simulator.score_batch") + pick("simulator.estimate"), self_t),
        "simulator.model_steps_per_sample": data(steps) / samples if samples else 0,
        "simulator.exact_s": total(exact, dur),
        "simulator.exact_nodes": data(exact),
        "journeydata.generate_s": total(pick("journeydata.generate"), dur),
        "journeydata.expand_s": total(pick("journeydata.expand"), dur),
        "rng.streams": len(pick("rng.stream")),
        "rng.stream_s": total(pick("rng.stream"), dur),
        # share of the timed wall time that layer spans account for
        "trace.coverage": 1.0 - total(timed, self_t) / timed_wall if timed_wall else 0,
    }
