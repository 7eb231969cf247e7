"""Monte Carlo simulation of future journeys and conversion estimation.

A predictor is anything with:

    vocab                      -> PageVocabulary
    start(prefixes)            -> (P-row state, P x classes distributions)
    step(state, rows, pages)   -> (B-row state, B x classes distributions)

Row k of `start`'s result has consumed prefix k, and must not depend on the
other prefixes of the call.  Row j of `step`'s result continues row
`rows[j]` of `state` after feeding page index `pages[j]`, and must not
depend on the other rows of the call either.  `step` must not
mutate `state`, so one state can branch into several futures; trained
models and ensembles both satisfy this.  A model keeps its page table and
every prefix it has started in its serving cache, so a prefix that recurs
(a funnel prefix in every `score_batch` call, the one prefix of every
`rollout` of `journeynet simulate`) runs no pass again; from its second
start on, the cache also keeps the rollout tree of the paths stepped from
it, so the model computes each sampled path once (up to the cache's node
bound, `seqmodel.MAX_KEPT_NODES`).
`score_batch` starts a whole block of prefixes at once and every
one-prefix entry point calls `start([prefix])`.

The Monte Carlo entry points (`score_batch`, `estimate_conversion`,
`rollout`, `step_distribution`) serve a float32 compute copy of a model or
ensemble (its `compute_copy`: a model of its own arrays, which the model's
serving cache keeps until a weight of the model changes); a predictor
without one runs as it is.  Every serving call, the exact oracle's
(`conversion_path_mass`, `exact_conversion`) too, freezes every weight of
the model read-only, so an edit goes through a new array or
``flags.writeable`` (see :mod:`journeynet.seqmodel`).  Sampling
accumulates each distribution's CDF in float64, and the oracle runs the
float64 model, which shares no array with its copy and which serving never
writes, so it checks the served estimates independently.

Rollouts advance together: the rollouts of every prefix started in one
call step in lockstep, each distinct live path is one row of a batched
`step`, and every rollout samples its next page, with its own uniforms, from
the row of the path it is on.  Rollouts that sampled the same pages from the
same start row share a row, so a step feeds each distinct (row, page) pair
once.  A rollout ends at the NULL page, the horizon, or once every open
objective of its prefix is hit, and then leaves the batch: its outcome is
decided, so it is stepped no further, just as the exact oracle ends a
branch at a hit.  Conversion probability for an objective is the fraction
of rollouts that touch any of its pages.  For small instances exact path
enumeration, one `step` per depth of up to CHUNK nodes, is the oracle.

Randomness is counter-based: rollout i of prefix k draws from the stream
keyed (seed, prefix k) at block offset i, so estimates do not depend on how
samples are scheduled across workers.  A simulation builds one Philox bit
generator and restarts it at each prefix's key (`rng.restart`), advanced
to the block where the prefix's samples in a chunk begin, instead of
building a generator per prefix and chunk.  Rollouts are stepped in chunks
of CHUNK, which may hold samples of several prefixes.  `rollout` and
`step_distribution` score no objective, so their rollouts run to NULL or
the horizon.  Bit-reproducibility rests on one fact:
every row of a model's step is computed on its own, its bits independent of
the other rows of the batch (`numerics.rows_product`).  A sample's path
therefore depends only on its prefix's row of the start state and its own
uniforms, up to where it stops, and a stop comes only once the sample's
hits are decided; so a batch cell, a standalone estimate, any block of
prefixes and any worker count agree bit for bit.  Row independence is a
property of the BLAS, not a promise of numpy's: tier-1 checks it for the
paper config's product shapes with heads of 8 and 12 classes at up to 70
rows, and OpenBLAS breaks it for some other head widths and row counts, so
outside that envelope the agreement is not guaranteed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import CapacityError, ConfigError, ObjectiveError, SamplingError
from .errors import check_int, check_iterable, check_names, check_number, check_text
from .journeydata import MAX_SESSION_EVENTS, NULL_PAGE, RESERVED_PAGES, UNKNOWN_PAGE, PageVocabulary

TERMINATED_NULL = "null_page"
TERMINATED_HORIZON = "horizon"

# rollouts stepped together, from any prefixes of a block; bounds a simulation's memory
CHUNK = 4096
# most prefixes in one score_batch unit, started in one call (results do not depend on it)
PREFIX_BLOCK = 16


@dataclass(frozen=True)
class JourneyPrefix:
    """Observed start of a journey: keywords plus already-visited pages.

    ConfigError unless `keywords` is text and `pages` ordered names
    (`errors.check_names`) none of which is one of RESERVED_PAGES, as a
    logged page is: a model's start memo keys on them.
    """

    keywords: str = ""
    pages: tuple[str, ...] = ()

    def __post_init__(self):
        check_text(self.keywords, "prefix keywords", ConfigError)
        pages = check_names(self.pages, "prefix pages", ConfigError, ordered=True)
        object.__setattr__(self, "pages", pages)
        reserved = [p for p in pages if p in RESERVED_PAGES]
        if reserved:
            raise ConfigError(f"prefix page {reserved[0]!r} is a reserved name")


@dataclass(frozen=True)
class Objective:
    """A conversion event: the journey reaches any page in `target_pages`.

    The id is text and the targets are names (`errors.check_names`, in any
    order) other than the NULL page; anything else is an ObjectiveError.
    """

    objective_id: str
    target_pages: frozenset[str]

    def __post_init__(self):
        check_text(self.objective_id, "objective id", ObjectiveError)
        pages = check_names(self.target_pages, "objective target pages", ObjectiveError, ordered=False)
        object.__setattr__(self, "target_pages", frozenset(pages))
        if not self.target_pages:
            raise ObjectiveError("objective needs at least one target page")
        if NULL_PAGE in self.target_pages:
            raise ObjectiveError("the NULL page cannot be a conversion target")


@dataclass(frozen=True)
class ConversionEstimate:
    probability: float
    std_error: float
    n_samples: int
    horizon: int
    objective_id: str


@dataclass(frozen=True)
class SimulatedJourney:
    prefix: JourneyPrefix
    pages: tuple[str, ...]
    reason: str

    def __post_init__(self):
        if NULL_PAGE in self.pages and self.pages[-1] != NULL_PAGE:
            raise ValueError("NULL page must terminate the continuation")


def _targets(objectives: list[Objective], vocab: PageVocabulary) -> np.ndarray:
    """`targets[j, c]`: whether class c of `vocab` is a target of objective j.

    ObjectiveError for a target page `vocab` lacks.  Each row has one entry
    more than `vocab` has classes, which stays False: the entry that index
    -1, the padding after a sampled path, reads.
    """
    targets = np.zeros((len(objectives), len(vocab) + 1), dtype=bool)
    for j, objective in enumerate(objectives):
        for name in objective.target_pages:
            idx = vocab.encode(name)
            if idx == vocab.unknown_index and name != UNKNOWN_PAGE:
                raise ObjectiveError(
                    f"objective {objective.objective_id!r}: page {name!r} is not in the vocabulary"
                )
            targets[j, idx] = True
    return targets


def _served(predictor):
    """The predictor's compute copy, kept or cast from its weights now, if it makes one; else itself."""
    compute_copy = getattr(predictor, "compute_copy", None)
    return predictor if compute_copy is None else compute_copy()


def _distinct(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of integer keys in [0, size), without a sort.

    One boolean table of `size` entries marks the keys present; its marked
    positions, in order, are the distinct keys, and each key's index among
    them is a binary search.
    """
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    return distinct, np.searchsorted(distinct, keys)


def _sample_paths(
    predictor, state, dists, starts: np.ndarray, uniforms: np.ndarray, null_index: int,
    is_target: np.ndarray | None = None, open_objectives: np.ndarray | None = None,
) -> np.ndarray:
    """Roll out sample i from row `starts[i]` of (state, dists), driven by row i of `uniforms`.

    Sample i takes class min(#{c : cdf[c] <= u}, N - 1) at each step, the
    index searchsorted(cdf, u, side="right") gives, clamped.  Each distinct
    live path is one row of `state`: a step feeds each distinct (row, page)
    pair once (found with :func:`_distinct` over a table of rows x N
    entries), and every rollout follows the row of its pair.  A rollout
    ends at the NULL page, the horizon, or once every open objective of its
    prefix is hit: `is_target[c, j]` says class c is a target of objective
    j, and `open_objectives[r, j]` that objective j is open for start row r.
    Without them a rollout runs to NULL or the horizon.  Returns an
    n x horizon array of class indices, with -1 after a path's last page.
    """
    n, horizon = uniforms.shape
    paths = np.full((n, horizon), -1, dtype=np.intp)
    cdf = np.cumsum(dists, axis=1, dtype=np.float64)
    n_classes = cdf.shape[1]
    if is_target is None:  # one objective that no page hits
        is_target, open_objectives = np.zeros((n_classes, 1), bool), np.ones((len(cdf), 1), bool)
    live = np.arange(n)  # sample index of each live rollout
    rows = np.asarray(starts, dtype=np.intp)  # its row of `cdf` and `state`
    todo = open_objectives[rows]  # its open objectives not yet hit
    for t in range(horizon):
        idx = np.minimum((cdf[rows] <= uniforms[live, t, None]).sum(axis=1), n_classes - 1)
        paths[live, t] = idx
        todo &= ~is_target[idx]
        going = (idx != null_index) & todo.any(axis=1)
        if t + 1 == horizon or not going.any():
            break
        live, todo = live[going], todo[going]
        pairs, rows = _distinct(rows[going] * n_classes + idx[going], len(cdf) * n_classes)
        state, dist = predictor.step(state, pairs // n_classes, pairs % n_classes)
        cdf = np.cumsum(dist, axis=1, dtype=np.float64)
    return paths


def rollout(predictor, prefix: JourneyPrefix, horizon: int, rng: np.random.Generator) -> SimulatedJourney:
    """Sample one future journey of at most `horizon` steps."""
    check_int(horizon, "horizon", SamplingError, low=1, high=MAX_SESSION_EVENTS)
    predictor = _served(predictor)
    vocab = predictor.vocab
    state, dists = predictor.start([prefix])
    path = _sample_paths(predictor, state, dists, [0], rng.random((1, horizon)), vocab.null_index)[0]
    indices = path[path >= 0]
    reason = TERMINATED_NULL if indices[-1] == vocab.null_index else TERMINATED_HORIZON
    return SimulatedJourney(
        prefix=prefix,
        pages=tuple(vocab.decode(int(i)) for i in indices),
        reason=reason,
    )


def _simulate(predictor, state, dists, streams, n_samples: int, horizon: int, is_target=None, open_objectives=None):
    """Roll out `n_samples` samples from every row r of a start state, all rows in lockstep.

    Rollout r * n_samples + i is sample i of row r; the rollouts are stepped
    CHUNK at a time, whatever row they start from, and sample i of row r
    always reads the same positions of `streams[r]` (blocks i * stride ..).
    One Philox serves the call: each row's key is derived once, and the bit
    generator is restarted at it and advanced to each chunk's first block,
    which draws what ``rng.stream_at`` gives there.  A rollout ends at the
    NULL page, the horizon, or once every objective open for its row is hit
    (`is_target`, `open_objectives`; see _sample_paths).  Yields, chunk by
    chunk, (the start row of each rollout, its sampled path).
    """
    stride = rngmod.blocks_for(horizon)
    total = len(streams) * n_samples
    keys = [rngmod.derive_key(*parts) for parts in streams]
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    for g in range(0, total, CHUNK):
        starts = np.arange(g, min(g + CHUNK, total)) // n_samples
        us = []
        for r in range(starts[0], starts[-1] + 1):
            a, b = max(g - r * n_samples, 0), min(g + CHUNK - r * n_samples, n_samples)
            rngmod.restart(bitgen, keys[r])
            bitgen.advance(a * stride)
            us.append(gen.random((b - a) * stride * rngmod.BLOCK).reshape(b - a, -1)[:, :horizon])
        uniforms = np.concatenate(us)
        yield starts, _sample_paths(
            predictor, state, dists, starts, uniforms, predictor.vocab.null_index, is_target, open_objectives
        )


def _check_sampling(n_samples: int, horizon: int, name: str = "horizon") -> None:
    """SamplingError unless `n_samples` is an int >= 1 and `horizon` an int in
    [1, MAX_SESSION_EVENTS], the longest session the generator walks; checked
    before anything is sized by them."""
    check_int(n_samples, "n_samples", SamplingError, low=1)
    check_int(horizon, name, SamplingError, low=1, high=MAX_SESSION_EVENTS)


def _estimate_block(
    predictor,
    prefixes: list[JourneyPrefix],
    objectives: list[Objective],
    targets: np.ndarray,
    n_samples: int,
    horizon: int,
    seed: int,
    first_index: int,
) -> list[list[ConversionEstimate]]:
    """Conversion estimates of each prefix for every objective, one simulation per prefix.

    Prefix k draws from the sub-stream of index `first_index + k`.
    Objectives a prefix already reached, by the class of one of its pages
    (an unlisted page reaches UNKNOWN_PAGE), convert every sample; the others
    count the sampled paths that touch one of their pages (`targets`, the
    objectives' :func:`_targets`).  The prefixes with some objective
    still open start in one `start` call and are simulated together, each
    from its row of the start state.  A rollout
    ends at the NULL page, the horizon, or once every open objective of its
    prefix is hit: its hits are decided by then.
    """
    encode = predictor.vocab.encode
    already = np.array([targets[:, [encode(page) for page in p.pages]].any(axis=1) for p in prefixes])
    counts = np.zeros(already.shape, dtype=np.intp)
    started = np.flatnonzero(~already.all(axis=1))
    if started.size:
        state, dists = predictor.start([prefixes[k] for k in started])
        streams = [(seed, "conversion", first_index + k) for k in started.tolist()]
        chunks = _simulate(predictor, state, dists, streams, n_samples, horizon, targets.T, ~already[started])
        for starts, paths in chunks:
            for j, column in enumerate(targets):
                hit = column[paths].any(axis=1)
                counts[started, j] += np.bincount(starts[hit], minlength=len(started))
    hits = np.where(already, n_samples, counts)
    return [
        [_binomial_estimate(int(h), n_samples, horizon, o.objective_id) for o, h in zip(objectives, row)]
        for row in hits
    ]


def _binomial_estimate(hits: int, n_samples: int, horizon: int, objective_id: str) -> ConversionEstimate:
    p = hits / n_samples
    return ConversionEstimate(
        probability=p,
        std_error=float(np.sqrt(p * (1.0 - p) / n_samples)),
        n_samples=n_samples,
        horizon=horizon,
        objective_id=objective_id,
    )


def estimate_conversion(
    predictor,
    prefix: JourneyPrefix,
    objective: Objective,
    n_samples: int,
    horizon: int,
    seed: int,
    prefix_index: int = 0,
) -> ConversionEstimate:
    """Monte Carlo conversion probability with its binomial standard error.

    A rollout converts when the prefix or the sampled continuation holds a
    page of an objective's class (a page outside the vocabulary is of
    UNKNOWN_PAGE's).  `prefix_index` selects the sub-stream, so a batch
    cell and a standalone call with the same index agree exactly.
    """
    _check_sampling(n_samples, horizon)
    check_int(seed, "seed", ConfigError)
    check_int(prefix_index, "prefix_index", SamplingError)
    targets = _targets([objective], predictor.vocab)
    predictor = _served(predictor)
    return _estimate_block(predictor, [prefix], [objective], targets, n_samples, horizon, seed, prefix_index)[0][0]


def step_distribution(
    predictor,
    prefix: JourneyPrefix,
    t: int,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Empirical distribution of the page occupied `t` steps into the future.

    Journeys that exit before step t count in the NULL page bucket.
    """
    _check_sampling(n_samples, t, "t")
    check_int(seed, "seed", ConfigError)
    predictor = _served(predictor)
    vocab = predictor.vocab
    counts = np.zeros(len(vocab))
    state, dists = predictor.start([prefix])
    for _, paths in _simulate(predictor, state, dists, [(seed, "step-dist")], n_samples, t):
        pages = paths[:, t - 1]
        counts += np.bincount(np.where(pages < 0, vocab.null_index, pages), minlength=len(vocab))
    return counts / n_samples


@dataclass(frozen=True)
class PathMass:
    """Exhaustive (or bounded) accounting of continuation path probability."""

    hit: float
    missed: float
    pruned: float
    nodes: int

    @property
    def total(self) -> float:
        return self.hit + self.missed + self.pruned


def conversion_path_mass(
    predictor,
    prefix: JourneyPrefix,
    objective: Objective,
    horizon: int,
    prune_tol: float = 0.0,
    max_nodes: int = 2_000_000,
) -> PathMass:
    """Enumeration of every continuation up to `horizon` steps, a block of one depth at a time.

    A prefix that holds a page of an objective's class is a hit at once.
    Branches end at an objective page (hit), the NULL page or the horizon
    (miss).  SamplingError unless `horizon` is an int in [0,
    MAX_SESSION_EVENTS], `prune_tol` a number >= 0 and `max_nodes` an int >= 1.
    With `prune_tol` > 0, branches whose path probability drops below the
    tolerance are cut and their mass is reported in `pruned`, which bounds
    the error of `hit`; with the default 0 the enumeration is exact and
    guarded by the vocabulary-size ** horizon work estimate.  A block of
    up to CHUNK nodes is stepped in one call when popped, and pushes its
    children in CHUNK-row slices, so pending work holds ~one state per depth.
    """
    check_int(horizon, "horizon", SamplingError, low=0, high=MAX_SESSION_EVENTS)
    check_number(prune_tol, "prune_tol", SamplingError)
    if not prune_tol >= 0:  # also rejects NaN
        raise SamplingError(f"prune_tol must be >= 0, got {prune_tol!r}")
    check_int(max_nodes, "max_nodes", SamplingError, low=1)
    vocab = predictor.vocab
    is_target = _targets([objective], vocab)[0, :-1]
    if is_target[[vocab.encode(page) for page in prefix.pages]].any():
        return PathMass(1.0, 0.0, 0.0, 0)
    if horizon == 0:
        return PathMass(0.0, 1.0, 0.0, 0)
    if prune_tol == 0.0 and len(vocab) ** horizon > 10_000_000:
        raise CapacityError(
            f"exact enumeration of {len(vocab)}^{horizon} paths exceeds the budget; "
            "reduce the horizon or set prune_tol"
        )
    going = ~is_target & (np.arange(len(vocab)) != vocab.null_index)
    hit = missed = pruned = 0.0
    nodes = 0
    # (parent state, its rows, pages fed to them, path masses, depth); the root has no parent
    stack = [(None, None, None, np.ones(1), 0)]
    while stack:
        parent, rows, pages, path_p, depth = stack.pop()
        nodes += len(path_p)
        if nodes > max_nodes:
            raise CapacityError(f"path enumeration exceeded {max_nodes} nodes")
        state, dists = predictor.start([prefix]) if parent is None else predictor.step(parent, rows, pages)
        q = path_p[:, None] * dists
        hit += q[:, is_target].sum()
        if depth + 1 >= horizon:
            missed += q[:, ~is_target].sum()
            continue
        missed += q[:, vocab.null_index].sum()
        low = q < prune_tol
        pruned += q[low & going].sum()
        rows, pages = np.nonzero(going & ~low & (dists > 0))
        for a in range(0, len(rows), CHUNK):
            r, c = rows[a:a + CHUNK], pages[a:a + CHUNK]
            stack.append((state, r, c, q[r, c], depth + 1))
    return PathMass(float(hit), float(missed), float(pruned), nodes)


def exact_conversion(predictor, prefix: JourneyPrefix, objective: Objective, horizon: int) -> float:
    """Conversion probability by exact path enumeration, no branch pruned (see conversion_path_mass)."""
    return conversion_path_mass(predictor, prefix, objective, horizon).hit


# ---------------------------------------------------------------------------
# batch scoring


@dataclass(frozen=True)
class ScoreRow:
    prefix_id: str
    objective_id: str
    probability: float
    std_error: float
    n_samples: int
    horizon: int


_worker_predictor = None


def _init_worker(predictor):
    global _worker_predictor
    _worker_predictor = predictor


def _score_block(args):
    return _estimate_block(_worker_predictor, *args)


def score_batch(
    predictor,
    prefixes: list[JourneyPrefix],
    objectives: list[Objective],
    n_samples: int = 1000,
    horizon: int = 30,
    seed: int = 0,
    workers: int = 1,
    prefix_ids: list[str] | None = None,
) -> list[ScoreRow]:
    """Score every prefix against every objective, prefix-major row order.

    Each prefix is simulated once, from the sub-stream keyed by its index,
    and all objectives are scored from the same rollouts.  The unit of work
    is a block of consecutive prefixes, started in one call (one padded
    pass over the prefixes the serving cache lacks): PREFIX_BLOCK of them,
    or fewer so that every worker gets a block.  A prefix's rollouts
    depend only on its own row of the start state and its sub-stream, so
    results are identical for any `workers` value and match standalone
    estimate_conversion calls with the same `prefix_index`.  `prefixes`
    and `objectives` are each read once from an ordered iterable, so
    iterators score as lists do (ConfigError for a set, whose order is the
    hash seed's, a string, a mapping or a non-iterable).
    """
    prefixes = check_iterable(prefixes, "prefixes", ConfigError, ordered=True)
    objectives = check_iterable(objectives, "objectives", ConfigError, ordered=True)
    if not prefixes or not objectives:
        raise ValueError("score_batch needs at least one prefix and one objective")
    if prefix_ids is None:
        prefix_ids = [f"p{i:04d}" for i in range(len(prefixes))]
    if len(prefix_ids) != len(prefixes):
        raise ValueError("prefix_ids length must match prefixes")
    _check_sampling(n_samples, horizon)
    check_int(seed, "seed", ConfigError)
    check_int(workers, "workers", ConfigError, low=1)
    targets = _targets(objectives, predictor.vocab)  # rejects unknown pages before any simulation
    predictor = _served(predictor)  # at most one cast per call, shipped to every worker
    size = min(PREFIX_BLOCK, -(-len(prefixes) // workers))
    # the arguments of _estimate_block after the predictor
    units = [
        (prefixes[a:a + size], objectives, targets, n_samples, horizon, seed, a)
        for a in range(0, len(prefixes), size)
    ]
    workers = min(workers, len(units))  # the pool starts every worker it is allowed
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(predictor,)
        ) as pool:
            per_block = list(pool.map(_score_block, units))
    else:  # in-process: no module global keeps the copy alive after the call
        per_block = [_estimate_block(predictor, *u) for u in units]
    per_prefix = [estimates for block in per_block for estimates in block]
    return [ScoreRow(pid, **vars(est)) for pid, estimates in zip(prefix_ids, per_prefix) for est in estimates]


def write_scores_csv(rows: list[ScoreRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["prefix_id", "objective_id", "probability", "std_err", "n_samples", "horizon"]
        )
        for r in rows:
            writer.writerow(
                [r.prefix_id, r.objective_id, repr(r.probability), repr(r.std_error), r.n_samples, r.horizon]
            )
