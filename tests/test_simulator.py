import concurrent.futures
import functools
import itertools
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeynet import simulator
from journeynet.errors import CapacityError, ConfigError, ObjectiveError, SamplingError
from journeynet.journeydata import NULL_PAGE, UNKNOWN_PAGE, PageVocabulary, build_vocab, generate_synthetic
from journeynet.rng import stream, stream_at, blocks_for
from journeynet.seqmodel import ModelConfig, SequenceModel
from journeynet.simulator import (
    CHUNK,
    ConversionEstimate,
    JourneyPrefix,
    Objective,
    ScoreRow,
    SimulatedJourney,
    conversion_path_mass,
    estimate_conversion,
    exact_conversion,
    rollout,
    score_batch,
    step_distribution,
    write_scores_csv,
)
from journeynet.training import TrainConfig, train
from toychains import (
    MarkovToyPredictor as MarkovPredictor,
    funnel_chain,
    random_toy_predictor,
    random_toy_predictor as random_predictor,
)


def abc_vocab():
    return PageVocabulary(["A", "B", "C"], min_freq=1)


def hand_predictor():
    # A -> B 0.3, C 0.5, exit 0.2;  C -> B 0.4, C 0.1, exit 0.5
    vocab = abc_vocab()
    rows = {
        0: [0.0, 0.3, 0.5, 0.2, 0.0],
        1: [0.0, 0.0, 0.0, 1.0, 0.0],
        2: [0.0, 0.4, 0.1, 0.5, 0.0],
    }
    return MarkovPredictor(vocab, rows[0], rows)


# ---------------------------------------------------------------------------
# rollout


def test_rollout_absorbing_null():
    vocab = abc_vocab()
    dist = np.zeros(5)
    dist[vocab.null_index] = 1.0
    pred = MarkovPredictor(vocab, dist, {i: dist for i in range(3)})
    journey = rollout(pred, JourneyPrefix("kw", ()), horizon=10, rng=stream(0))
    assert journey.pages == (NULL_PAGE,)
    assert journey.reason == "null_page"


def test_rollout_hits_horizon():
    vocab = abc_vocab()
    dist = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    pred = MarkovPredictor(vocab, dist, {i: dist for i in range(3)})
    journey = rollout(pred, JourneyPrefix(), horizon=7, rng=stream(1))
    assert len(journey.pages) == 7
    assert journey.reason == "horizon"
    assert NULL_PAGE not in journey.pages


def test_rollout_respects_termination_contract():
    for seed in range(25):
        pred = random_predictor(seed)
        horizon = 1 + seed % 6
        journey = rollout(pred, JourneyPrefix(), horizon, stream(seed, "roll"))
        if journey.reason == "null_page":
            assert journey.pages[-1] == NULL_PAGE
            assert len(journey.pages) <= horizon
        else:
            assert len(journey.pages) == horizon
            assert NULL_PAGE not in journey.pages


def test_rollout_requires_positive_horizon():
    with pytest.raises(ValueError):
        rollout(hand_predictor(), JourneyPrefix(), 0, stream(0))


def test_simulated_journey_null_must_be_last():
    with pytest.raises(ValueError):
        SimulatedJourney(JourneyPrefix(), (NULL_PAGE, "A"), "null_page")


@pytest.mark.parametrize("keywords, pages", [
    ("kw", "landing"),  # a string, not a sequence of page names
    (None, ("landing",)),
    (7, ()),
    ("kw", 7),  # not iterable
    ("kw", ("landing", "")),
    ("kw", ("landing", None)),
    ("kw", [["landing"]]),
    ("kw", {"landing", "quote", "price", "home"}),  # unordered: its order would follow the hash seed
    ("kw", frozenset({"landing"})),
    ("kw", {"landing": 1, "quote": 2}),  # a mapping would be taken as its keys
    ("kw", ("landing", NULL_PAGE)),  # training never feeds a reserved page as an input
    ("kw", (UNKNOWN_PAGE,)),
])
def test_journey_prefix_rejects_fields_that_are_not_text_and_page_names(keywords, pages):
    with pytest.raises(ConfigError, match="prefix"):
        JourneyPrefix(keywords, pages)


# ---------------------------------------------------------------------------
# exact enumeration


def test_exact_hand_path_sum():
    pred = hand_predictor()
    objective = Objective("reach-b", frozenset({"B"}))
    prefix = JourneyPrefix("", ("A",))
    assert exact_conversion(pred, prefix, objective, horizon=2) == pytest.approx(0.5, abs=1e-12)


def test_exact_mass_partitions_path_space():
    for seed in range(8):
        pred = random_predictor(seed)
        objective = Objective("obj", frozenset({"pg0"}))
        mass = conversion_path_mass(pred, JourneyPrefix(), objective, horizon=4)
        assert mass.pruned == 0.0
        assert mass.total == pytest.approx(1.0, abs=1e-6)


def test_exact_monotone_in_horizon():
    pred = random_predictor(3)
    objective = Objective("obj", frozenset({"pg1"}))
    values = [
        exact_conversion(pred, JourneyPrefix(), objective, horizon=h) for h in range(5)
    ]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_exact_horizon_zero_is_prefix_indicator():
    pred = hand_predictor()
    objective = Objective("reach-b", frozenset({"B"}))
    assert exact_conversion(pred, JourneyPrefix("", ("A",)), objective, 0) == 0.0
    assert exact_conversion(pred, JourneyPrefix("", ("A", "B")), objective, 0) == 1.0


def test_exact_guard_against_blowup():
    pred = hand_predictor()
    objective = Objective("reach-b", frozenset({"B"}))
    with pytest.raises(CapacityError):
        exact_conversion(pred, JourneyPrefix(), objective, horizon=30)


def test_pruned_enumeration_bounds_mass():
    pred = random_predictor(5)
    objective = Objective("obj", frozenset({"pg2"}))
    full = conversion_path_mass(pred, JourneyPrefix(), objective, horizon=5)
    cut = conversion_path_mass(pred, JourneyPrefix(), objective, horizon=5, prune_tol=1e-4)
    assert cut.total == pytest.approx(1.0, abs=1e-9)
    assert cut.nodes <= full.nodes
    assert cut.hit <= full.hit + 1e-12
    assert full.hit <= cut.hit + cut.pruned + 1e-12


def test_exact_node_budget():
    pred = random_predictor(1)
    objective = Objective("obj", frozenset({"pg0"}))
    with pytest.raises(CapacityError):
        conversion_path_mass(pred, JourneyPrefix(), objective, horizon=5, max_nodes=3)


@pytest.mark.parametrize("prune_tol", [-1e-3, float("nan"), True, "0.1", None])
def test_exact_rejects_a_prune_tol_that_is_not_a_nonnegative_number(prune_tol):
    # at horizon 12 the 5^12 exact paths exceed the budget, so NaN must not pass as "pruned";
    # True would compare as 1 and prune every branch at depth 1
    objective = Objective("reach-b", frozenset({"B"}))
    with pytest.raises(SamplingError, match="prune_tol must be (an int or float|>= 0), got"):
        conversion_path_mass(hand_predictor(), JourneyPrefix(), objective, horizon=12, prune_tol=prune_tol)


@pytest.mark.parametrize("max_nodes", ["5", True, 0])
def test_exact_rejects_a_node_budget_that_is_not_an_int_of_at_least_one(max_nodes):
    # "5" would fail at the first budget comparison, True would run as a budget of 1
    # and 0 would end the enumeration in a CapacityError
    objective = Objective("reach-b", frozenset({"B"}))
    with pytest.raises(SamplingError, match=f"max_nodes must be an int >= 1, got {max_nodes!r}"):
        conversion_path_mass(hand_predictor(), JourneyPrefix(), objective, horizon=3, max_nodes=max_nodes)


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def test_estimate_prefix_hit_short_circuits():
    pred = hand_predictor()
    objective = Objective("reach-b", frozenset({"B"}))
    est = estimate_conversion(pred, JourneyPrefix("", ("B",)), objective, 50, 4, seed=0)
    assert est == ConversionEstimate(1.0, 0.0, 50, 4, "reach-b")


def test_estimate_immediate_exit_is_zero():
    vocab = abc_vocab()
    dist = np.zeros(5)
    dist[vocab.null_index] = 1.0
    pred = MarkovPredictor(vocab, dist, {i: dist for i in range(3)})
    objective = Objective("reach-a", frozenset({"A"}))
    est = estimate_conversion(pred, JourneyPrefix(), objective, 200, 5, seed=1)
    assert est.probability == 0.0
    assert est.std_error == 0.0


def test_estimate_matches_exact_within_3_sigma():
    for seed in (2, 9):
        pred = random_predictor(seed)
        objective = Objective("obj", frozenset({"pg0"}))
        prefix = JourneyPrefix()
        p = exact_conversion(pred, prefix, objective, horizon=4)
        n = 20_000
        est = estimate_conversion(pred, prefix, objective, n, 4, seed=seed)
        sigma = max(np.sqrt(p * (1 - p) / n), 1e-9)
        assert abs(est.probability - p) < 3 * sigma


def test_estimate_is_deterministic():
    pred = random_predictor(4)
    objective = Objective("obj", frozenset({"pg1"}))
    a = estimate_conversion(pred, JourneyPrefix(), objective, 500, 3, seed=5)
    b = estimate_conversion(pred, JourneyPrefix(), objective, 500, 3, seed=5)
    c = estimate_conversion(pred, JourneyPrefix(), objective, 500, 3, seed=6)
    assert a == b
    assert a != c


def test_estimate_validates_arguments():
    pred = hand_predictor()
    objective = Objective("o", frozenset({"B"}))
    with pytest.raises(ValueError):
        estimate_conversion(pred, JourneyPrefix(), objective, 0, 3, seed=0)
    with pytest.raises(ValueError):
        estimate_conversion(pred, JourneyPrefix(), objective, 10, 0, seed=0)


def test_journey_prefix_takes_ordered_pages_from_lists_tuples_and_generators():
    for pages in (["landing", "quote"], ("landing", "quote"), (p for p in ("landing", "quote"))):
        assert JourneyPrefix("kw", pages).pages == ("landing", "quote")


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective("empty", frozenset())
    with pytest.raises(ObjectiveError, match="^objective target pages must be an iterable, not a string or mapping"):
        Objective("o", "quote")  # would be the set of its letters
    assert Objective("o", ["quote", "price"]).target_pages == {"quote", "price"}
    assert Objective("o", (p for p in ("quote", "price"))).target_pages == {"quote", "price"}
    with pytest.raises(ValueError):
        Objective("null", frozenset({NULL_PAGE}))
    # a mapping (its keys), a non-iterable, and targets that are not non-empty text
    for pages in ({"quote": 1}, 5, None, [1, 2], [""], [["a"]]):
        with pytest.raises(ObjectiveError, match="objective target pages"):
            Objective("o", pages)
    pred = hand_predictor()
    with pytest.raises(ValueError, match="not-there"):
        estimate_conversion(
            pred, JourneyPrefix(), Objective("bad", frozenset({"not-there"})), 10, 3, seed=0
        )


# ---------------------------------------------------------------------------
# step distribution


def test_step_distribution_t1_matches_direct_prediction():
    pred = random_predictor(7)
    n = 20_000
    dist = step_distribution(pred, JourneyPrefix(), t=1, n_samples=n, seed=3)
    direct = pred.start([JourneyPrefix()])[1][0]
    tv = 0.5 * np.abs(dist - direct).sum()
    assert tv < 3 * np.sqrt(len(dist) / n)


def test_step_distribution_deterministic_chain_is_point_mass():
    vocab = abc_vocab()
    # A -> B -> C -> exit, with certainty
    rows = {
        0: np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
        1: np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        2: np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
    }
    pred = MarkovPredictor(vocab, np.array([1.0, 0, 0, 0, 0]), rows)
    for t, expected in [(1, "A"), (2, "B"), (3, "C"), (4, NULL_PAGE), (9, NULL_PAGE)]:
        dist = step_distribution(pred, JourneyPrefix(), t=t, n_samples=50, seed=0)
        assert dist[vocab.encode(expected)] == 1.0


def test_horizons_beyond_the_longest_session_are_rejected_before_sampling():
    from journeynet.journeydata import MAX_SESSION_EVENTS

    pred = hand_predictor()
    prefix, objective = JourneyPrefix(), Objective("o", frozenset({"B"}))
    for horizon in (MAX_SESSION_EVENTS + 1, 10**15):
        rule = f"must be an int in \\[1, {MAX_SESSION_EVENTS}\\], got {horizon}"
        with pytest.raises(SamplingError, match=f"horizon {rule}"):
            rollout(pred, prefix, horizon, stream(0, "t"))
        with pytest.raises(SamplingError, match=f"horizon {rule}"):
            estimate_conversion(pred, prefix, objective, 10, horizon, seed=0)
        with pytest.raises(SamplingError, match=f"horizon {rule}"):
            score_batch(pred, [prefix], [objective], n_samples=10, horizon=horizon)
        with pytest.raises(SamplingError, match=f"t {rule}"):
            step_distribution(pred, prefix, horizon, 10, seed=0)
        for prune_tol in (0.0, 1e-3):  # before the exact oracle's work estimate
            with pytest.raises(SamplingError, match=f"horizon must be an int in \\[0, {MAX_SESSION_EVENTS}\\]"):
                conversion_path_mass(pred, prefix, objective, horizon, prune_tol)
    assert len(rollout(pred, prefix, MAX_SESSION_EVENTS, stream(0, "t")).pages) >= 1


SAMPLING_TYPE_CASES = [
    pytest.param("score_batch", "n_samples", True, SamplingError, id="score_batch-n_samples-True"),
    pytest.param("score_batch", "n_samples", 10.5, SamplingError, id="score_batch-n_samples-10.5"),
    pytest.param("estimate_conversion", "horizon", True, SamplingError, id="estimate-horizon-True"),
    pytest.param("estimate_conversion", "horizon", 5.5, SamplingError, id="estimate-horizon-5.5"),
    pytest.param("conversion_path_mass", "horizon", 2.5, SamplingError, id="path_mass-horizon-2.5"),
    pytest.param("score_batch", "workers", 2.5, ConfigError, id="score_batch-workers-2.5"),
    pytest.param("score_batch", "workers", True, ConfigError, id="score_batch-workers-True"),
    # a string seed would draw the stream of that string label, not of the int
    *(
        pytest.param(entry, "seed", value, ConfigError, id=f"{entry}-seed-{value!r}")
        for entry in ("score_batch", "estimate_conversion", "step_distribution")
        for value in ("7", True, 7.0)
    ),
    *(
        pytest.param("estimate_conversion", "prefix_index", value, SamplingError, id=f"estimate-prefix_index-{value!r}")
        for value in (True, "0", 0.0)
    ),
]


@pytest.mark.parametrize("entry, name, value, error", SAMPLING_TYPE_CASES)
def test_sampling_arguments_must_be_ints_and_not_bools(entry, name, value, error):
    pred = hand_predictor()
    prefix, objective = JourneyPrefix(), Objective("o", frozenset({"B"}))
    calls = {
        "score_batch": lambda **kw: score_batch(pred, [prefix], [objective], **{"n_samples": 10, "horizon": 3, **kw}),
        "estimate_conversion": lambda **kw: estimate_conversion(
            pred, prefix, objective, **{"n_samples": 10, "horizon": 3, "seed": 0, **kw}
        ),
        "conversion_path_mass": lambda **kw: conversion_path_mass(pred, prefix, objective, **kw),
        "step_distribution": lambda **kw: step_distribution(pred, prefix, **{"t": 3, "n_samples": 10, **kw}),
    }
    with pytest.raises(error, match=f"{name} must be an int"):
        calls[entry](**{name: value})


def test_step_distribution_rejects_t_zero():
    with pytest.raises(SamplingError, match="t must be an int in \\[1, "):
        step_distribution(hand_predictor(), JourneyPrefix(), t=0, n_samples=10, seed=0)


def test_step_distribution_is_distribution():
    pred = random_predictor(11)
    for t in (1, 2, 5):
        dist = step_distribution(pred, JourneyPrefix(), t=t, n_samples=300, seed=1)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0)


# ---------------------------------------------------------------------------
# batch scoring


def test_score_batch_degenerate_matches_standalone():
    pred = random_predictor(13)
    objective = Objective("obj", frozenset({"pg0"}))
    prefix = JourneyPrefix("", ("pg1",))
    rows = score_batch(pred, [prefix], [objective], n_samples=400, horizon=3, seed=9)
    assert len(rows) == 1
    standalone = estimate_conversion(pred, prefix, objective, 400, 3, seed=9, prefix_index=0)
    assert rows[0].probability == standalone.probability
    assert rows[0].std_error == standalone.std_error


def test_score_batch_needs_one_id_per_prefix():
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",))]
    with pytest.raises(ValueError, match="prefix_ids length"):
        score_batch(random_predictor(13), prefixes, [Objective("o", frozenset({"pg0"}))], 10, 3, prefix_ids=["a"])


def test_score_batch_cartesian_order():
    pred = random_predictor(17)
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",)), JourneyPrefix("", ("pg2",))]
    objectives = [
        Objective("alpha", frozenset({"pg0"})),
        Objective("beta", frozenset({"pg1"})),
    ]
    rows = score_batch(pred, prefixes, objectives, n_samples=50, horizon=3, seed=1)
    assert len(rows) == 6
    assert [r.prefix_id for r in rows] == ["p0000", "p0000", "p0001", "p0001", "p0002", "p0002"]
    assert [r.objective_id for r in rows] == ["alpha", "beta"] * 3


def test_score_batch_workers_do_not_change_results():
    pred = random_predictor(19)
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg1",))]
    objectives = [Objective("a", frozenset({"pg0"})), Objective("b", frozenset({"pg2"}))]
    sequential = score_batch(pred, prefixes, objectives, n_samples=300, horizon=3, seed=2, workers=1)
    parallel = score_batch(pred, prefixes, objectives, n_samples=300, horizon=3, seed=2, workers=2)
    assert sequential == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the blocks in-process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("n_prefixes, workers, pool_sizes", [
    (1, 64, []),  # one block runs in-process
    (3, 64, [3]),
    (40, 64, [40]),
    (40, 3, [3]),
])
def test_score_batch_pool_has_no_more_workers_than_blocks(
    monkeypatch, n_prefixes, workers, pool_sizes
):
    # a pool starts all of its workers at the first submit, so 64 workers
    # for 3 blocks would fork 61 idle copies of the model.  score_batch
    # imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    pred = random_predictor(21)
    prefixes = [JourneyPrefix("", (f"pg{i % 3}",)) for i in range(n_prefixes)]
    objectives = [Objective("a", frozenset({"pg0"}))]
    rows = score_batch(pred, prefixes, objectives, n_samples=20, horizon=3, seed=4, workers=workers)
    assert RecordingPool.sizes == pool_sizes
    assert rows == score_batch(pred, prefixes, objectives, n_samples=20, horizon=3, seed=4, workers=1)


@pytest.mark.parametrize("workers", [0, -1])
def test_score_batch_rejects_zero_or_negative_workers(workers):
    pred = random_predictor(21)
    with pytest.raises(ConfigError):
        score_batch(pred, [JourneyPrefix()], [Objective("a", frozenset({"pg0"}))],
                    n_samples=20, horizon=3, workers=workers)


def test_score_batch_standalone_subseed_equivalence():
    pred = random_predictor(23)
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",))]
    objectives = [Objective("a", frozenset({"pg1"}))]
    rows = score_batch(pred, prefixes, objectives, n_samples=250, horizon=4, seed=3)
    for i, prefix in enumerate(prefixes):
        est = estimate_conversion(pred, prefix, objectives[0], 250, 4, seed=3, prefix_index=i)
        assert rows[i].probability == est.probability


def test_score_batch_validates_inputs():
    pred = random_predictor(1)
    with pytest.raises(ValueError):
        score_batch(pred, [], [Objective("a", frozenset({"pg0"}))])
    with pytest.raises(ValueError):
        score_batch(pred, [JourneyPrefix()], [])


@pytest.mark.parametrize("which", ["prefixes", "objectives", "prefix_ids"])
@pytest.mark.parametrize("collection", ["set", "string", "mapping", "number"])
def test_score_batch_takes_prefixes_and_objectives_in_an_order_of_the_caller(which, collection):
    # a set's order is the hash seed's: it would decide the CSV's row order or
    # its ids' ('x', 'y' in either order); a string's characters are no ids
    args = {
        "prefixes": [JourneyPrefix(), JourneyPrefix("", ("pg0",))],
        "objectives": [Objective("a", frozenset({"pg0"})), Objective("b", frozenset({"pg1"}))],
        "prefix_ids": ["x", "y"],
    }
    items = args[which]
    args[which] = {"set": set(items), "string": "pg0", "mapping": dict.fromkeys(items), "number": 3}[collection]
    with pytest.raises(ConfigError, match=f"{which} must be an ordered iterable"):
        score_batch(random_predictor(13), n_samples=10, horizon=3, **args)


def test_score_batch_scores_generators_as_lists():
    pred = random_predictor(13)
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",))]
    objectives = [Objective("b", frozenset({"pg1"})), Objective("a", frozenset({"pg0"}))]
    rows = score_batch(pred, prefixes, objectives, n_samples=20, horizon=3, seed=5)
    assert [r.objective_id for r in rows] == ["b", "a", "b", "a"]
    assert score_batch(pred, iter(prefixes), (o for o in objectives), n_samples=20, horizon=3, seed=5) == rows


def test_score_batch_takes_prefix_ids_that_are_non_empty_text():
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",))]
    with pytest.raises(ConfigError, match=r"^prefix_ids\[0\] must be non-empty text, got 1$"):
        score_batch(random_predictor(13), prefixes, [Objective("o", frozenset({"pg0"}))], 10, 3, prefix_ids=[1, None])


def test_score_batch_reads_prefix_ids_from_an_iterator():
    prefixes = [JourneyPrefix(), JourneyPrefix("", ("pg0",))]
    objectives = [Objective("o", frozenset({"pg0"}))]
    rows = score_batch(random_predictor(13), prefixes, objectives, 10, 3, prefix_ids=iter(["x", "y"]))
    assert rows == score_batch(random_predictor(13), prefixes, objectives, 10, 3, prefix_ids=["x", "y"])
    assert [r.prefix_id for r in rows] == ["x", "y"]


def test_scores_csv(tmp_path):
    rows = [
        ScoreRow("p0000", "quote", 0.25, 0.01, 1000, 30),
        ScoreRow("p0001", "quote", 1.0, 0.0, 1000, 30),
    ]
    path = tmp_path / "scores.csv"
    write_scores_csv(rows, path)
    text = path.read_text().strip().split("\n")
    assert text[0] == "prefix_id,objective_id,probability,std_err,n_samples,horizon"
    assert text[1].startswith("p0000,quote,0.25,")
    assert len(text) == 3


# ---------------------------------------------------------------------------
# path sharing: each distinct live path is stepped once


def per_rollout_sample_paths(
    predictor, state, dists, row, uniforms, null_index, is_target=None, open_objectives=None, stop=True
):
    """The engine before path sharing: every live rollout is its own row of `step`.

    With `stop` and objectives, a rollout ends once every open objective of
    its start row is hit; otherwise it runs to the NULL page or the horizon.
    """
    n, horizon = uniforms.shape
    paths = np.full((n, horizon), -1, dtype=np.intp)
    cdf = np.cumsum(dists, axis=1)
    last = cdf.shape[1] - 1
    live = np.arange(n)
    rows = np.full(n, row, dtype=np.intp)
    todo = open_objectives[rows] if stop and is_target is not None else None
    for t in range(horizon):
        idx = np.minimum((cdf[rows] <= uniforms[live, t, None]).sum(axis=1), last)
        paths[live, t] = idx
        going = idx != null_index
        if todo is not None:
            todo &= ~is_target[idx]
            going &= todo.any(axis=1)
        if t + 1 == horizon or not going.any():
            break
        live = live[going]
        if todo is not None:
            todo = todo[going]
        state, dist = predictor.step(state, rows[going], idx[going])
        cdf = np.cumsum(dist, axis=1)
        rows = np.arange(live.size)
    return paths


def simulated_paths(pred, prefix, n_samples, horizon, seed, is_target=None):
    state, dists = pred.start([prefix])
    open_objectives = None if is_target is None else np.ones((1, is_target.shape[1]), dtype=bool)
    chunks = simulator._simulate(pred, state, dists, [(seed, "paths")], n_samples, horizon, is_target, open_objectives)
    return np.vstack([paths for _, paths in chunks])


@pytest.mark.parametrize("make, n_objectives", [
    (hand_predictor, 0),
    (lambda: random_predictor(3), 0),
    (lambda: random_predictor(8, n_pages=6), 0),
    (lambda: random_toy_predictor(5, n_pages=4), 0),
    (lambda: random_predictor(8, n_pages=6), 2),
], ids=["hand", "random-3", "random-6", "toychains-4", "random-6-two-objectives"])
def test_path_sharing_paths_equal_per_rollout_paths(make, n_objectives, monkeypatch):
    pred = make()
    # objective j is hit at page j + 1; a rollout stops once both are hit
    is_target = np.eye(len(pred.vocab), n_objectives, k=-1, dtype=bool) if n_objectives else None
    cases = [(1, 1), (7, 2), (300, 5), (CHUNK + 37, 12)]  # the last crosses a chunk boundary
    new = {
        (n, h, seed): simulated_paths(pred, JourneyPrefix(), n, h, seed, is_target)
        for n, h in cases for seed in (0, 4)
    }
    if n_objectives:  # some rollouts stop before the NULL page and the horizon
        tails = new[(CHUNK + 37, 12, 0)]
        assert ((tails[:, -1] == -1) & (tails != pred.vocab.null_index).all(axis=1)).any()
    monkeypatch.setattr(simulator, "_sample_paths", per_rollout_sample_paths)
    for (n, h, seed), paths in new.items():
        assert paths.shape == (n, h)
        assert np.array_equal(paths, simulated_paths(pred, JourneyPrefix(), n, h, seed, is_target))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), min_size=1, max_size=90))
))
def test_distinct_equals_np_unique_with_its_inverse(case):
    size, keys = case
    keys = np.array(keys, dtype=np.intp)
    distinct, inverse = simulator._distinct(keys, size)
    want, want_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(distinct, want) and np.array_equal(inverse, want_inverse)
    assert distinct.dtype == inverse.dtype == np.intp


@pytest.mark.parametrize("n_samples", [1, 5, 9])
def test_simulate_draws_the_uniforms_stream_at_gives_across_chunks(n_samples, monkeypatch):
    recorded = []

    def recording(predictor, state, dists, starts, uniforms, *args):
        recorded.append((starts, uniforms))
        return np.full(uniforms.shape, -1, dtype=np.intp)

    monkeypatch.setattr(simulator, "_sample_paths", recording)
    monkeypatch.setattr(simulator, "CHUNK", 4)  # with 5 or 9 samples a prefix spans two or three chunks
    streams = [(9, "conversion", k) for k in (0, 3, 1)]
    horizon = 6
    pred = types.SimpleNamespace(vocab=abc_vocab())  # _simulate reads only the NULL index
    assert len(list(simulator._simulate(pred, None, None, streams, n_samples, horizon))) == len(recorded)
    assert all(len(starts) <= 4 for starts, _ in recorded)
    starts = np.concatenate([starts for starts, _ in recorded])
    uniforms = np.vstack([u for _, u in recorded])
    assert np.array_equal(starts, np.arange(len(streams) * n_samples) // n_samples)
    stride = blocks_for(horizon)
    for j, (r, u) in enumerate(zip(starts.tolist(), uniforms)):
        i = j - r * n_samples  # sample i of row r reads its stream from block i * stride
        assert np.array_equal(u, stream_at(streams[r], i * stride).random(stride * 4)[:horizon]), (r, i)


def test_block_hit_counts_equal_an_isin_count_of_the_same_paths():
    # UNKNOWN_PAGE is the last class, the one that a gather at the -1 padding
    # after a path's end would read if the padding were not its own entry
    vocab = abc_vocab()
    rows = {
        0: [0.1, 0.3, 0.2, 0.3, 0.1],
        1: [0.2, 0.1, 0.2, 0.4, 0.1],
        2: [0.3, 0.2, 0.1, 0.3, 0.1],
        4: [0.3, 0.3, 0.1, 0.3, 0.0],
    }
    pred = MarkovPredictor(vocab, rows[0], rows)
    prefixes = [JourneyPrefix("", ("A",)), JourneyPrefix("", ("C",)), JourneyPrefix("", ("B", "A"))]
    objectives = [Objective("b", {"B"}), Objective("unknown", {UNKNOWN_PAGE}), Objective("bc", {"B", "C"})]
    n, horizon, seed = CHUNK + 150, 6, 3

    columns = simulator._targets(objectives, vocab)
    targets = [np.flatnonzero(column[:-1]) for column in columns]
    is_target = columns.T
    classes = [[vocab.encode(page) for page in p.pages] for p in prefixes]
    already = np.array([[np.isin(c, t).any() for t in targets] for c in classes])
    started = np.flatnonzero(~already.all(axis=1))
    state, dists = pred.start([prefixes[k] for k in started])
    streams = [(seed, "conversion", k) for k in started.tolist()]
    counts = np.zeros(already.shape, dtype=int)
    ended_early = 0
    for starts, paths in simulator._simulate(pred, state, dists, streams, n, horizon, is_target, ~already[started]):
        ended_early += int((paths[:, -1] == -1).sum())
        for j, target in enumerate(targets):
            counts[started, j] += np.bincount(starts[np.isin(paths, target).any(axis=1)], minlength=len(started))
    expected = np.where(already, n, counts)
    assert ended_early > 0
    assert 0 < expected[:, 1].min() and expected[:, 1].max() < n

    cells = simulator._estimate_block(pred, prefixes, objectives, columns, n, horizon, seed, 0)
    assert [[round(c.probability * n) for c in row] for row in cells] == expected.tolist()


def test_score_batch_decides_the_objectives_targets_once(monkeypatch):
    decided, targets = [], simulator._targets
    monkeypatch.setattr(
        simulator, "_targets", lambda objectives, vocab: decided.append(objectives) or targets(objectives, vocab)
    )
    objectives = [Objective("b", {"B"}), Objective("c", {"C"})]
    prefixes = [JourneyPrefix("", ("A",))] * (2 * simulator.PREFIX_BLOCK + 1)  # three blocks
    rows = score_batch(hand_predictor(), prefixes, objectives, n_samples=20, horizon=3, seed=0)
    assert len(rows) == len(prefixes) * len(objectives)
    assert decided == [tuple(objectives)]  # read once into a tuple


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # score_batch imports the pool only when workers > 1
    code = "import sys, journeynet; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


class RowCounter:
    """Wraps a predictor and records the (rows, pages) of every `step` call."""

    def __init__(self, inner):
        self.inner, self.vocab, self.calls = inner, inner.vocab, []

    def start(self, prefixes):
        return self.inner.start(prefixes)

    def step(self, state, rows, pages):
        self.calls.append((np.asarray(rows).copy(), np.asarray(pages).copy()))
        return self.inner.step(state, rows, pages)


def test_each_step_feeds_each_distinct_path_once():
    for seed in range(4):
        pred = RowCounter(random_predictor(seed, n_pages=4))
        n, horizon = 500, 8
        paths = simulated_paths(pred, JourneyPrefix(), n, horizon, seed)
        null = pred.vocab.null_index
        assert pred.calls
        for t, (rows, pages) in enumerate(pred.calls):
            assert len(set(zip(rows.tolist(), pages.tolist()))) == len(rows)
            alive = (paths[:, t] >= 0) & (paths[:, t] != null)
            assert len(rows) <= alive.sum()
            # exactly one row per distinct path so far
            assert len(rows) == len(np.unique(paths[alive, :t + 1], axis=0))


def test_single_successor_chain_steps_one_row():
    vocab = abc_vocab()
    # A -> B -> C -> A, with certainty, so every rollout walks one path
    cycle = {i: np.eye(5)[(i + 1) % 3] for i in range(3)}
    pred = RowCounter(MarkovPredictor(vocab, np.eye(5)[0], cycle))
    paths = simulated_paths(pred, JourneyPrefix(), 1000, 20, seed=2)
    assert (paths == np.arange(20) % 3).all()
    assert [len(rows) for rows, _ in pred.calls] == [1] * 19


# ---------------------------------------------------------------------------
# exact enumeration frontier: one `step` per block of one depth


def test_frontier_steps_once_per_depth():
    objective = Objective("obj", frozenset({"pg0"}))
    for seed in range(4):
        pred = RowCounter(random_predictor(seed))
        mass = conversion_path_mass(pred, JourneyPrefix(), objective, horizon=4)
        # every node continues to pg1 and pg2, so depth d holds 2^d nodes, all in one call
        assert [len(rows) for rows, _ in pred.calls] == [2, 4, 8]
        assert mass.nodes == 1 + 2 + 4 + 8


def small_random_model():
    config = ModelConfig(max_len=12, conv_stages=((3, 4, 4),), lstm_hidden=(6, 5), fc_width=5, dropout_rate=0.0)
    return SequenceModel.build(config, PageVocabulary(["a", "b", "c"], min_freq=1), seed=3)


@pytest.mark.parametrize("make, prefix, objective, prune_tol", [
    (lambda: random_predictor(6, n_pages=4), JourneyPrefix(), Objective("o", {"pg1"}), 1e-3),
    (small_random_model, JourneyPrefix("cheap cover", ("b",)), Objective("o", {"a"}), 0.0),
], ids=["toy", "sequence-model"])
def test_frontier_chunk_size_does_not_change_the_masses(make, prefix, objective, prune_tol, monkeypatch):
    pred = RowCounter(make())
    whole = conversion_path_mass(pred, prefix, objective, horizon=4, prune_tol=prune_tol)
    assert max(len(rows) for rows, _ in pred.calls) > 2
    monkeypatch.setattr(simulator, "CHUNK", 2)
    pred.calls.clear()
    chunked = conversion_path_mass(pred, prefix, objective, horizon=4, prune_tol=prune_tol)
    assert max(len(rows) for rows, _ in pred.calls) <= 2
    assert sum(len(rows) for rows, _ in pred.calls) == chunked.nodes - 1
    assert chunked.nodes == whole.nodes
    for field in ("hit", "missed", "pruned"):
        assert getattr(chunked, field) == pytest.approx(getattr(whole, field), rel=0, abs=1e-12)


@pytest.mark.parametrize("objective", [
    Objective("unknown", {UNKNOWN_PAGE}), Objective("a-or-unknown", {"a", UNKNOWN_PAGE}),
], ids=["unknown", "a-or-unknown"])
def test_a_prefix_page_outside_the_vocabulary_reaches_an_unknown_objective(objective):
    # the model reads an unlisted page as the <unknown> class, as rollouts hit by class
    config = ModelConfig(max_len=16, conv_stages=((3, 4, 4),), lstm_hidden=(8,), fc_width=8, dropout_rate=0.0)
    model = SequenceModel.build(config, PageVocabulary(["a", "b", "c"], min_freq=1), seed=3)
    prefixes = [JourneyPrefix("kw", ("b", "zzz-not-a-page")), JourneyPrefix("kw", ("b",))]
    estimates = [
        estimate_conversion(model, p, objective, 400, 4, seed=1, prefix_index=k) for k, p in enumerate(prefixes)
    ]
    assert estimates[0].probability == 1.0 and estimates[0].std_error == 0.0
    assert estimates[1].probability < 1.0
    rows = score_batch(model, prefixes, [objective], n_samples=400, horizon=4, seed=1)
    assert [r.probability for r in rows] == [e.probability for e in estimates]
    assert conversion_path_mass(model, prefixes[0], objective, 4) == simulator.PathMass(1.0, 0.0, 0.0, 0)
    assert exact_conversion(model, prefixes[1], objective, 4) < 1.0


def brute_force_path_mass(pred, targets, horizon):
    """(hit, missed) of a Markov toy predictor by summing every class sequence up to `horizon`."""
    null = pred.vocab.null_index
    hit = missed = 0.0
    for length in range(1, horizon + 1):
        for path in itertools.product(range(len(pred.vocab)), repeat=length):
            if any(c in targets or c == null for c in path[:-1]):
                continue  # the path ended before its last page
            p = pred.start_dist[path[0]] * np.prod([pred.table[a, b] for a, b in zip(path, path[1:])])
            if path[-1] in targets:
                hit += p
            elif path[-1] == null or length == horizon:
                missed += p
    return hit, missed


def test_frontier_matches_brute_force_path_sums():
    objective = Objective("two-pages", frozenset({"pg0", "pg2"}))
    for seed in range(4):
        pred = random_toy_predictor(seed)
        targets = {pred.vocab.encode(p) for p in objective.target_pages}
        for horizon in range(1, 5):
            mass = conversion_path_mass(pred, JourneyPrefix(), objective, horizon)
            hit, missed = brute_force_path_mass(pred, targets, horizon)
            assert mass.pruned == 0.0
            assert mass.hit == pytest.approx(hit, rel=0, abs=1e-12)
            assert mass.missed == pytest.approx(missed, rel=0, abs=1e-12)
            assert all(type(v) is float for v in (mass.hit, mass.missed, mass.pruned))


# ---------------------------------------------------------------------------
# counter-based stream alignment (chunking must not change sample streams)


def test_rollout_streams_align_with_chunked_uniforms():
    # sample i of the estimator reads blocks [i*stride, ...); a standalone
    # generator advanced to the same offset must see identical uniforms
    horizon = 5
    stride = blocks_for(horizon)
    key = (123, "conversion", 0)
    bulk = stream_at(key, 0).random(8 * stride * 4).reshape(8, stride * 4)[:, :horizon]
    for i in range(8):
        solo = stream_at(key, i * stride).random(horizon)
        assert np.array_equal(bulk[i], solo)


# ---------------------------------------------------------------------------
# batched engine on a trained model (real GEMMs, so batch shapes matter)


@pytest.fixture(scope="module")
def funnel_model():
    sessions = generate_synthetic(funnel_chain(), 300, seed=4)
    config = TrainConfig(
        epochs=2, batch_size=32, dropout_rate=0.0, seed=4, max_len=16,
        conv_stages=((3, 4, 4),), lstm_hidden=(12, 8), fc_width=12,
    )
    model, _ = train(sessions, config, build_vocab(sessions, min_freq=2))
    return model


def test_batched_step_matches_one_row_steps(funnel_model):
    model = funnel_model
    enc = model.vocab.encode
    state1, _ = model.start([JourneyPrefix("car insurance quotes online", ("landing",))])
    firsts = [enc("form_car"), enc("form_driver"), enc("price")]
    state3, _ = model.step(state1, [0, 0, 0], firsts)
    rows = [2, 0, 1, 0, 2]
    pages = [enc("checkout"), enc("price"), enc("converted"), enc("form_driver"), enc("landing")]
    batch_state, batch_dists = model.step(state3, rows, pages)
    assert batch_dists.shape == (len(rows), len(model.vocab))
    for j, (r, page) in enumerate(zip(rows, pages)):
        one, _ = model.step(state1, [0], [firsts[r]])
        one, dist = model.step(one, [0], [page])
        np.testing.assert_allclose(batch_dists[j], dist[0], rtol=0, atol=1e-12)
        for (hb, cb), (h1, c1) in zip(batch_state.layers, one.layers):
            np.testing.assert_allclose(hb[j], h1[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cb[j], c1[0], rtol=0, atol=1e-12)


def test_score_batch_rows_equal_standalone_estimates_on_a_model(funnel_model):
    prefixes = [
        JourneyPrefix("car insurance quotes online", ("landing",)),
        JourneyPrefix("quotes", ("landing", "form_car", "price")),
    ]
    objectives = [
        Objective("converted", frozenset({"converted"})),
        Objective("price", frozenset({"price"})),
        Objective("form", frozenset({"form_driver", "checkout"})),
    ]
    n = CHUNK + 500  # two chunks
    rows = score_batch(funnel_model, prefixes, objectives, n_samples=n, horizon=8, seed=6)
    cells = [(i, p, o) for i, p in enumerate(prefixes) for o in objectives]
    assert len(rows) == len(cells)
    for row, (i, prefix, objective) in zip(rows, cells):
        est = estimate_conversion(funnel_model, prefix, objective, n, 8, seed=6, prefix_index=i)
        assert row.objective_id == est.objective_id
        assert row.probability == est.probability
        assert row.std_error == est.std_error
    assert rows[4].probability == 1.0  # the second prefix already visited "price"


def test_lockstep_block_cells_equal_standalone_estimates(funnel_model):
    # one block: 1 to 4 phrases, an out-of-vocabulary page, a keyword that is
    # a page name, a prefix already converted on one objective; the rollouts
    # of all started prefixes step together, chunks straddling prefixes
    prefixes = [
        JourneyPrefix("", ()),
        JourneyPrefix("landing", ("form_car",)),
        JourneyPrefix("quotes", ("landing", "zz-not-a-page")),
        JourneyPrefix("cheap cover", ("landing", "form_car", "price")),
    ]
    objectives = [
        Objective("converted", frozenset({"converted"})),
        Objective("price", frozenset({"price"})),
        Objective("form", frozenset({"form_driver", "checkout"})),
    ]
    n = CHUNK + 37
    pred = RowCounter(funnel_model)
    rows = score_batch(pred, prefixes, objectives, n_samples=n, horizon=8, seed=11)
    # all 4 x n rollouts in ceil(4n / CHUNK) chunks, at most one step per time step each
    assert len(pred.calls) <= -(-len(prefixes) * n // CHUNK) * 7
    assert rows[10].probability == 1.0  # the last prefix visited "price"
    for row, (k, o) in zip(rows, [(k, o) for k in range(len(prefixes)) for o in objectives]):
        est = estimate_conversion(funnel_model, prefixes[k], o, n, 8, seed=11, prefix_index=k)
        assert (row.probability, row.std_error) == (est.probability, est.std_error)
        assert 0.0 < row.probability <= 1.0


@pytest.mark.parametrize("kind", ["funnel-model", "toy-chain"])
def test_decided_rollouts_stop_and_standalone_estimates_are_unchanged(kind, request, monkeypatch):
    if kind == "funnel-model":
        pages = ("landing", "form_car", "form_driver", "price", "checkout", "converted")
        pred = request.getfixturevalue("funnel_model")
    else:
        pages = tuple(f"pg{i}" for i in range(6))
        pred = random_toy_predictor(7, n_pages=6)
    prefixes = [
        JourneyPrefix("", ()),
        JourneyPrefix("quotes", pages[:1]),
        JourneyPrefix("cheap cover", pages[:2]),  # already hit objective "b"
        JourneyPrefix("", pages[4:5]),
    ]
    objectives = [
        Objective("a", frozenset({pages[-1]})),
        Objective("b", frozenset({pages[1]})),
        Objective("c", frozenset(pages[2:4])),
    ]
    n, horizon, seed = CHUNK + 37, 8, 12  # the block's rollouts cross chunk boundaries

    def cells(predictor):
        rows = score_batch(predictor, prefixes, objectives, n_samples=n, horizon=horizon, seed=seed)
        return [(r.probability, r.std_error) for r in rows]

    stopping = RowCounter(pred)
    stopped = cells(stopping)
    assert stopped[len(objectives) * 2 + 1] == (1.0, 0.0)
    assert 0.0 < min(p for p, _ in stopped)
    for cell, (k, o) in zip(stopped, [(k, o) for k in range(len(prefixes)) for o in objectives]):
        est = estimate_conversion(pred, prefixes[k], o, n, horizon, seed=seed, prefix_index=k)
        assert cell == (est.probability, est.std_error)
    # run to the end: the path-sharing engine without its objectives, and the per-rollout reference
    sample_paths = simulator._sample_paths
    monkeypatch.setattr(simulator, "_sample_paths", lambda *args: sample_paths(*args[:6]))
    running = RowCounter(pred)
    assert cells(running) == stopped
    rows_fed = [sum(len(rows) for rows, _ in counter.calls) for counter in (stopping, running)]
    assert rows_fed[0] < rows_fed[1]
    monkeypatch.setattr(simulator, "_sample_paths", functools.partial(per_rollout_sample_paths, stop=False))
    assert cells(pred) == stopped


def test_one_objective_call_never_steps_a_target_page(funnel_model):
    pred = RowCounter(funnel_model)
    objective = Objective("form", frozenset({"form_driver", "checkout"}))
    est = estimate_conversion(pred, JourneyPrefix("quotes", ("landing",)), objective, 3000, 8, seed=5)
    assert 0.0 < est.probability < 1.0
    targets = [pred.vocab.encode(p) for p in objective.target_pages]
    assert pred.calls
    assert not any(np.isin(pages, targets).any() for _, pages in pred.calls)


def test_score_batch_memo_serves_a_repeated_call_without_a_pass(funnel_model, monkeypatch):
    from journeynet.seqmodel import model_from_dict, model_to_dict
    from journeynet.textenc import CnnEncoder

    model = model_from_dict(model_to_dict(funnel_model))  # cold: the shared fixture may be warm
    calls, passes = [], []
    original, original_pass = CnnEncoder.embed_batch, SequenceModel._zero_state

    def counting(self, phrases):
        calls.append(list(phrases))
        return original(self, phrases)

    def counting_pass(self, batch, dtype):
        passes.append(batch)
        return original_pass(self, batch, dtype)

    monkeypatch.setattr(CnnEncoder, "embed_batch", counting)
    monkeypatch.setattr(SequenceModel, "_zero_state", counting_pass)
    prefixes = [
        JourneyPrefix("car insurance quotes online", ("landing",)),
        JourneyPrefix("quotes", ("landing", "form_car")),
        JourneyPrefix("cheap cover", ("landing", "form_car", "form_driver")),
        JourneyPrefix("", ("landing", "price")),
    ]
    objectives = [Objective("converted", frozenset({"converted"})), Objective("price", frozenset({"price"}))]
    args = (prefixes, objectives, 200, 8, 3)
    rows = [score_batch(model, *args, workers=1) for _ in range(2)]
    assert len(rows[0]) == len(prefixes) * len(objectives)
    # the first call encodes the page names, in a call of their own, and runs one padded
    # pass of every prefix; the memo serves every prefix of the second
    assert passes == [len(prefixes)] and len(calls) == 2 and calls[0] == list(model.vocab.page_names)
    assert all(sum(c.count(name) for c in calls) == 1 for name in model.vocab.page_names)
    cold = model_from_dict(model_to_dict(funnel_model))
    assert rows[0] == rows[1] == score_batch(cold, *args, workers=1)


# ---------------------------------------------------------------------------
# compute copies: Monte Carlo entry points roll out a float32 copy of a model


def funnel_ensemble(funnel_model):
    from journeynet.training import Ensemble

    return Ensemble([funnel_model, SequenceModel.build(funnel_model.config, funnel_model.vocab, seed=5)])


FUNNEL_PREFIXES = [
    JourneyPrefix("car insurance quotes online", ("landing",)),
    JourneyPrefix("quotes", ("landing", "form_car")),
    JourneyPrefix("", ("landing", "price")),  # already hit objective "price"
]
FUNNEL_OBJECTIVES = [Objective("converted", frozenset({"converted"})), Objective("price", frozenset({"price"}))]


@pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
def test_compute_copy_score_batch_workers_and_standalone_estimates_agree(funnel_model, ensemble):
    pred = funnel_ensemble(funnel_model) if ensemble else funnel_model
    n, horizon, seed = 500, 8, 21
    sequential = score_batch(pred, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n, horizon, seed, workers=1)
    assert score_batch(pred, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n, horizon, seed, workers=2) == sequential
    cells = [(k, o) for k in range(len(FUNNEL_PREFIXES)) for o in FUNNEL_OBJECTIVES]
    for row, (k, o) in zip(sequential, cells):
        est = estimate_conversion(pred, FUNNEL_PREFIXES[k], o, n, horizon, seed=seed, prefix_index=k)
        assert (row.probability, row.std_error) == (est.probability, est.std_error)
    assert 0.0 < sequential[0].probability < 1.0  # a cell its prefix does not decide


def test_compute_copy_serves_the_monte_carlo_and_leaves_the_checkpoint_bytes_unchanged(funnel_model, monkeypatch):
    from journeynet.seqmodel import model_from_dict, model_to_dict

    model = model_from_dict(model_to_dict(funnel_model))
    before = json.dumps(model_to_dict(model), sort_keys=True)
    dtypes = []
    original = SequenceModel.step

    def recording(self, state, rows, pages):
        dtypes.extend([self._cache.table.dtype, state.layers[0][0].dtype])
        return original(self, state, rows, pages)

    monkeypatch.setattr(SequenceModel, "step", recording)
    prefix, objective = FUNNEL_PREFIXES[0], FUNNEL_OBJECTIVES[0]
    score_batch(model, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=200, horizon=8, seed=3)
    estimate_conversion(model, prefix, objective, 200, 8, seed=3)
    rollout(model, prefix, 8, stream(3, "trace"))
    step_distribution(model, prefix, 3, 200, seed=3)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    dtypes.clear()
    conversion_path_mass(model, prefix, objective, horizon=3)  # the oracle runs the masters
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    assert json.dumps(model_to_dict(model), sort_keys=True) == before


def test_compute_copy_sees_in_place_edits_between_score_batch_calls(funnel_model):
    from journeynet.seqmodel import model_from_dict, model_to_dict

    def new_array(weight):
        weight.data = weight.data * 0.5

    def made_writeable(weight):
        weight.data.flags.writeable = True
        weight.data *= 0.5

    model = model_from_dict(model_to_dict(funnel_model))
    args = (FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, 2000, 8, 7)
    rows = score_batch(model, *args)
    for weight in (model.encoder.stages[0].kernels, model.layers[0].wx, model.w_out):
        for edit in (new_array, made_writeable):
            with pytest.raises(ValueError, match="read-only"):  # a served model's weights are frozen
                weight.data[...] *= 0.5
            edit(weight)
            edited = score_batch(model, *args)
            assert edited != rows
            # a model loaded from the edited weights, never run before, gives the same rows
            assert edited == score_batch(model_from_dict(model_to_dict(model)), *args)
            rows = edited


def test_compute_copy_encodes_the_page_names_once_over_calls_of_every_entry_point(funnel_model, monkeypatch):
    from journeynet.seqmodel import model_from_dict, model_to_dict
    from journeynet.textenc import CnnEncoder
    from journeynet.training import Ensemble

    # freshly loaded members: the shared fixture may be warm
    ensemble = Ensemble([model_from_dict(model_to_dict(m)) for m in funnel_ensemble(funnel_model).models])
    calls, passes = [], []
    original, original_pass = CnnEncoder.embed_batch, SequenceModel._zero_state

    def counting(self, phrases):
        calls.append(list(phrases))
        return original(self, phrases)

    def counting_pass(self, *args):
        passes.append(self)
        return original_pass(self, *args)

    monkeypatch.setattr(CnnEncoder, "embed_batch", counting)
    monkeypatch.setattr(SequenceModel, "_zero_state", counting_pass)
    for seed in (3, 4):
        score_batch(ensemble, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=100, horizon=8, seed=seed)
        estimate_conversion(ensemble, FUNNEL_PREFIXES[0], FUNNEL_OBJECTIVES[0], 100, 8, seed=seed)
    # every compute copy of a member runs one pass, its first, whose table and memo serve the rest
    assert passes == [m.compute_copy() for m in ensemble.models]
    for name in ensemble.vocab.page_names:
        assert sum(c.count(name) for c in calls) == len(ensemble), name


# ---------------------------------------------------------------------------
# frozen serving: a served model keeps one float32 copy and one start memo


def fresh_funnel(funnel_model):
    from journeynet.seqmodel import model_from_dict, model_to_dict

    return model_from_dict(model_to_dict(funnel_model))  # cold: the shared fixture may be served


def serve_every_entry_point(predictor, seed):
    prefix, objective = FUNNEL_PREFIXES[0], FUNNEL_OBJECTIVES[0]
    score_batch(predictor, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=100, horizon=8, seed=seed)
    estimate_conversion(predictor, prefix, objective, 100, 8, seed=seed)
    rollout(predictor, prefix, 8, stream(seed, "trace"))
    step_distribution(predictor, prefix, 3, 100, seed=seed)


def test_frozen_model_builds_one_float32_copy_and_one_memo_over_repeated_serving_calls(funnel_model, monkeypatch):
    from journeynet.textenc import CnnEncoder

    model = fresh_funnel(funnel_model)
    built, names_passes, passes = [], [], []
    init, embed, zero_state = SequenceModel.__init__, CnnEncoder.embed_batch, SequenceModel._zero_state

    def counting_init(self, *args):
        built.append(self)
        return init(self, *args)

    def counting_embed(self, phrases):
        names_passes.append(list(phrases) == list(model.vocab.page_names))
        return embed(self, phrases)

    def counting_pass(self, *args):
        passes.append(self)
        return zero_state(self, *args)

    monkeypatch.setattr(SequenceModel, "__init__", counting_init)
    monkeypatch.setattr(CnnEncoder, "embed_batch", counting_embed)
    monkeypatch.setattr(SequenceModel, "_zero_state", counting_pass)
    memos = set()
    for seed in range(3):
        serve_every_entry_point(model, seed)
        memos.add(id(model._cache))
    assert len(built) == 1 and model.compute_copy() is built[0]
    assert len(memos) == 1 and names_passes.count(True) == 1
    # every entry point serves prefixes of the first call, which the copy's memo keeps
    assert passes == [built[0]]


def test_frozen_weights_after_a_serving_call_are_read_only(funnel_model):
    from journeynet import numerics as nm

    model = fresh_funnel(funnel_model)
    assert all(w.data.flags.writeable for _, w in model.parameters())
    score_batch(model, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=100, horizon=8, seed=1)
    copy = model.compute_copy()
    for _, w in [*model.parameters(), *copy.parameters()]:
        assert not w.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w.data[...] = 0.0
    # finite differences write into the weights, so a served model cannot be grad-checked
    with pytest.raises(ValueError, match="read-only"):
        nm.grad_check(lambda: model.session_nll(["quotes", "landing"], [0, 1]), [model.w_out])


def test_frozen_never_by_train_or_evaluate_only_by_serving():
    from journeynet.training import evaluate

    sessions = generate_synthetic(funnel_chain(), 40, seed=6)
    config = TrainConfig(
        epochs=1, batch_size=16, dropout_rate=0.0, seed=6, max_len=16,
        conv_stages=((3, 4, 4),), lstm_hidden=(6,), fc_width=6,
    )
    model, _ = train(sessions, config, build_vocab(sessions, min_freq=2))

    def writeable():
        return [w.data.flags.writeable for _, w in model.parameters()]

    assert all(writeable())
    evaluate(model, sessions, model.vocab)
    model.forward_session(["quotes", "landing"])
    assert all(writeable())
    estimate_conversion(model, FUNNEL_PREFIXES[0], FUNNEL_OBJECTIVES[0], 50, 8, seed=1)
    assert not any(writeable())


def test_frozen_ensemble_members_keep_one_copy_each(funnel_model):
    from journeynet.training import Ensemble

    ensemble = Ensemble([fresh_funnel(funnel_model), SequenceModel.build(funnel_model.config, funnel_model.vocab, seed=5)])
    serve_every_entry_point(ensemble, 1)
    copies = [m.compute_copy() for m in ensemble.models]
    serve_every_entry_point(ensemble, 2)
    assert [c is m for c, m in zip(copies, ensemble.compute_copy().models)] == [True, True]
    assert copies[0] is not copies[1]


def test_frozen_model_scores_with_two_workers_the_bytes_of_one(funnel_model, tmp_path):
    model = fresh_funnel(funnel_model)
    args = (FUNNEL_PREFIXES * 3, FUNNEL_OBJECTIVES, 300, 8, 11)
    paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
    write_scores_csv(score_batch(model, *args, workers=1), paths[0])
    copy = model.compute_copy()
    assert not any(w.data.flags.writeable for _, w in model.parameters())
    write_scores_csv(score_batch(model, *args, workers=2), paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert model.compute_copy() is copy  # the pool's call cast nothing


def test_frozen_encoder_edit_made_writeable_is_seen_when_the_copy_is_cast_again(funnel_model):
    model = fresh_funnel(funnel_model)
    args = (FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, 2000, 8, 7)
    rows = score_batch(model, *args)
    kernels = model.encoder.stages[0].kernels
    kernels.data.flags.writeable = True
    kernels.data *= 0.5
    model.w_out.data = model.w_out.data * 0.5  # the next call casts a new copy
    # the cast must not freeze the edited kernels again before the memo sees them
    edited = score_batch(model, *args)
    assert edited != rows
    assert edited == score_batch(fresh_funnel(model), *args)


# ---------------------------------------------------------------------------
# one serving cache per model


def test_serving_cache_of_a_first_start_freezes_every_weight(funnel_model):
    model = fresh_funnel(funnel_model)
    model.start([FUNNEL_PREFIXES[0]])
    assert not any(w.data.flags.writeable for _, w in model.parameters())
    # the compute copy keeps a cache of its own, built and frozen when the copy was made
    copy = model.compute_copy()
    assert copy._cache is not None and copy._cache is not model._cache
    assert not any(w.data.flags.writeable for _, w in copy.parameters())
    assert copy._serving() is copy._cache and model._serving().copy is copy


def test_serving_cache_is_built_under_a_tape_that_watches_the_weights(funnel_model):
    from journeynet import numerics as nm

    model = fresh_funnel(funnel_model)
    with nm.ComputeTape([w for _, w in model.parameters()]):
        tracked = model.start(FUNNEL_PREFIXES)[1]
    assert not any(w.data.flags.writeable for _, w in model.parameters())
    assert len(model._cache.memo) == len(FUNNEL_PREFIXES)
    assert np.array_equal(tracked, fresh_funnel(funnel_model).start(FUNNEL_PREFIXES)[1])


def test_serving_cache_is_not_pickled_with_a_compute_copy(funnel_model):
    import pickle

    model = fresh_funnel(funnel_model)
    score_batch(model, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=100, horizon=8, seed=1)  # fills the cache
    copy = model.compute_copy()
    blob = pickle.dumps(copy)
    clone = pickle.loads(blob)
    assert clone._cache is None and copy._cache is not None
    assert {w.data.dtype for name, w in clone.parameters() if not name.startswith("conv")} == {np.dtype(np.float32)}
    # the blob holds the copy's own weights: no float64 LSTM or head master, no memo rows
    own = sum(w.data.nbytes for _, w in copy.parameters())
    lstm_and_head = sum(w.data.nbytes for name, w in model.parameters() if not name.startswith("conv"))
    assert own < len(blob) < own + lstm_and_head // 4
    # the worker's clone builds a cache of its own, with the copy's bits
    assert np.array_equal(clone.start(FUNNEL_PREFIXES)[1], copy.start(FUNNEL_PREFIXES)[1])
    assert all(a is w.data for a, (_, w) in zip(clone._cache.arrays, clone.parameters()))


def test_compute_copy_replaced_and_served_model_dropped_are_freed_without_the_cyclic_gc(funnel_model):
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        model = fresh_funnel(funnel_model)
        score_batch(model, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=50, horizon=8, seed=1)
        replaced = weakref.ref(model.compute_copy())
        model.w_out.data = model.w_out.data * 0.5  # the next serving call casts a new copy
        score_batch(model, FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, n_samples=50, horizon=8, seed=1)
        assert replaced() is None
        dropped = weakref.ref(model)
        del model
        assert dropped() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# rollout trees: a served model steps each path of a recurring prefix once


@pytest.mark.parametrize("ensemble", [False, True], ids=["model", "ensemble"])
def test_tree_serves_a_repeated_score_batch_without_cell_steps(funnel_model, ensemble, monkeypatch):
    from journeynet.training import Ensemble

    def cold():
        members = [fresh_funnel(m) for m in (funnel_ensemble(funnel_model).models if ensemble else [funnel_model])]
        return Ensemble(members) if ensemble else members[0]

    pred, rows_stepped = cold(), []
    original = SequenceModel.cell_steps

    def counting(self, xproj, state, rows=None):
        rows_stepped.append(len(state[0][0]))
        return original(self, xproj, state, rows)

    monkeypatch.setattr(SequenceModel, "cell_steps", counting)
    args = (FUNNEL_PREFIXES, FUNNEL_OBJECTIVES, 300, 8, 3)
    score_batch(pred, *args[:-1], 4)  # the memo keeps the prefixes
    first = score_batch(pred, *args)  # their trees keep every path this seed samples
    rows_stepped.clear()
    second = score_batch(pred, *args)
    assert rows_stepped == []
    assert first == second == score_batch(cold(), *args)


def test_tree_of_one_shot_prefixes_adds_no_child(funnel_model):
    model = fresh_funnel(funnel_model)
    for k, prefix in enumerate(FUNNEL_PREFIXES[:2]):  # each prefix started once
        score_batch(model, [prefix], FUNNEL_OBJECTIVES, n_samples=300, horizon=8, seed=k)
    nodes = model.compute_copy()._cache.nodes
    assert nodes.size == 2 and (nodes.child[:2] < 0).all()
