"""Seeded inputs for the benchmark workloads.

The chain specs are the benchmark's own copies of the ten-page and funnel
chains used by the test suite, so edits to the tests cannot move the
benchmark.  Every session, prefix and keyword phrase below is a pure
function of the seed it is given.
"""

from __future__ import annotations

import itertools

import numpy as np

from journeynet import MarkovSpec, journeydata
from journeynet import rng as rngmod
from journeynet.simulator import JourneyPrefix, Objective

TEN_PAGES = (
    "home",
    "auto_quote",
    "vehicle_info",
    "driver_info",
    "price_view",
    "confirm",
    "contact",
    "agency_map",
    "faq",
    "claims",
)
FUNNEL_STAGES = ("landing", "form_car", "form_driver", "price", "checkout", "converted")

# The funnel workload's objectives are its last three stages.  Its prefixes
# are every funnel path that reaches none of them, so no cell is decided by
# its prefix alone and the simulated work does not depend on the seed.
FUNNEL_TARGETS = ("price", "checkout", "converted")
FUNNEL_PATHS = (
    ("landing",),
    ("landing", "form_car"),
    ("landing", "form_driver"),
    ("landing", "form_car", "form_driver"),
)
VISITOR_TARGET = "confirm"

# Seeds of the committed checkpoints' training data.  Negative, so they never
# coincide with a benchmark seed.
CHECKPOINT_DATA_SEED = {"tenpage": -2018, "funnel": -2019}


def ten_page_chain() -> MarkovSpec:
    """10-page chain with a dominant successor (p=0.55) per page."""
    n = len(TEN_PAGES)
    trans = np.zeros((n + 1, n + 1))
    for i in range(n):
        trans[i, (i + 1) % n] = 0.55
        trans[i, (i + 3) % n] = 0.20
        trans[i, (i + 7) % n] = 0.10
        trans[i, n] = 0.15
    trans[n, n] = 1.0
    init = np.zeros(n + 1)
    init[0], init[1], init[8] = 0.5, 0.3, 0.2
    return MarkovSpec(
        states=TEN_PAGES + ("exit",),
        transitions=trans,
        initial=init,
        keywords_by_state={
            "home": "cheap car insurance online",
            "auto_quote": "auto insurance quote",
            "faq": "insurance questions help",
        },
        dwell_mean_by_state={p: 4.0 for p in TEN_PAGES},
    )


def funnel_chain() -> MarkovSpec:
    """Strictly forward funnel ending at a conversion page (no cycles)."""
    n = len(FUNNEL_STAGES)
    trans = np.zeros((n + 1, n + 1))
    for i in range(n - 1):
        forward, skip = 0.62, 0.16
        if i + 2 >= n:
            forward, skip = 0.62 + 0.16, 0.0
        trans[i, i + 1] = forward
        if skip:
            trans[i, i + 2] = skip
        trans[i, n] = 1.0 - forward - skip
    trans[n - 1, n] = 1.0
    trans[n, n] = 1.0
    init = np.zeros(n + 1)
    init[0] = 1.0
    return MarkovSpec(
        states=FUNNEL_STAGES + ("exit",),
        transitions=trans,
        initial=init,
        keywords_by_state={"landing": "car insurance quotes online"},
        dwell_mean_by_state={s: 4.0 for s in FUNNEL_STAGES},
    )


_ADJECTIVES = (
    "cheap", "best", "affordable", "fast", "low cost", "top rated", "simple", "trusted", "instant", "flexible",
)
_PRODUCTS = ("car insurance", "auto cover", "vehicle insurance", "motor policy", "driver cover", "car policy")
_INTENTS = (
    "quote", "online", "compare", "near me", "for students", "prices", "deals", "renewal", "reviews", "today",
)


def keyword_pool(seed: int, n: int) -> list[str]:
    """`n` distinct search phrases in a seeded order (at most 600)."""
    phrases = [f"{a} {p} {i}" for a in _ADJECTIVES for p in _PRODUCTS for i in _INTENTS]
    if n > len(phrases):
        raise ValueError(f"keyword pool holds {len(phrases)} phrases, {n} requested")
    order = rngmod.stream(seed, "bench-keywords").permutation(len(phrases))
    return [phrases[i] for i in order[:n]]


def largest_remainder(weights, n: int) -> np.ndarray:
    """Whole counts summing to n, proportional to `weights`."""
    share = np.asarray(weights, dtype=float) / sum(weights) * n
    counts = np.floor(share).astype(int)
    for k in np.argsort(counts - share, kind="stable")[: n - counts.sum()]:
        counts[k] += 1
    return counts


def length_profile(spec: MarkovSpec, n: int, max_pages: int) -> dict[int, int]:
    """Session counts by page count, summing to n: the chain's exact length law.

    P(k pages) = initial . T^(k-1) . exit over the page states, truncated at
    `max_pages` and renormalised; counts round by largest remainder.
    """
    pages = spec.n_states - 1
    trans = spec.transitions[:pages, :pages]
    exit_p = spec.transitions[:pages, pages]
    v = spec.initial[:pages]
    law = []
    for _ in range(max_pages):
        law.append(float(v @ exit_p))
        v = v @ trans
    counts = largest_remainder(law, n)
    return {k + 1: int(c) for k, c in enumerate(counts) if c}


def stratified_sessions(spec: MarkovSpec, seed: int, sizes: list[int], max_pages: int = 20):
    """Sets of chain sessions whose page-count profiles do not depend on the seed.

    Each set holds, for every length k, the count `length_profile` gives,
    taken in order from one seeded pool.  Seeds then vary what the sessions
    visit but not how much work they make.  Sessions longer than
    `max_pages` (3.9% of the ten-page chain's mass) are never drawn.  The
    pool holds at least four times the need and 5000 sessions, so every
    length's quota is below a quarter of its expected pool count and one
    runs short (a ValueError) with probability below 1e-6.
    """
    profiles = [length_profile(spec, n, max_pages) for n in sizes]
    pool = journeydata.generate_synthetic(spec, max(4 * sum(sizes), 5000), seed)
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(pool):
        by_len.setdefault(len(s.events), []).append(i)
    sets = []
    taken = {k: 0 for k in by_len}
    for profile in profiles:
        chosen = []
        for k, count in profile.items():
            idx = by_len.get(k, [])[taken.get(k, 0):taken.get(k, 0) + count]
            if len(idx) < count:
                raise ValueError(f"seed {seed}: pool holds too few sessions of {k} pages")
            taken[k] = taken.get(k, 0) + count
            chosen += idx
        sets.append([pool[i] for i in sorted(chosen)])
    return sets


def ten_page_sessions(seed: int, sizes: list[int]):
    return stratified_sessions(ten_page_chain(), seed, sizes)


def funnel_sessions(seed: int, sizes: list[int]):
    return stratified_sessions(funnel_chain(), seed, sizes)


def funnel_prefixes(seed: int) -> list[JourneyPrefix]:
    """FUNNEL_PATHS in a seeded order, each with its own seeded keyword phrase."""
    order = rngmod.stream(seed, "bench-funnel-order").permutation(len(FUNNEL_PATHS))
    keywords = keyword_pool(seed, len(FUNNEL_PATHS))
    return [JourneyPrefix(kw, FUNNEL_PATHS[i]) for kw, i in zip(keywords, order)]


def funnel_objectives() -> list[Objective]:
    return [Objective(page, {page}) for page in FUNNEL_TARGETS]


def prefix_law(spec: MarkovSpec, target: str, max_cut: int = 3) -> dict[tuple, float]:
    """Exact law of a visitor prefix's class (cut, last page, target visited).

    A visitor is a chain session cut after c pages, c uniform on
    1..min(pages, max_cut).  Paths of up to `max_cut` pages are enumerated:
    a path's probability times E[1 / min(pages, max_cut) | path].
    """
    pages = spec.n_states - 1
    trans = spec.transitions[:pages, :pages]
    exit_p = spec.transitions[:pages, pages]
    # tail[p]: E[1 / min(pages, max_cut)] given the c-th page is p.
    tail = np.full(pages, 1.0 / max_cut)
    law: dict[tuple, float] = {}
    for c in range(max_cut, 0, -1):
        if c < max_cut:
            tail = exit_p / c + trans @ tail
        for path in itertools.product(range(pages), repeat=c):
            p = spec.initial[path[0]]
            for a, b in zip(path, path[1:]):
                p *= trans[a, b]
            if p == 0.0:
                continue
            names = [spec.states[i] for i in path]
            key = (c, names[-1], target in names)
            law[key] = law.get(key, 0.0) + p * tail[path[-1]]
    return law


def visitor_prefixes(seed: int, n: int, target: str, max_cut: int = 3) -> list[JourneyPrefix]:
    """`n` ten-page visitor prefixes whose class profile does not depend on the seed.

    Each visitor is a seeded session cut after a seeded 1..max_cut pages,
    with its own keyword phrase.  For every class of `prefix_law` the set
    holds the count its exact law gives (largest remainder), taken in
    order from one seeded pool of 30 n sessions (at least 3000), where
    every class is expected at least 15 times per visitor it supplies.
    Seeds then vary which sessions and rollouts a visitor gets, but not the
    mix of prefix lengths, rollout start pages and visitors already
    converted.
    """
    spec = ten_page_chain()
    law = sorted(prefix_law(spec, target, max_cut).items())
    counts = largest_remainder([p for _, p in law], n)
    quota = {key: int(c) for (key, _), c in zip(law, counts)}

    pool = journeydata.generate_synthetic(spec, max(30 * n, 3000), seed)
    gen = rngmod.stream(seed, "bench-cuts")
    chosen = []
    for s in pool:
        pages = tuple(ev.page_name for ev in s.events)
        cut = int(gen.integers(1, min(len(pages), max_cut) + 1))
        key = (cut, pages[cut - 1], target in pages[:cut])
        if quota.get(key, 0) > 0:
            quota[key] -= 1
            chosen.append(pages[:cut])
            if len(chosen) == n:
                break
    if len(chosen) < n:
        raise ValueError(f"seed {seed}: visitor pool holds too few prefixes of some class")
    return [JourneyPrefix(kw, pages) for kw, pages in zip(keyword_pool(seed, n), chosen)]
