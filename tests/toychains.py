"""Shared toy predictors and synthetic chains for tests."""

import numpy as np

from journeynet.journeydata import MarkovSpec, PageVocabulary


class MarkovToyPredictor:
    """Predictor whose next-page distribution depends only on the last page."""

    def __init__(self, vocab, start_dist, rows):
        self.vocab = vocab
        self.start_dist = np.asarray(start_dist, dtype=float)
        self.rows = {k: np.asarray(v, dtype=float) for k, v in rows.items()}
        self.table = np.zeros((len(vocab), len(self.start_dist)))
        for k, v in self.rows.items():
            self.table[k] = v

    def start(self, prefixes):
        idx = np.array([self.vocab.encode(p.pages[-1]) if p.pages else -1 for p in prefixes])
        return idx, np.array([self.rows[i] if i >= 0 else self.start_dist for i in idx.tolist()])

    def step(self, state, rows, pages):
        pages = np.asarray(pages)
        missing = set(pages.tolist()) - self.rows.keys()
        if missing:
            raise KeyError(f"no transition row for pages {sorted(missing)}")
        return pages, self.table[pages]


def random_toy_predictor(seed, n_pages=3):
    """Random row-stochastic toy predictor over n_pages + NULL classes."""
    gen = np.random.default_rng(seed)
    vocab = PageVocabulary([f"pg{i}" for i in range(n_pages)], min_freq=1)
    n = len(vocab)

    def rand_row():
        row = np.zeros(n)
        weights = gen.dirichlet(np.ones(n_pages + 1))
        row[:n_pages] = weights[:n_pages]
        row[vocab.null_index] = weights[n_pages]
        return row

    rows = {i: rand_row() for i in range(n_pages)}
    return MarkovToyPredictor(vocab, rand_row(), rows)


def ten_page_chain() -> MarkovSpec:
    """10-page chain with a clear dominant successor per page.

    Every page row has max probability 0.55, so the best possible next-page
    accuracy on visited states is exactly 0.55.
    """
    pages = [
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
    ]
    n = len(pages)
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
        states=tuple(pages) + ("exit",),
        transitions=trans,
        initial=init,
        keywords_by_state={
            "home": "cheap car insurance online",
            "auto_quote": "auto insurance quote",
            "faq": "insurance questions help",
        },
        dwell_mean_by_state={p: 4.0 for p in pages},
    )


def funnel_chain() -> MarkovSpec:
    """Strictly forward funnel ending at a conversion page.

    Paths either advance (one or two stages), or exit; no cycles, so exact
    path enumeration stays small even at long horizons.
    """
    stages = ["landing", "form_car", "form_driver", "price", "checkout", "converted"]
    n = len(stages)
    trans = np.zeros((n + 1, n + 1))
    for i in range(n - 1):
        forward, skip = 0.62, 0.16
        if i + 2 >= n:
            forward, skip = 0.62 + 0.16, 0.0
        trans[i, i + 1] = forward
        if skip:
            trans[i, i + 2] = skip
        trans[i, n] = 1.0 - forward - skip
    trans[n - 1, n] = 1.0  # conversion page always exits next
    trans[n, n] = 1.0
    init = np.zeros(n + 1)
    init[0] = 1.0
    return MarkovSpec(
        states=tuple(stages) + ("exit",),
        transitions=trans,
        initial=init,
        keywords_by_state={"landing": "car insurance quotes online"},
        dwell_mean_by_state={s: 4.0 for s in stages},
    )


def bayes_accuracy(spec: MarkovSpec, sessions) -> float:
    """Visit-weighted mean over visited states of the max transition probability."""
    state_of = {name: i for i, name in enumerate(spec.states)}
    num = den = 0.0
    for s in sessions:
        for ev in s.events:
            num += float(spec.transitions[state_of[ev.page_name]].max())
            den += 1.0
    return num / den
