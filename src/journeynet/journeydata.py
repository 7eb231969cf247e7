"""Visit-log schema, vocabulary building, dwell expansion, synthetic data.

A session log is line-delimited JSON, one record per line:

    {"session_id": "...", "keywords": "...",
     "events": [{"page": "...", "dwell_seconds": 12.0}, ...]}

The synthetic generator walks a user-supplied Markov chain with an absorbing
terminal state, so tests can compare learned behaviour against exact chain
quantities.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, MarkovSpecError, ParseError, SchemaError
from .errors import check_int, check_iterable, check_names, check_number, check_text, parse_json, read_text

# reserved vocabulary entries; NULL_PAGE marks "visitor left the site"
NULL_PAGE = "<null>"
UNKNOWN_PAGE = "<unknown>"
# the names no logged page, prefix page or page state may take
RESERVED_PAGES = (NULL_PAGE, UNKNOWN_PAGE)
# longest session generate_synthetic walks before it gives up on a chain
MAX_SESSION_EVENTS = 10_000
# the step unit: one page copy per UNIT_SECONDS of dwell, at most DWELL_CAP; every
# loss, horizon and rate counts these steps
UNIT_SECONDS = 30.0
DWELL_CAP = 5


@dataclass(frozen=True, slots=True)
class PageEvent:
    """One page view: the page's name, non-empty text (`errors.check_text`) other
    than RESERVED_PAGES, and its dwell, a number (`errors.check_number`) >= 0 and
    finite, stored as a float.  Anything else is a ValueError."""

    page_name: str
    dwell_seconds: float

    def __post_init__(self):
        page, dwell = self.page_name, self.dwell_seconds
        check_text(page, "page", ValueError)
        if not page or page in RESERVED_PAGES:
            raise ValueError(f"page must be non-empty text and no reserved name, got {page!r}")
        if type(dwell) is not float:  # an int, or a float subclass: stored as a plain float
            check_number(dwell, "dwell_seconds", ValueError)
            try:
                dwell = float(dwell)
            except OverflowError:  # an integer beyond the float range
                dwell = math.inf
            object.__setattr__(self, "dwell_seconds", dwell)
        if not (dwell >= 0) or not math.isfinite(dwell):
            raise ValueError(f"dwell_seconds must be >= 0 and finite, got {dwell!r}")


@dataclass(frozen=True, slots=True)
class Session:
    """A visit: its id and searched keywords, both text, and its page events, an
    ordered iterable of PageEvent stored as a tuple.  Anything else is a ValueError."""

    session_id: str
    keywords: str
    events: tuple[PageEvent, ...]

    def __post_init__(self):
        check_text(self.session_id, "session_id", ValueError)
        check_text(self.keywords, "keywords", ValueError)
        events = check_iterable(self.events, "events", ValueError, ordered=True)
        for i, event in enumerate(events):
            if not isinstance(event, PageEvent):
                raise ValueError(f"events[{i}] must be a PageEvent, got {event!r}")
        object.__setattr__(self, "events", events)


def parse_log(lines) -> list[Session]:
    """Parse line-delimited records into sessions, in file order.

    `lines` is any iterable of text lines (an open file works).  Blank lines
    are skipped.  Raises ParseError / SchemaError carrying the line number:
    a record of the wrong shape, or one whose fields `Session` or
    `PageEvent` reject (a page named NULL_PAGE or UNKNOWN_PAGE among them).
    """
    sessions = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        raw = parse_json(stripped, partial(ParseError, line_no), "not a valid record")
        sessions.append(_session_from_record(raw, line_no))
    return sessions


def _session_from_record(raw, line_no: int) -> Session:
    if not isinstance(raw, dict):
        raise SchemaError(line_no, "record must be an object")
    for key in ("session_id", "keywords", "events"):
        if key not in raw:
            raise SchemaError(line_no, f"missing required field {key!r}")
    if not isinstance(raw["events"], list):
        raise SchemaError(line_no, "events must be an array")
    events = []
    for i, ev in enumerate(raw["events"]):
        if not isinstance(ev, dict) or "page" not in ev or "dwell_seconds" not in ev:
            raise SchemaError(line_no, f"event {i} must have page and dwell_seconds")
        try:
            events.append(PageEvent(ev["page"], ev["dwell_seconds"]))
        except ValueError as exc:
            raise SchemaError(line_no, f"event {i}: {exc}") from exc
    try:
        return Session(raw["session_id"], raw["keywords"], tuple(events))
    except ValueError as exc:
        raise SchemaError(line_no, str(exc)) from exc


def serialize_session(session: Session) -> str:
    return json.dumps(
        {
            "session_id": session.session_id,
            "keywords": session.keywords,
            "events": [
                {"page": ev.page_name, "dwell_seconds": ev.dwell_seconds}
                for ev in session.events
            ],
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def save_sessions(sessions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            fh.write(serialize_session(s) + "\n")


def load_sessions(path) -> list[Session]:
    return parse_log(read_text(path).split("\n"))


class PageVocabulary:
    """Dense page-name <-> class-index map with reserved NULL and UNKNOWN slots.

    Retained pages occupy indices 0..K-1 ordered by descending corpus
    frequency (ties broken lexicographically); NULL_PAGE and UNKNOWN_PAGE
    always take the two highest indices, so no real page ranks above them.
    The retained pages are ordered names (`errors.check_names`), read once,
    distinct and none of RESERVED_PAGES; anything else is a ValueError.  `min_freq`, the
    count a page needed to be retained, is an int >= 1 (ConfigError).
    """

    def __init__(self, retained_pages: list[str], min_freq: int):
        check_int(min_freq, "min_freq", ConfigError, low=1)
        names = check_names(retained_pages, "vocabulary pages", ValueError, ordered=True) + RESERVED_PAGES
        if len(set(names)) != len(names):
            raise ValueError("duplicate or reserved page names in vocabulary")
        self.page_names = names
        self.min_freq = min_freq
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.page_names)

    @property
    def null_index(self) -> int:
        return len(self.page_names) - 2

    @property
    def unknown_index(self) -> int:
        return len(self.page_names) - 1

    def encode(self, page_name: str) -> int:
        return self._index.get(page_name, self.unknown_index)

    def decode(self, index: int) -> str:
        return self.page_names[index]

    def to_dict(self) -> dict:
        return {"pages": list(self.page_names[:-2]), "min_freq": self.min_freq}

    @classmethod
    def from_dict(cls, d: dict) -> "PageVocabulary":
        return cls(d["pages"], d["min_freq"])


def build_vocab(sessions, min_freq: int = 5) -> PageVocabulary:
    """Vocabulary over pages seen at least `min_freq` times across `sessions`."""
    sessions = list(sessions)
    if not sessions:
        raise ValueError("cannot build a vocabulary from an empty session list")
    counts = Counter(ev.page_name for s in sessions for ev in s.events)
    ranked = sorted(counts, key=lambda name: (-counts[name], name))
    # the vocabulary reads this only once it has checked min_freq
    return PageVocabulary((name for name in ranked if counts[name] >= min_freq), min_freq)


def replicate_dwell(session: Session, unit_seconds: float = UNIT_SECONDS, cap: int = DWELL_CAP) -> list[str]:
    """Expand a session into page names weighted by dwell time.

    Each event contributes min(cap, max(1, ceil(dwell / unit_seconds)))
    consecutive copies of its page, and NULL_PAGE is appended once at the end.
    `unit_seconds` is a number > 0 and `cap` an int >= 1 (ConfigError
    otherwise).  A session whose copies add up to more than
    MAX_SESSION_EVENTS * DWELL_CAP, the most a generated session expands to
    at the default cap, raises ConfigError before anything is allocated.
    """
    check_number(unit_seconds, "unit_seconds", ConfigError)
    if not unit_seconds > 0:  # also rejects NaN
        raise ConfigError(f"unit_seconds must be > 0, got {unit_seconds}")
    check_int(cap, "cap", ConfigError, low=1)
    copies = [min(cap, max(1, math.ceil(ev.dwell_seconds / unit_seconds))) for ev in session.events]
    total, bound = sum(copies), MAX_SESSION_EVENTS * DWELL_CAP
    if total > bound:
        raise ConfigError(
            f"session {session.session_id!r} expands to {total} pages, more than {bound}"
        )
    expanded = []
    for ev, n in zip(session.events, copies):
        expanded.extend([ev.page_name] * n)
    expanded.append(NULL_PAGE)
    return expanded


def expand_session(session: Session, vocab: PageVocabulary) -> tuple[list[str], list[int]]:
    """Model-ready (inputs, targets) for one session.

    Inputs are the keyword phrase followed by the expanded page names; the
    target at each step is the class index of the next expanded page, ending
    with NULL_PAGE.
    """
    pages = replicate_dwell(session)
    inputs = [session.keywords] + pages[:-1]
    targets = [vocab.encode(p) for p in pages]
    return inputs, targets


@dataclass
class MarkovSpec:
    """Ground-truth chain for synthetic session generation.

    `states` lists page states followed by one terminal state (last entry),
    as ordered names (`errors.check_names`); a page state (the terminal is
    never emitted) may not be one of RESERVED_PAGES.  `transitions` is
    row-stochastic over the full state list, the terminal row must be
    absorbing and every page state must reach it.  `initial` puts no mass on
    the terminal state.  Dwell times are exponential with per-page means
    (numbers, finite and >= 0); keywords (text) are chosen by the first
    visited state.  Each key of `keywords_by_state` and `dwell_mean_by_state`
    names a page state; a page state without one takes no keywords and a
    10 s mean.
    """

    states: tuple[str, ...]
    transitions: np.ndarray
    initial: np.ndarray
    keywords_by_state: dict[str, str] = field(default_factory=dict)
    dwell_mean_by_state: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.states = check_names(self.states, "states", MarkovSpecError, ordered=True)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.validate()

    @property
    def n_states(self) -> int:
        return len(self.states)

    def validate(self) -> None:
        n, pages = self.n_states, self.states[:-1]
        if n < 2:
            raise MarkovSpecError("need at least one page state and one terminal state")
        if len(set(self.states)) != n:
            raise MarkovSpecError("duplicate state names")
        reserved = [s for s in pages if s in RESERVED_PAGES]
        if reserved:
            raise MarkovSpecError(f"page state {reserved[0]!r} is a reserved name")
        if self.transitions.shape != (n, n):
            raise MarkovSpecError(
                f"transition matrix shape {self.transitions.shape} != ({n}, {n})"
            )
        if not np.all(self.transitions >= 0):  # also rejects NaN
            raise MarkovSpecError("negative or NaN transition probability")
        sums = self.transitions.sum(axis=1)
        bad = np.abs(sums - 1.0) > 1e-9
        if bad.any():
            row = int(np.argmax(bad))
            raise MarkovSpecError(
                f"transition row {row} ({self.states[row]!r}) sums to {sums[row]!r}, not 1"
            )
        if abs(self.transitions[-1, -1] - 1.0) > 1e-9:
            raise MarkovSpecError("terminal state must be absorbing")
        if self.initial.shape != (n,):
            raise MarkovSpecError(f"initial distribution must have length {n}")
        if not (np.all(self.initial >= 0) and abs(self.initial.sum() - 1.0) <= 1e-9):
            raise MarkovSpecError("initial distribution must be a probability vector")
        if self.initial[-1] != 0:
            raise MarkovSpecError("initial distribution must not start at the terminal state")
        # grow the set of states that can end a session until it stops growing
        edges, reaches, last = self.transitions > 0, self.transitions[:, -1] > 0, None
        while not np.array_equal(reaches, last):
            last, reaches = reaches, reaches | (edges @ reaches)
        if not reaches.all():
            stuck = self.states[int(np.argmin(reaches))]
            raise MarkovSpecError(f"state {stuck!r} never reaches the terminal state")
        for field_name in ("keywords_by_state", "dwell_mean_by_state"):
            for name in getattr(self, field_name):
                if name not in pages:
                    raise MarkovSpecError(f"{field_name} key {name!r} names no page state")
        for name, keywords in self.keywords_by_state.items():
            check_text(keywords, f"keywords of {name!r}", MarkovSpecError)
        for name, mean in self.dwell_mean_by_state.items():
            check_number(mean, f"dwell mean of {name!r}", MarkovSpecError)
            if not 0 <= mean <= sys.float_info.max:
                raise MarkovSpecError(
                    f"dwell mean of {name!r} must be a finite number >= 0, got {mean!r}"
                )

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "transitions": [list(map(float, row)) for row in self.transitions],
            "initial": [float(v) for v in self.initial],
            "keywords_by_state": dict(self.keywords_by_state),
            "dwell_mean_by_state": {k: float(v) for k, v in self.dwell_mean_by_state.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MarkovSpec":
        if not isinstance(d, dict):
            raise MarkovSpecError("a chain spec must be a JSON object")
        try:
            return cls(
                states=d["states"],
                transitions=d["transitions"],
                initial=d["initial"],
                keywords_by_state=dict(d.get("keywords_by_state", {})),
                dwell_mean_by_state=dict(d.get("dwell_mean_by_state", {})),
            )
        except KeyError as exc:
            raise MarkovSpecError(f"missing field {exc.args[0]!r}") from exc
        except MarkovSpecError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # a field of the wrong type, a ragged or non-numeric matrix, or
            # an integer beyond the float range
            raise MarkovSpecError(f"malformed chain spec ({exc})") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MarkovSpec":
        return cls.from_dict(parse_json(read_text(path), MarkovSpecError, f"{path}: not a JSON chain spec"))


def generate_synthetic(spec: MarkovSpec, n_sessions: int, seed: int) -> list[Session]:
    """Sample sessions by walking the chain until absorption.

    Session i draws from the counter-based stream keyed (seed, "session", i),
    so output is identical no matter how generation is sharded.  One Philox
    bit generator serves the call: it is restarted at each session's key
    (`rng.restart`), which draws what `rng.stream(seed, "session", i)` would.
    A draw of the next state is the first index whose cumulative probability
    exceeds a uniform, clamped to the last.  A session that walks past
    MAX_SESSION_EVENTS pages raises MarkovSpecError: its chain almost never
    exits.
    """
    check_int(n_sessions, "n_sessions", ConfigError, low=1)
    check_int(seed, "seed", ConfigError)
    spec.validate()
    terminal = spec.n_states - 1
    # plain lists, so that a draw is one bisect and no numpy call
    init_cdf = np.cumsum(spec.initial).tolist()
    row_cdfs = np.cumsum(spec.transitions, axis=1).tolist()
    means = [spec.dwell_mean_by_state.get(name, 10.0) for name in spec.states]
    keywords = [spec.keywords_by_state.get(name, "") for name in spec.states]
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    random, exponential, bisect_right = gen.random, gen.exponential, bisect.bisect_right
    sessions = []
    for i, key in enumerate(rngmod.indexed_keys((seed, "session"), n_sessions)):
        rngmod.restart(bitgen, key)
        state = first = min(bisect_right(init_cdf, random()), terminal)
        events = []
        while state != terminal:
            if len(events) == MAX_SESSION_EVENTS:
                raise MarkovSpecError(
                    f"session {i} from state {spec.states[first]!r} did not exit within "
                    f"{MAX_SESSION_EVENTS} events; the chain almost never reaches the exit"
                )
            name, mean = spec.states[state], means[state]
            dwell = float(exponential(mean)) if mean > 0 else 0.0
            if not math.isfinite(dwell):
                raise MarkovSpecError(f"dwell mean {mean!r} of {name!r} is too large to sample")
            events.append(PageEvent(name, dwell))
            state = min(bisect_right(row_cdfs[state], random()), terminal)
        sessions.append(Session(f"s{i:06d}", keywords[first], tuple(events)))
    return sessions


def split(sessions, train_fraction: float, seed: int) -> tuple[list[Session], list[Session]]:
    """Deterministic shuffled partition into (train, eval); ConfigError unless
    `sessions` are an ordered iterable (`errors.check_iterable`: a set's order
    is the hash seed's), `train_fraction` is a number in (0, 1) and `seed` an int."""
    sessions = check_iterable(sessions, "sessions", ConfigError, ordered=True)
    if len(sessions) < 2:
        raise ConfigError(f"need at least 2 sessions to split, got {len(sessions)}")
    check_number(train_fraction, "train_fraction", ConfigError)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    check_int(seed, "seed", ConfigError)
    order = rngmod.stream(seed, "split").permutation(len(sessions))
    n_train = int(math.floor(len(sessions) * train_fraction + 1e-9))
    n_train = min(max(n_train, 1), len(sessions) - 1)
    shuffled = [sessions[i] for i in order]
    return shuffled[:n_train], shuffled[n_train:]
