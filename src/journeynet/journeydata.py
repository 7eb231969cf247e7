"""Visit-log schema, vocabulary building, dwell expansion, synthetic data.

A session log is line-delimited JSON, one record per line:

    {"session_id": "...", "keywords": "...",
     "events": [{"page": "...", "dwell_seconds": 12.0}, ...]}

The synthetic generator walks a user-supplied Markov chain with an absorbing
terminal state, so tests can compare learned behaviour against exact chain
quantities.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, MarkovSpecError, ParseError, SchemaError

# reserved vocabulary entries; NULL_PAGE marks "visitor left the site"
NULL_PAGE = "<null>"
UNKNOWN_PAGE = "<unknown>"


@dataclass(frozen=True)
class PageEvent:
    page_name: str
    dwell_seconds: float

    def __post_init__(self):
        if not self.page_name:
            raise ValueError("page_name must be non-empty")
        if not (self.dwell_seconds >= 0):
            raise ValueError(f"dwell_seconds must be >= 0, got {self.dwell_seconds}")


@dataclass(frozen=True)
class Session:
    session_id: str
    keywords: str
    events: tuple[PageEvent, ...]


def parse_log(lines) -> list[Session]:
    """Parse line-delimited records into sessions, in file order.

    `lines` is any iterable of text lines (an open file works).  Blank lines
    are skipped.  Raises ParseError / SchemaError carrying the line number.
    """
    sessions = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            raw = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"not a valid record: {exc.msg}") from exc
        sessions.append(_session_from_record(raw, line_no))
    return sessions


def _session_from_record(raw, line_no: int) -> Session:
    if not isinstance(raw, dict):
        raise SchemaError(line_no, "record must be an object")
    for key in ("session_id", "keywords", "events"):
        if key not in raw:
            raise SchemaError(line_no, f"missing required field {key!r}")
    if not isinstance(raw["session_id"], str):
        raise SchemaError(line_no, "session_id must be text")
    if not isinstance(raw["keywords"], str):
        raise SchemaError(line_no, "keywords must be text")
    if not isinstance(raw["events"], list):
        raise SchemaError(line_no, "events must be an array")
    events = []
    for i, ev in enumerate(raw["events"]):
        if not isinstance(ev, dict) or "page" not in ev or "dwell_seconds" not in ev:
            raise SchemaError(line_no, f"event {i} must have page and dwell_seconds")
        page, dwell = ev["page"], ev["dwell_seconds"]
        if not isinstance(page, str) or not page:
            raise SchemaError(line_no, f"event {i}: page must be non-empty text")
        if isinstance(dwell, bool) or not isinstance(dwell, (int, float)):
            raise SchemaError(line_no, f"event {i}: dwell_seconds must be a number")
        if not (float(dwell) >= 0) or not math.isfinite(float(dwell)):
            raise SchemaError(line_no, f"event {i}: dwell_seconds must be >= 0 and finite")
        events.append(PageEvent(page, float(dwell)))
    return Session(raw["session_id"], raw["keywords"], tuple(events))


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"{path} is not UTF-8 text ({exc.reason})") from exc
    return parse_log(text.split("\n"))


class PageVocabulary:
    """Dense page-name <-> class-index map with reserved NULL and UNKNOWN slots.

    Retained pages occupy indices 0..K-1 ordered by descending corpus
    frequency (ties broken lexicographically); NULL_PAGE and UNKNOWN_PAGE
    always take the two highest indices, so no real page ranks above them.
    """

    def __init__(self, retained_pages: list[str], min_freq: int):
        names = list(retained_pages) + [NULL_PAGE, UNKNOWN_PAGE]
        if len(set(names)) != len(names):
            raise ValueError("duplicate or reserved page names in vocabulary")
        self.page_names = tuple(names)
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

    def __contains__(self, page_name: str) -> bool:
        return page_name in self._index

    def decode(self, index: int) -> str:
        return self.page_names[index]

    def to_dict(self) -> dict:
        return {"pages": list(self.page_names[:-2]), "min_freq": self.min_freq}

    @classmethod
    def from_dict(cls, d: dict) -> "PageVocabulary":
        return cls(list(d["pages"]), int(d["min_freq"]))


def build_vocab(sessions, min_freq: int = 5) -> PageVocabulary:
    """Vocabulary over pages seen at least `min_freq` times across `sessions`."""
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    sessions = list(sessions)
    if not sessions:
        raise ValueError("cannot build a vocabulary from an empty session list")
    counts = Counter()
    for s in sessions:
        for ev in s.events:
            counts[ev.page_name] += 1
    retained = sorted(
        (name for name, n in counts.items() if n >= min_freq),
        key=lambda name: (-counts[name], name),
    )
    return PageVocabulary(retained, min_freq)


def replicate_dwell(session: Session, unit_seconds: float = 30.0, cap: int = 5) -> list[str]:
    """Expand a session into page names weighted by dwell time.

    Each event contributes min(cap, max(1, ceil(dwell / unit_seconds)))
    consecutive copies of its page, and NULL_PAGE is appended once at the end.
    """
    if unit_seconds <= 0:
        raise ConfigError(f"unit_seconds must be > 0, got {unit_seconds}")
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    expanded = []
    for ev in session.events:
        copies = min(cap, max(1, math.ceil(ev.dwell_seconds / unit_seconds)))
        expanded.extend([ev.page_name] * copies)
    expanded.append(NULL_PAGE)
    return expanded


def expand_session(
    session: Session,
    vocab: PageVocabulary,
    unit_seconds: float = 30.0,
    cap: int = 5,
) -> tuple[list[str], list[int]]:
    """Model-ready (inputs, targets) for one session.

    Inputs are the keyword phrase followed by the expanded page names; the
    target at each step is the class index of the next expanded page, ending
    with NULL_PAGE.
    """
    pages = replicate_dwell(session, unit_seconds, cap)
    inputs = [session.keywords] + pages[:-1]
    targets = [vocab.encode(p) for p in pages]
    return inputs, targets


@dataclass
class MarkovSpec:
    """Ground-truth chain for synthetic session generation.

    `states` lists page states followed by one terminal state (last entry).
    `transitions` is row-stochastic over the full state list and the terminal
    row must be absorbing.  `initial` puts no mass on the terminal state.
    Dwell times are exponential with per-page means; keywords are chosen by
    the first visited state.
    """

    states: tuple[str, ...]
    transitions: np.ndarray
    initial: np.ndarray
    keywords_by_state: dict[str, str] = field(default_factory=dict)
    dwell_mean_by_state: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.states = tuple(self.states)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.validate()

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def page_states(self) -> tuple[str, ...]:
        return self.states[:-1]

    @property
    def terminal(self) -> str:
        return self.states[-1]

    def validate(self) -> None:
        n = self.n_states
        if n < 2:
            raise MarkovSpecError("need at least one page state and one terminal state")
        if len(set(self.states)) != n:
            raise MarkovSpecError("duplicate state names")
        if self.transitions.shape != (n, n):
            raise MarkovSpecError(
                f"transition matrix shape {self.transitions.shape} != ({n}, {n})"
            )
        if np.any(self.transitions < 0):
            raise MarkovSpecError("negative transition probability")
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
        if np.any(self.initial < 0) or abs(self.initial.sum() - 1.0) > 1e-9:
            raise MarkovSpecError("initial distribution must be a probability vector")
        if self.initial[-1] != 0:
            raise MarkovSpecError("initial distribution must not start at the terminal state")

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
                states=tuple(d["states"]),
                transitions=np.asarray(d["transitions"], dtype=np.float64),
                initial=np.asarray(d["initial"], dtype=np.float64),
                keywords_by_state=dict(d.get("keywords_by_state", {})),
                dwell_mean_by_state=dict(d.get("dwell_mean_by_state", {})),
            )
        except KeyError as exc:
            raise MarkovSpecError(f"missing field {exc.args[0]!r}") from exc
        except MarkovSpecError:
            raise
        except (TypeError, ValueError) as exc:
            # a field of the wrong type, or a ragged or non-numeric matrix
            raise MarkovSpecError(f"malformed chain spec ({exc})") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MarkovSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise MarkovSpecError(f"{path}: not a JSON chain spec ({exc})") from exc
        return cls.from_dict(raw)


def _sample_index(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def generate_synthetic(spec: MarkovSpec, n_sessions: int, seed: int) -> list[Session]:
    """Sample sessions by walking the chain until absorption.

    Each session has its own counter-based stream keyed by (seed, index), so
    output is identical no matter how generation is sharded.
    """
    if n_sessions < 1:
        raise ConfigError(f"n_sessions must be >= 1, got {n_sessions}")
    spec.validate()
    terminal = spec.n_states - 1
    init_cdf = np.cumsum(spec.initial)
    row_cdfs = np.cumsum(spec.transitions, axis=1)
    sessions = []
    for i in range(n_sessions):
        gen = rngmod.stream(seed, "session", i)
        state = _sample_index(init_cdf, gen.random())
        first_state = spec.states[state]
        events = []
        while state != terminal:
            name = spec.states[state]
            mean = spec.dwell_mean_by_state.get(name, 10.0)
            dwell = float(gen.exponential(mean)) if mean > 0 else 0.0
            events.append(PageEvent(name, dwell))
            state = _sample_index(row_cdfs[state], gen.random())
        sessions.append(
            Session(
                session_id=f"s{i:06d}",
                keywords=spec.keywords_by_state.get(first_state, ""),
                events=tuple(events),
            )
        )
    return sessions


def split(sessions, train_fraction: float, seed: int) -> tuple[list[Session], list[Session]]:
    """Deterministic shuffled partition into (train, eval)."""
    sessions = list(sessions)
    if len(sessions) < 2:
        raise ConfigError(f"need at least 2 sessions to split, got {len(sessions)}")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = rngmod.stream(seed, "split").permutation(len(sessions))
    n_train = int(math.floor(len(sessions) * train_fraction + 1e-9))
    n_train = min(max(n_train, 1), len(sessions) - 1)
    shuffled = [sessions[i] for i in order]
    return shuffled[:n_train], shuffled[n_train:]
