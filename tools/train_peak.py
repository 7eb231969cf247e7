"""Print the tracemalloc peak of a one-epoch `train()` and the minor page faults of later epochs.

The runs train at the paper's architecture (`TrainConfig` defaults) on
1 000 sessions of a fixed seeded ten-page chain, none longer than 20 pages,
and evaluate on 250 more, after a small warm-up `train` that neither
reading includes.  Two lines are printed:

    peak_mb <MB of 2**20 bytes>
    later_epoch_minor_faults <count>

`peak_mb` is the tracemalloc peak of a one-epoch run.  Every input derives
from fixed seeds, and tracemalloc counts the bytes Python and numpy ask
for, not the pages the allocator keeps, so it repeats to 0.01 MB where the
process's peak RSS spreads by about half a MB between runs.
`later_epoch_minor_faults` is the process's minor page faults
(`getrusage`) from the end of the first epoch to the end of the third of an
untraced three-epoch run, each epoch ending with its held-out evaluation:
the pages the allocator hands back and faults in again once training is
warm.  It depends on the C library's allocator and the machine, so compare
two checkouts' readings on one machine to see whether a change moved the
training peak or the steady-state faults.  `--tiny` runs a small
architecture instead (for tests).

Run from the repository root:

    python tools/train_peak.py [--tiny]
"""

import argparse
import resource
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from journeynet import training  # noqa: E402
from journeynet.journeydata import MarkovSpec, build_vocab, generate_synthetic  # noqa: E402
from journeynet.training import TrainConfig, train  # noqa: E402

SEED = 7
TRAIN_SESSIONS = 1000
HELD_OUT_SESSIONS = 250
# sessions drawn, of which those of at most MAX_PAGES pages are kept (the seed's
# pool keeps more than the 1 250 needed), so no rare long session sets a batch's width
POOL_SESSIONS = 1400
MAX_PAGES = 20
TINY = dict(max_len=16, conv_stages=((3, 4, 4),), lstm_hidden=(12,), fc_width=12)
PAGES = ("home", "quote", "vehicle", "personal", "price", "confirm", "contact", "branches", "help", "claims")


def _chain() -> MarkovSpec:
    """Ten pages, each with one likely successor, two less likely ones and a 0.15 exit."""
    n = len(PAGES)
    transitions = np.zeros((n + 1, n + 1))
    for i in range(n):
        for step, p in ((1, 0.55), (3, 0.20), (7, 0.10)):
            transitions[i, (i + step) % n] = p
        transitions[i, n] = 0.15
    transitions[n, n] = 1.0
    initial = np.zeros(n + 1)
    initial[[0, 1, 8]] = 0.5, 0.3, 0.2
    return MarkovSpec(
        states=(*PAGES, "exit"),
        transitions=transitions,
        initial=initial,
        keywords_by_state={"home": "cheap car insurance", "quote": "car insurance quote", "help": "claim help"},
        dwell_mean_by_state={page: 4.0 for page in PAGES},
    )


def _inputs(tiny: bool):
    """(training sessions, held-out sessions, vocabulary, one-epoch config) of both readings."""
    pool = generate_synthetic(_chain(), POOL_SESSIONS, SEED)
    sessions = [s for s in pool if len(s.events) <= MAX_PAGES][:TRAIN_SESSIONS + HELD_OUT_SESSIONS]
    train_set, held_out = sessions[:TRAIN_SESSIONS], sessions[TRAIN_SESSIONS:]
    vocab = build_vocab(train_set, min_freq=5)
    return train_set, held_out, vocab, TrainConfig(epochs=1, seed=SEED, **(TINY if tiny else {}))


def train_peak_mb(train_set, held_out, vocab, config) -> float:
    """The tracemalloc peak of one epoch of `train`."""
    tracemalloc.start()
    try:
        train(train_set, config, vocab, eval_sessions=held_out)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def later_epoch_faults(train_set, held_out, vocab, config) -> int:
    """Minor page faults of epochs 2 and 3 of an untraced three-epoch `train`.

    `train` ends each epoch with a call of the module's `evaluate`, which is
    wrapped here to read the fault count when it returns.
    """
    marks, evaluate = [], training.evaluate

    def marking(*args):
        result = evaluate(*args)
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return result

    training.evaluate = marking
    try:
        train(train_set, replace(config, epochs=3), vocab, eval_sessions=held_out)
    finally:
        training.evaluate = evaluate
    return marks[2] - marks[0]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="a small architecture instead of the paper's")
    args = parser.parse_args(argv)
    train_set, held_out, vocab, config = _inputs(args.tiny)
    train(train_set[:8], replace(config, batch_size=4), vocab)  # imports and BLAS set-up
    print(f"peak_mb {train_peak_mb(train_set, held_out, vocab, config):.2f}")
    print(f"later_epoch_minor_faults {later_epoch_faults(train_set, held_out, vocab, config)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
