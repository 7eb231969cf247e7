"""Print the tracemalloc peak, in MB (2**20 bytes), of a one-epoch `train()`.

The run trains at the paper's architecture (`TrainConfig` defaults, one
epoch) on 1 000 sessions of a fixed seeded ten-page chain, none longer than
20 pages, and evaluates on 250 more, after a small warm-up `train` that the
reading leaves out.  Every input derives from fixed seeds, and tracemalloc
counts the bytes Python and numpy ask for, not the pages the allocator
keeps, so the reading repeats to 0.01 MB where the process's peak RSS
spreads by about half a MB between runs; compare two checkouts' readings to
see whether a change moved the training peak.  `--tiny` runs a small
architecture instead (for tests).

Run from the repository root:

    python tools/train_peak.py [--tiny]
"""

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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


def train_peak_mb(tiny: bool) -> float:
    """The tracemalloc peak of one epoch of `train`, warm-up excluded."""
    pool = generate_synthetic(_chain(), POOL_SESSIONS, SEED)
    sessions = [s for s in pool if len(s.events) <= MAX_PAGES][:TRAIN_SESSIONS + HELD_OUT_SESSIONS]
    train_set, held_out = sessions[:TRAIN_SESSIONS], sessions[TRAIN_SESSIONS:]
    vocab = build_vocab(train_set, min_freq=5)
    config = TrainConfig(epochs=1, seed=SEED, **(TINY if tiny else {}))
    train(train_set[:8], replace(config, batch_size=4), vocab)  # imports and BLAS set-up
    tracemalloc.start()
    try:
        train(train_set, config, vocab, eval_sessions=held_out)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="a small architecture instead of the paper's")
    args = parser.parse_args(argv)
    print(f"{train_peak_mb(args.tiny):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
