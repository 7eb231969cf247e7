"""Print the held-out loss that `train()` reaches at several training seeds on two chains.

This is the accuracy reading of a change that moves trained bytes: it
trains the paper's architecture (`TrainConfig` defaults) for 10 epochs at
training seeds 1 to 4 on each of two seeded chains of its own, a ten-page
chain with one likely successor per page and a strictly forward six-stage
funnel, each with 1 000 training and 250 held-out sessions, and prints the
final epoch's held-out `eval_loss` of every run, then each chain's mean and
spread (max - min) over the seeds:

    eval_loss <chain> seed <seed> <nats per step>
    eval_loss_mean <chain> <nats per step> spread <nats per step>

Every input derives from fixed seeds, so a checkout prints the same lines
on every run; compare two checkouts' output to see how a change moved the
held-out loss, against the spread over the seeds.  It reads nothing from
`bench/`.  `--tiny` runs a small architecture for 2 epochs on 200 + 50
sessions instead (for tests).

Run from the repository root (about 45 s at one BLAS thread on a 2-vCPU VM):

    python tools/eval_loss_seeds.py [--tiny]
"""

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from journeynet.journeydata import MarkovSpec, build_vocab, generate_synthetic  # noqa: E402
from journeynet.training import TrainConfig, train  # noqa: E402

DATA_SEED = 50
TRAINING_SEEDS = (1, 2, 3, 4)
EPOCHS = 10
TRAIN_SESSIONS = 1000
HELD_OUT_SESSIONS = 250
TINY = dict(max_len=16, conv_stages=((3, 4, 4),), lstm_hidden=(12,), fc_width=12)
TINY_RUN = dict(epochs=2, train_sessions=200, held_out_sessions=50)
PAGES = ("home", "quote", "vehicle", "personal", "price", "confirm", "contact", "branches", "help", "claims")
STAGES = ("landing", "form_car", "form_driver", "price", "checkout", "converted")


def ten_page_chain() -> MarkovSpec:
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


def funnel_chain() -> MarkovSpec:
    """Six stages, each going on to the next (0.62) or skipping one (0.16), else leaving."""
    n = len(STAGES)
    transitions = np.zeros((n + 1, n + 1))
    for i in range(n - 1):
        forward, skip = (0.62, 0.16) if i + 2 < n else (0.78, 0.0)
        transitions[i, i + 1] = forward
        if skip:
            transitions[i, i + 2] = skip
        transitions[i, n] = 1.0 - forward - skip
    transitions[n - 1, n] = 1.0
    transitions[n, n] = 1.0
    initial = np.zeros(n + 1)
    initial[0] = 1.0
    return MarkovSpec(
        states=(*STAGES, "exit"),
        transitions=transitions,
        initial=initial,
        keywords_by_state={"landing": "car insurance quotes online"},
        dwell_mean_by_state={stage: 4.0 for stage in STAGES},
    )


CHAINS = {"ten-page": ten_page_chain, "funnel": funnel_chain}


def eval_losses(chain: MarkovSpec, tiny: bool) -> list[float]:
    """The final held-out `eval_loss` of one `train` per training seed, on the chain's sessions."""
    run = TINY_RUN if tiny else dict(epochs=EPOCHS, train_sessions=TRAIN_SESSIONS,
                                     held_out_sessions=HELD_OUT_SESSIONS)
    sessions = generate_synthetic(chain, run["train_sessions"] + run["held_out_sessions"], DATA_SEED)
    train_set, held_out = sessions[:run["train_sessions"]], sessions[run["train_sessions"]:]
    vocab = build_vocab(train_set, min_freq=5)
    losses = []
    for seed in TRAINING_SEEDS:
        config = TrainConfig(epochs=run["epochs"], seed=seed, **(TINY if tiny else {}))
        _, report = train(train_set, config, vocab, eval_sessions=held_out)
        losses.append(report.final.eval_loss)
    return losses


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="a small architecture and a short run instead")
    args = parser.parse_args(argv)
    for name, chain in CHAINS.items():
        losses = eval_losses(chain(), args.tiny)
        for seed, loss in zip(TRAINING_SEEDS, losses):
            print(f"eval_loss {name} seed {seed} {loss!r}", flush=True)
        print(f"eval_loss_mean {name} {statistics.fmean(losses)!r} spread {max(losses) - min(losses)!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
