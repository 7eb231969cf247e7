"""Train the two paper-config models the score-mixed workload loads.

Run once from the repository root:

    python3 bench/make_checkpoints.py

It writes bench/checkpoints/{tenpage,funnel}.json (checkpoint format v1) and
prints their sha256, which bench/rationale.json records and bench/run.py
verifies before scoring.  Committing the checkpoints means every commit
scores the same weights and no training time enters a score workload.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# One BLAS thread, as in bench/run.py: the bytes must not depend on the
# thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from journeynet import TrainConfig, build_vocab, journeydata, save_model, split, train  # noqa: E402

import inputs  # noqa: E402

N_SESSIONS = 2500
EPOCHS = 10


def main() -> int:
    out_dir = HERE / "checkpoints"
    out_dir.mkdir(exist_ok=True)
    chains = {"tenpage": inputs.ten_page_chain(), "funnel": inputs.funnel_chain()}
    for name, spec in chains.items():
        seed = inputs.CHECKPOINT_DATA_SEED[name]
        train_set, eval_set = split(journeydata.generate_synthetic(spec, N_SESSIONS, seed), 0.8, seed)
        vocab = build_vocab(train_set, min_freq=5)
        model, report = train(train_set, TrainConfig(epochs=EPOCHS), vocab, eval_sessions=eval_set)
        path = out_dir / f"{name}.json"
        save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        final = report.final
        print(
            f"{name}: {len(vocab)} classes, eval_loss={final.eval_loss:.4f} "
            f"eval_accuracy={final.eval_accuracy:.4f} sha256={digest} "
            f"bytes={os.path.getsize(path)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
