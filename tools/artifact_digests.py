"""Print the sha256 of every artifact of a small seeded CLI pipeline.

The pipeline runs in a temporary directory, through `journeynet.cli.main`:
gen-data on a four-page chain, then train at the paper's architecture (one
model, and an ensemble of two), eval of each checkpoint, score of each
checkpoint with one and with two workers, and simulate of each checkpoint.
Every input derives from fixed seeds, so two checkouts whose training,
scoring and sampling give the same bits print the same lines; compare their
output to see whether a change moved any artifact.  `--tiny` runs a small architecture instead (for tests).

Run from the repository root:

    python tools/artifact_digests.py [--tiny]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from journeynet.cli import main as cli  # noqa: E402
from journeynet.journeydata import MarkovSpec  # noqa: E402

SEED = 35
SESSIONS = 400
EPOCHS = 3
TINY_FLAGS = ["--max-len", "16", "--conv-stages", "3x4x4", "--lstm-hidden", "12", "--fc-width", "12"]
PREFIXES = [
    {"prefix_id": "landing", "keywords": "car insurance", "pages": ["home"]},
    {"prefix_id": "quoting", "keywords": "insurance quote online", "pages": ["home", "quote"]},
    {"prefix_id": "cold", "keywords": "", "pages": []},
]
OBJECTIVES = [{"id": "confirm", "pages": ["confirm"]}, {"id": "contact", "pages": ["contact"]}]


def _chain() -> MarkovSpec:
    return MarkovSpec(
        states=("home", "quote", "confirm", "contact", "exit"),
        transitions=np.array([
            [0.10, 0.50, 0.05, 0.15, 0.20],
            [0.15, 0.10, 0.45, 0.10, 0.20],
            [0.05, 0.10, 0.05, 0.10, 0.70],
            [0.30, 0.10, 0.05, 0.05, 0.50],
            [0.00, 0.00, 0.00, 0.00, 1.00],
        ]),
        initial=np.array([0.6, 0.3, 0.0, 0.1, 0.0]),
        keywords_by_state={"home": "car insurance", "quote": "insurance quote online"},
        dwell_mean_by_state={"home": 4.0, "quote": 6.0, "confirm": 3.0, "contact": 5.0},
    )


def _run(args: list[str], stdout_to: Path | None = None) -> None:
    """One CLI command; its standard output goes to `stdout_to`, or is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(args)
    if code != 0:
        raise SystemExit(f"artifact_digests: {' '.join(args)} exited with {code}")
    if stdout_to is not None:
        stdout_to.write_text(out.getvalue(), encoding="utf-8")


def run_pipeline(root: Path, tiny: bool) -> None:
    """Write every artifact of the pipeline under `root`."""
    _chain().save(root / "chain.json")
    (root / "prefixes.jsonl").write_text("".join(json.dumps(p) + "\n" for p in PREFIXES), encoding="utf-8")
    (root / "objectives.json").write_text(json.dumps(OBJECTIVES), encoding="utf-8")
    data, seed = root / "sessions.jsonl", ["--seed", str(SEED)]
    _run(["gen-data", "--markov-spec", str(root / "chain.json"), "--n-sessions", str(SESSIONS),
          *seed, "--out", str(data)])
    arch = TINY_FLAGS if tiny else []
    for name, size in (("single", 1), ("ensemble", 2)):
        out_dir = root / name
        _run(["train", "--data", str(data), "--min-freq", "2", "--epochs", str(EPOCHS),
              "--ensemble", str(size), *arch, *seed, "--out-dir", str(out_dir)])
        model = out_dir / ("model.ckpt" if size == 1 else "ensemble.ckpt")
        _run(["eval", "--model", str(model), "--data", str(out_dir / "eval_sessions.jsonl")],
             stdout_to=out_dir / "eval.txt")
        for workers in (1, 2):
            _run(["score", "--model", str(model), "--prefixes", str(root / "prefixes.jsonl"),
                  "--objectives", str(root / "objectives.json"), "--n-samples", "200",
                  "--horizon", "10", *seed, "--workers", str(workers),
                  "--out", str(out_dir / f"scores_w{workers}.csv")])
        _run(["simulate", "--model", str(model), "--seed-prefix", "car insurance+home", "--steps", "10",
              "--n-traces", "4", *seed, "--out-dir", str(out_dir)])


def digests(root: Path) -> list[tuple[str, str]]:
    """(sha256, path relative to `root`) of every file under `root`, sorted by path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(root).as_posix()) for p in files]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="a small architecture instead of the paper's")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp), args.tiny)
        for digest, name in digests(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
