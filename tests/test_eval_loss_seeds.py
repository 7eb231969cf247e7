import importlib.util
import math
import statistics
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "eval_loss_seeds", Path(__file__).resolve().parents[1] / "tools" / "eval_loss_seeds.py"
)
eval_loss_seeds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_loss_seeds)


def test_tiny_run_prints_each_chains_loss_at_every_seed_then_their_mean_and_spread(capsys):
    assert eval_loss_seeds.main(["--tiny"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 2 * 5
    for chain, block in zip(("ten-page", "funnel"), (lines[:5], lines[5:])):
        *runs, (label, name, mean, word, spread) = block
        assert [run[:4] for run in runs] == [["eval_loss", chain, "seed", str(s)] for s in (1, 2, 3, 4)]
        losses = [float(run[4]) for run in runs]
        assert all(math.isfinite(loss) and loss > 0 for loss in losses)
        assert (label, name, word) == ("eval_loss_mean", chain, "spread")
        assert float(mean) == statistics.fmean(losses) and float(spread) == max(losses) - min(losses)
    # one seeded input: a second run prints the same lines
    assert eval_loss_seeds.main(["--tiny"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == lines
