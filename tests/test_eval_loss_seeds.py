import importlib.util
import itertools
import math
import statistics
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "eval_loss_seeds", Path(__file__).resolve().parents[1] / "tools" / "eval_loss_seeds.py"
)
eval_loss_seeds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_loss_seeds)


def test_tiny_run_prints_each_chains_loss_at_every_seed_then_their_mean_and_spread(capsys, monkeypatch):
    reports, train = [], eval_loss_seeds.train

    def noting(*args, **kwargs):
        model, report = train(*args, **kwargs)
        reports.append(report)
        return model, report

    monkeypatch.setattr(eval_loss_seeds, "train", noting)
    assert eval_loss_seeds.main(["--tiny"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 4 * 5 and len(reports) == 2 * 4
    for i, (label, chain) in enumerate(itertools.product(("eval_loss", "eval_loss_last3"), ("ten-page", "funnel"))):
        *runs, (mean_label, name, mean, word, spread) = lines[5 * i:5 * i + 5]
        assert [run[:4] for run in runs] == [[label, chain, "seed", str(s)] for s in (1, 2, 3, 4)]
        losses = [float(run[4]) for run in runs]
        assert all(math.isfinite(loss) and loss > 0 for loss in losses)
        # each run's final epoch, or its mean over the last 3 epochs (the tiny run's 2)
        chain_reports = reports[:4] if chain == "ten-page" else reports[4:]
        assert losses == [r.final.eval_loss if label == "eval_loss" else statistics.fmean(e.eval_loss for e in r.epochs)
                          for r in chain_reports]
        assert (mean_label, name, word) == (f"{label}_mean", chain, "spread")
        assert float(mean) == statistics.fmean(losses) and float(spread) == max(losses) - min(losses)
    # one seeded input: a second run prints the same lines
    assert eval_loss_seeds.main(["--tiny"]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == lines
