import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "train_peak", Path(__file__).resolve().parents[1] / "tools" / "train_peak.py"
)
train_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_peak)


def test_tiny_run_prints_the_peak_and_the_later_epoch_faults(capsys, monkeypatch):
    from journeynet import training

    evaluate, counts = training.evaluate, []
    faults_of_one_run = train_peak.later_epoch_faults

    def counting(*args):
        counts.append(faults_of_one_run(*args))
        return counts[-1]

    monkeypatch.setattr(train_peak, "later_epoch_faults", counting)
    assert train_peak.main(["--tiny"]) == 0
    assert training.evaluate is evaluate  # the fault reading's wrapper is gone again
    peak, faults, evaluate_peak = (line.split() for line in capsys.readouterr().out.splitlines())
    assert peak[0] == "peak_mb" and float(peak[1]) > 0
    assert evaluate_peak[0] == "evaluate_peak_mb" and 0 < float(evaluate_peak[1]) < float(peak[1])
    assert len(counts) == 5 and min(counts) >= 0
    ordered = sorted(counts)
    assert faults == ["later_epoch_minor_faults", "median", str(ordered[2]), "min", str(ordered[0]),
                      "max", str(ordered[-1]), "runs", "5"]
