import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "train_peak", Path(__file__).resolve().parents[1] / "tools" / "train_peak.py"
)
train_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_peak)


def test_tiny_run_prints_the_peak_and_the_later_epoch_faults(capsys):
    from journeynet import training

    evaluate = training.evaluate
    assert train_peak.main(["--tiny"]) == 0
    assert training.evaluate is evaluate  # the fault reading's wrapper is gone again
    peak, faults = (line.split() for line in capsys.readouterr().out.splitlines())
    assert peak[0] == "peak_mb" and float(peak[1]) > 0
    assert faults[0] == "later_epoch_minor_faults" and int(faults[1]) >= 0
