import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "train_peak", Path(__file__).resolve().parents[1] / "tools" / "train_peak.py"
)
train_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_peak)


def test_tiny_run_prints_one_positive_number(capsys):
    assert train_peak.main(["--tiny"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert float(line) > 0
