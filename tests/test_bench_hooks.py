"""The bench tracer (bench/spans.py) patches library attributes by name.

A renamed or moved entry point would make `bench/run.py --trace 1` fail at
install time, so every hook must name an attribute its owner defines.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_entry_point_is_defined_by_its_owner():
    entry_points = load_spans().ENTRY_POINTS
    assert entry_points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in entry_points
        if attr not in vars(owner)
    ]
    assert not missing, missing
