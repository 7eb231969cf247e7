import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "artifact_digests", Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def test_tiny_pipeline_prints_a_digest_of_every_artifact(capsys):
    assert artifact_digests.main(["--tiny"]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        digest, name = line.split("  ")
        assert len(digest) == 64 and name not in rows
        rows[name] = digest
    for run, checkpoint, reports in (
        ("single", "model.ckpt", ["train_report.csv"]),
        ("ensemble", "ensemble.ckpt", ["train_report_m0.csv", "train_report_m1.csv"]),
    ):
        for name in (checkpoint, *reports, "eval.txt", "eval_sessions.jsonl", "scores_w1.csv", "scores_w2.csv",
                     "traces.txt"):
            assert f"{run}/{name}" in rows
        # scores do not depend on the worker count
        assert rows[f"{run}/scores_w1.csv"] == rows[f"{run}/scores_w2.csv"]
    assert "sessions.jsonl" in rows
    # the ensemble's first member trains at the single model's seed on the same data
    assert rows["ensemble/train_report_m0.csv"] == rows["single/train_report.csv"]
    assert rows["ensemble/train_report_m1.csv"] != rows["single/train_report.csv"]
