import json
import os
import subprocess
import sys

import numpy as np
import pytest

from journeynet.cli import main
from journeynet.journeydata import MarkovSpec, PageEvent, Session, load_sessions, save_sessions

TRAIN_FLAGS = [
    "--epochs", "2",
    "--batch-size", "32",
    "--min-freq", "2",
    "--max-len", "16",
    "--conv-stages", "3x4x4",
    "--lstm-hidden", "12",
    "--fc-width", "12",
    "--dropout", "0.0",
]


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "chain.json"
    spec = MarkovSpec(
        states=("home", "quote", "confirm", "exit"),
        transitions=np.array(
            [
                [0.10, 0.60, 0.10, 0.20],
                [0.15, 0.10, 0.55, 0.20],
                [0.05, 0.15, 0.10, 0.70],
                [0.00, 0.00, 0.00, 1.00],
            ]
        ),
        initial=np.array([0.7, 0.3, 0.0, 0.0]),
        keywords_by_state={"home": "car insurance", "quote": "quote online"},
        dwell_mean_by_state={"home": 4.0, "quote": 4.0, "confirm": 4.0},
    )
    spec.save(path)
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, chain_file):
    """gen-data -> train once; reused by the read-only command tests."""
    out = tmp_path_factory.mktemp("run")
    data = out / "sessions.jsonl"
    assert main([
        "gen-data", "--markov-spec", str(chain_file), "--n-sessions", "300",
        "--seed", "7", "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--seed", "7", "--out-dir", str(out), *TRAIN_FLAGS,
    ]) == 0
    return out, data


def test_gen_data_writes_sessions(tmp_path, chain_file):
    out = tmp_path / "sessions.jsonl"
    code = main([
        "gen-data", "--markov-spec", str(chain_file), "--n-sessions", "50",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    sessions = load_sessions(out)
    assert len(sessions) == 50


def test_gen_data_is_bit_reproducible(tmp_path, chain_file):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        main([
            "gen-data", "--markov-spec", str(chain_file), "--n-sessions", "40",
            "--seed", "3", "--out", str(path),
        ])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_artifacts(pipeline):
    out, _ = pipeline
    assert (out / "model.ckpt").exists()
    assert (out / "train_report.csv").exists()
    assert (out / "eval_sessions.jsonl").exists()
    report = (out / "train_report.csv").read_text().strip().split("\n")
    assert report[0] == "epoch,train_loss,eval_loss,eval_accuracy"
    assert len(report) == 3  # two epochs


def test_eval_prints_accuracy(pipeline, capsys):
    out, _ = pipeline
    code = main([
        "eval", "--model", str(out / "model.ckpt"),
        "--data", str(out / "eval_sessions.jsonl"),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    acc = float(line.split()[0].split("=")[1])
    assert 0.0 <= acc <= 1.0


def test_train_is_bit_reproducible(tmp_path, pipeline):
    _, data = pipeline
    ckpts = []
    for name in ("r1", "r2"):
        run_dir = tmp_path / name
        assert main([
            "train", "--data", str(data), "--seed", "9",
            "--out-dir", str(run_dir), *TRAIN_FLAGS,
        ]) == 0
        ckpts.append((run_dir / "model.ckpt").read_bytes())
        reports = (run_dir / "train_report.csv").read_bytes()
    assert ckpts[0] == ckpts[1]


def test_simulate_writes_traces(pipeline, tmp_path, capsys):
    out, _ = pipeline
    trace_file = tmp_path / "traces.txt"
    code = main([
        "simulate", "--model", str(out / "model.ckpt"), "--steps", "30",
        "--n-traces", "2", "--seed", "5",
        "--seed-prefix", "car insurance+home",
        "--out", str(trace_file),
    ])
    assert code == 0
    text = trace_file.read_text()
    assert "trace 0" in text and "trace 1" in text
    assert "home" in text


def test_simulate_memo_runs_one_padded_pass_and_writes_the_traces_of_cold_starts(pipeline, tmp_path, monkeypatch):
    from journeynet.seqmodel import SequenceModel

    out, _ = pipeline
    passes = []
    zero_state, start = SequenceModel._zero_state, SequenceModel.start

    def counting_pass(self, batch, dtype):
        passes.append(batch)
        return zero_state(self, batch, dtype)

    def simulate(name):
        trace_file = tmp_path / name
        assert main([
            "simulate", "--model", str(out / "model.ckpt"), "--steps", "30", "--n-traces", "3",
            "--seed", "5", "--seed-prefix", "car insurance+home+quote", "--out", str(trace_file),
        ]) == 0
        return trace_file.read_bytes()

    monkeypatch.setattr(SequenceModel, "_zero_state", counting_pass)
    memo = simulate("memo.txt")
    # the first trace's start runs the prefix; the memo serves the other two
    assert passes == [1]

    def cold_start(self, prefixes):
        self._cache = None  # every start runs on a cold cache, as a start without a memo
        return start(self, prefixes)

    monkeypatch.setattr(SequenceModel, "start", cold_start)
    assert simulate("cold.txt") == memo
    assert len(passes) == 4


def test_score_writes_csv(pipeline, tmp_path):
    out, _ = pipeline
    prefixes = tmp_path / "prefixes.jsonl"
    prefixes.write_text(
        '{"prefix_id": "visitor-1", "keywords": "car insurance", "pages": ["home"]}\n'
        '{"keywords": "quote online", "pages": ["quote"]}\n'
    )
    objectives = tmp_path / "objectives.json"
    objectives.write_text(json.dumps([
        {"id": "reach-confirm", "pages": ["confirm"]},
        {"id": "reach-quote", "pages": ["quote"]},
    ]))
    scores = tmp_path / "scores.csv"
    code = main([
        "score", "--model", str(out / "model.ckpt"),
        "--prefixes", str(prefixes), "--objectives", str(objectives),
        "--n-samples", "200", "--horizon", "10", "--seed", "2",
        "--out", str(scores),
    ])
    assert code == 0
    lines = scores.read_text().strip().split("\n")
    assert lines[0] == "prefix_id,objective_id,probability,std_err,n_samples,horizon"
    assert len(lines) == 5  # 2 prefixes x 2 objectives
    assert lines[1].startswith("visitor-1,reach-confirm,")
    # prefix already contains the quote page -> probability exactly 1
    row = lines[4].split(",")
    assert row[0] == "p0001" and row[1] == "reach-quote"
    assert float(row[2]) == 1.0


def test_score_is_bit_reproducible(pipeline, tmp_path):
    out, _ = pipeline
    prefixes = tmp_path / "p.jsonl"
    prefixes.write_text('{"keywords": "car insurance", "pages": ["home"]}\n')
    objectives = tmp_path / "o.json"
    objectives.write_text('[{"id": "c", "pages": ["confirm"]}]')
    blobs = []
    for name in ("s1.csv", "s2.csv"):
        path = tmp_path / name
        assert main([
            "score", "--model", str(out / "model.ckpt"),
            "--prefixes", str(prefixes), "--objectives", str(objectives),
            "--n-samples", "150", "--horizon", "8", "--seed", "4",
            "--out", str(path),
        ]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_config_file_supplies_defaults_and_flags_win(tmp_path, pipeline):
    _, data = pipeline
    config = tmp_path / "run.conf"
    config.write_text(
        "epochs = 1\n"
        "batch_size = 32\n"
        "min_freq = 2\n"
        "max_len = 16\n"
        "conv_stages = 3x4x4\n"
        "lstm_hidden = 12\n"
        "fc_width = 12\n"
        "dropout = 0.0\n"
        "# a comment line\n"
    )
    run_dir = tmp_path / "from-config"
    assert main([
        "train", "--data", str(data), "--config", str(config),
        "--out-dir", str(run_dir), "--seed", "1",
    ]) == 0
    report = (run_dir / "train_report.csv").read_text().strip().split("\n")
    assert len(report) == 2  # config's single epoch

    run_dir2 = tmp_path / "flag-wins"
    assert main([
        "train", "--data", str(data), "--config", str(config),
        "--out-dir", str(run_dir2), "--seed", "1", "--epochs", "2",
    ]) == 0
    report2 = (run_dir2 / "train_report.csv").read_text().strip().split("\n")
    assert len(report2) == 3  # flag overrode the config value


def test_unknown_config_key_rejected(tmp_path, pipeline, capsys):
    _, data = pipeline
    config = tmp_path / "bad.conf"
    config.write_text("no_such_option = 3\n")
    code = main(["train", "--data", str(data), "--config", str(config)])
    assert code == 1
    assert "no_such_option" in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--markov-spec", "x.json", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "simulate", "score"])
def test_help_lists_common_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--seed", "--workers", "--out-dir"):
        assert flag in text


def test_train_defaults_match_reference_architecture():
    from journeynet.cli import build_parser

    args = build_parser().parse_args(["train", "--data", "x.jsonl"])
    assert args.conv_stages == "3x64x4,3x64x4"
    assert args.lstm_hidden == "128,128"
    assert args.fc_width == 256
    assert args.dropout == 0.5
    assert args.batch_size == 32


def test_missing_input_is_a_clean_error(tmp_path, capsys):
    code = main([
        "gen-data", "--markov-spec", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_score_workers_do_not_change_scores_csv(pipeline, tmp_path):
    out, _ = pipeline
    prefixes = tmp_path / "p.jsonl"
    prefixes.write_text(
        '{"keywords": "car insurance", "pages": ["home"]}\n'
        '{"keywords": "quote online", "pages": []}\n'
        '{"keywords": "car insurance", "pages": ["home", "quote"]}\n'
    )
    objectives = tmp_path / "o.json"
    objectives.write_text('[{"id": "c", "pages": ["confirm"]}, {"id": "q", "pages": ["quote"]}]')
    blobs = []
    for workers in ("1", "2"):
        path = tmp_path / f"scores_w{workers}.csv"
        assert main([
            "score", "--model", str(out / "model.ckpt"),
            "--prefixes", str(prefixes), "--objectives", str(objectives),
            "--n-samples", "300", "--horizon", "10", "--seed", "8",
            "--workers", workers, "--out", str(path),
        ]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_score_workers_write_the_same_bytes_over_two_blocks(pipeline, tmp_path):
    # 20 prefixes: blocks of 16 + 4 with one worker, 10 + 10 with two, 7 + 7 + 6 with three
    out, _ = pipeline
    pages = ["home", "quote", "confirm", "zz-not-a-page"]
    prefixes = tmp_path / "p.jsonl"
    prefixes.write_text("".join(
        json.dumps({"keywords": ["car insurance", "", "quote online", "home"][i % 4],
                    "pages": [pages[(i + j) % 4] for j in range(i % 5)]}) + "\n"
        for i in range(20)
    ))
    objectives = tmp_path / "o.json"
    objectives.write_text('[{"id": "c", "pages": ["confirm"]}, {"id": "q", "pages": ["quote"]}]')
    blobs = []
    for workers in ("1", "2", "3"):
        path = tmp_path / f"scores_w{workers}.csv"
        assert main([
            "score", "--model", str(out / "model.ckpt"),
            "--prefixes", str(prefixes), "--objectives", str(objectives),
            "--n-samples", "300", "--horizon", "10", "--seed", "8",
            "--workers", workers, "--out", str(path),
        ]) == 0
        blobs.append(path.read_bytes())
    assert len(blobs[0].splitlines()) == 1 + 20 * 2
    assert blobs[0] == blobs[1] == blobs[2]


def _score_exit(pipeline, tmp_path, model=None, prefixes=None, objectives=None, flags=()):
    out, _ = pipeline
    if prefixes is None:
        prefixes = '{"keywords": "car insurance", "pages": ["home"]}\n'
    if objectives is None:
        objectives = '[{"id": "c", "pages": ["confirm"]}]'
    (tmp_path / "p.jsonl").write_text(prefixes)
    (tmp_path / "o.json").write_text(objectives)
    return main([
        "score", "--model", str(model or out / "model.ckpt"),
        "--prefixes", str(tmp_path / "p.jsonl"), "--objectives", str(tmp_path / "o.json"),
        "--n-samples", "20", "--horizon", "5", "--out", str(tmp_path / "s.csv"), *flags,
    ])


def test_score_keywords_that_lowercasing_lengthens(pipeline, tmp_path):
    # 'İ'.lower() is two characters, so the lowercased keywords outgrow max_len
    prefixes = json.dumps({"keywords": "İ" * 64, "pages": ["home"]}) + "\n"
    assert _score_exit(pipeline, tmp_path, prefixes=prefixes) == 0
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2


def test_score_non_json_checkpoint_is_a_clean_error(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "broken.ckpt"
    ckpt.write_text("this is not json\n")
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1
    assert "error:" in capsys.readouterr().err


def test_score_unknown_checkpoint_format_is_a_clean_error(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "other.ckpt"
    ckpt.write_text('{"format": "something-else"}')
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1
    assert "error:" in capsys.readouterr().err


def test_score_objective_outside_vocabulary_is_a_clean_error(pipeline, tmp_path, capsys):
    code = _score_exit(pipeline, tmp_path, objectives='[{"id": "x", "pages": ["not-there"]}]')
    assert code == 1
    assert "not-there" in capsys.readouterr().err


@pytest.mark.parametrize("prefixes, objectives, dup", [
    ('{"prefix_id": "v", "keywords": "a", "pages": ["home"]}\n'
     '{"prefix_id": "v", "keywords": "b", "pages": []}\n', None, "'v'"),
    ('{"keywords": "a", "pages": []}\n'
     '{"prefix_id": "p0000", "keywords": "b", "pages": []}\n', None, "'p0000'"),
    (None, '[{"id": "c", "pages": ["confirm"]}, {"id": "c", "pages": ["quote"]}]', "'c'"),
    (None, '[{"id": 1, "pages": ["confirm"]}, {"id": "1", "pages": ["quote"]}]', "'1'"),
], ids=["prefix-id", "prefix-id-equals-default", "objective-id", "objective-id-as-number"])
def test_score_duplicate_ids_are_a_clean_error(pipeline, tmp_path, capsys, prefixes, objectives, dup):
    # two rows of scores.csv with one (prefix_id, objective_id) could not be told apart
    assert _score_exit(pipeline, tmp_path, prefixes=prefixes, objectives=objectives) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "duplicate" in err and dup in err
    assert not (tmp_path / "s.csv").exists()


_ENSEMBLE = {"format": "journeynet-ensemble", "version": 1}


@pytest.mark.parametrize("name, edit", [
    ("no model", lambda p: p.pop("model")),
    ("model not an object", lambda p: p.update(model=[1, 2])),
    ("no weights", lambda p: p["model"].pop("weights")),
    ("no config", lambda p: p["model"].pop("config")),
    ("config without max_len", lambda p: p["model"]["config"].pop("max_len")),
    ("no vocab", lambda p: p["model"].pop("vocab")),
    ("weights not an array", lambda p: p["model"]["weights"].update(
        {"conv0.bias": {"shape": [3], "data": "AAAA"}})),
    ("weights entry not an object", lambda p: p["model"]["weights"].update({"conv0.bias": 7})),
    ("weights the config does not lay out", lambda p: p["model"]["weights"].update(
        {"lstm1.wx": p["model"]["weights"]["lstm0.wh"]})),
    ("no members", lambda p: p.update(_ENSEMBLE)),
    ("empty members", lambda p: p.update(_ENSEMBLE, members=[])),
    ("members not objects", lambda p: p.update(_ENSEMBLE, members=[7])),
    ("duplicate vocabulary page", lambda p: p["model"]["vocab"]["pages"].append(p["model"]["vocab"]["pages"][0])),
    ("vocabulary min_freq below 1", lambda p: p["model"]["vocab"].update(min_freq=0)),
    ("config max_len not an int", lambda p: p["model"]["config"].update(max_len=16.5)),
])
def test_score_checkpoint_with_missing_parts_is_a_clean_error(
    pipeline, tmp_path, capsys, name, edit
):
    out, _ = pipeline
    payload = json.loads((out / "model.ckpt").read_text())
    edit(payload)
    ckpt = tmp_path / "partial.ckpt"
    ckpt.write_text(json.dumps(payload))
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1, name
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "score"])
def test_a_checkpoint_that_is_a_json_array_is_a_clean_error(pipeline, tmp_path, capsys, command):
    out, _ = pipeline
    ckpt = tmp_path / "array.ckpt"
    ckpt.write_text("[1, 2]\n")
    if command == "eval":
        code = main(["eval", "--model", str(ckpt), "--data", str(out / "eval_sessions.jsonl")])
    else:
        code = _score_exit(pipeline, tmp_path, model=ckpt)
    assert code == 1
    _assert_clean_error(capsys, "a checkpoint must be a JSON object")


@pytest.mark.parametrize("flags", [["--n-samples", "0"], ["--horizon", "-1"], ["--horizon", "0"]])
def test_score_bad_sampling_flags_are_a_clean_error(pipeline, tmp_path, capsys, flags):
    out, _ = pipeline
    (tmp_path / "p.jsonl").write_text('{"keywords": "car insurance", "pages": ["home"]}\n')
    (tmp_path / "o.json").write_text('[{"id": "c", "pages": ["confirm"]}]')
    code = main([
        "score", "--model", str(out / "model.ckpt"),
        "--prefixes", str(tmp_path / "p.jsonl"), "--objectives", str(tmp_path / "o.json"),
        "--out", str(tmp_path / "s.csv"), *flags,
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_zero_steps_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    code = main([
        "simulate", "--model", str(out / "model.ckpt"), "--steps", "0",
        "--out", str(tmp_path / "t.txt"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# 10**15 steps: arrays of that length fit no address space, so a missing
# check fails at once, without allocating
HUGE_HORIZON = str(10**15)


def test_score_horizon_beyond_the_longest_session_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    (tmp_path / "p.jsonl").write_text('{"keywords": "car insurance", "pages": ["home"]}\n')
    (tmp_path / "o.json").write_text('[{"id": "c", "pages": ["confirm"]}]')
    code = main([
        "score", "--model", str(out / "model.ckpt"),
        "--prefixes", str(tmp_path / "p.jsonl"), "--objectives", str(tmp_path / "o.json"),
        "--out", str(tmp_path / "s.csv"), "--horizon", HUGE_HORIZON,
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_steps_beyond_the_longest_session_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    code = main([
        "simulate", "--model", str(out / "model.ckpt"), "--steps", HUGE_HORIZON,
        "--out", str(tmp_path / "t.txt"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


BAD_PREFIX_RECORDS = [
    '{"keywords": "kw", "pages": "home"}',
    '{"keywords": "kw", "pages": [1, 2]}',
    '{"keywords": "kw", "pages": {"home": 1}}',
    '{"keywords": "kw", "pages": 5}',
    '{"keywords": "kw", "pages": [["home"]]}',
    '{"keywords": 7, "pages": ["home"]}',
    '{"pages": ["home"]}',
    '{"keywords": "kw", "pages": ["home", ""]}',
    '["kw", "home"]',
    '"keywords"',
    '12',
]
BAD_OBJECTIVES = [
    '[{"id": "c", "pages": "confirm"}]',
    '[{"id": "c", "pages": [3]}]',
    '[{"id": "c", "pages": {"confirm": 1}}]',
    '[{"id": "c", "pages": 5}]',
    '[{"id": "c", "pages": [["confirm"]]}]',
    '[{"id": "c", "pages": [""]}]',
    '[{"id": "c", "pages": []}]',
    '["idpages"]',
    '[7]',
]


@pytest.mark.parametrize("record", BAD_PREFIX_RECORDS)
def test_bad_prefix_records_rejected(tmp_path, record):
    from journeynet.cli import _load_prefixes
    from journeynet.errors import CliError

    path = tmp_path / "p.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(CliError, match=":1:"):
        _load_prefixes(path)


@pytest.mark.parametrize("text", [*BAD_OBJECTIVES, 'not json'])
def test_bad_objectives_rejected(tmp_path, text):
    from journeynet.cli import _load_objectives
    from journeynet.errors import CliError

    path = tmp_path / "o.json"
    path.write_text(text)
    with pytest.raises(CliError, match="o.json: (objective 0|bad objectives file)"):
        _load_objectives(path)


@pytest.mark.parametrize("prefixes, objectives, where", [
    *((record + "\n", None, "p.jsonl:1:") for record in BAD_PREFIX_RECORDS),
    *((None, text, "o.json: objective 0") for text in BAD_OBJECTIVES),
])
def test_score_on_a_bad_prefix_or_objective_record_names_its_place(pipeline, tmp_path, capsys, prefixes, objectives,
                                                                    where):
    assert _score_exit(pipeline, tmp_path, prefixes=prefixes, objectives=objectives) == 1
    _assert_clean_error(capsys, where)
    assert not (tmp_path / "s.csv").exists()



# in Latin-1, "é" is a byte that is not valid UTF-8
LATIN1_PREFIX = '{"keywords": "café", "pages": ["home"]}\n'.encode("latin-1")


def _assert_clean_utf8_error(capsys, name):
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "UTF-8" in err
    return err


@pytest.mark.parametrize("which", ["prefixes", "objectives"])
def test_score_non_utf8_input_is_a_clean_error(pipeline, tmp_path, capsys, which):
    out, _ = pipeline
    files = {
        "prefixes": tmp_path / "p.jsonl",
        "objectives": tmp_path / "o.json",
    }
    files["prefixes"].write_text('{"keywords": "car insurance", "pages": ["home"]}\n')
    files["objectives"].write_text('[{"id": "c", "pages": ["confirm"]}]')
    bad = {
        "prefixes": LATIN1_PREFIX,
        "objectives": '[{"id": "café", "pages": ["confirm"]}]'.encode("latin-1"),
    }
    files[which].write_bytes(bad[which])
    code = main([
        "score", "--model", str(out / "model.ckpt"),
        "--prefixes", str(files["prefixes"]), "--objectives", str(files["objectives"]),
        "--n-samples", "20", "--horizon", "5", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    _assert_clean_utf8_error(capsys, files[which].name)


def test_non_utf8_config_file_is_a_clean_error(pipeline, tmp_path, capsys):
    _, data = pipeline
    config = tmp_path / "bad.conf"
    config.write_bytes("# réglages\nepochs = 1\n".encode("latin-1"))
    code = main(["train", "--data", str(data), "--config", str(config)])
    assert code == 1
    _assert_clean_utf8_error(capsys, "bad.conf")


def test_eval_non_utf8_data_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    data = tmp_path / "latin1.jsonl"
    good = (out / "eval_sessions.jsonl").read_bytes().split(b"\n")[0]
    data.write_bytes(good + b"\n" + '{"session_id": "é"}\n'.encode("latin-1"))
    code = main(["eval", "--model", str(out / "model.ckpt"), "--data", str(data)])
    assert code == 1
    assert "line 2:" in _assert_clean_utf8_error(capsys, "latin1.jsonl")


def _assert_clean_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    for word in words:
        assert word in err, err
    return err


@pytest.mark.parametrize("flags", [
    ["--epochs", "0"],
    ["--learning-rate", "0"],
    ["--dropout", "1.5"],
    ["--lstm-hidden", ","],
    ["--lstm-hidden", "0"],
    ["--conv-stages", "3x4x0"],
    ["--fc-width", "0"],
    ["--train-fraction", "1.5"],
    ["--min-freq", "0"],
], ids=" ".join)
def test_train_out_of_range_flag_is_a_clean_error(pipeline, tmp_path, capsys, flags):
    _, data = pipeline
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, *flags,
    ])
    assert code == 1
    _assert_clean_error(capsys)


@pytest.mark.parametrize("flags, message", [
    (["--conv-stages", "3xfourx4"], "bad conv stage spec '3xfourx4'"),
    (["--lstm-hidden", "12,x"], "bad integer list '12,x'"),
], ids=["conv-stages", "lstm-hidden"])
def test_train_unparsable_size_flag_is_a_clean_error(pipeline, tmp_path, capsys, flags, message):
    _, data = pipeline
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, *flags])
    assert code == 1
    _assert_clean_error(capsys, message)


@pytest.mark.parametrize("quote", ["'", '"'])
def test_train_config_value_in_quotes_is_read_without_them(pipeline, tmp_path, capsys, quote):
    # unquoted, so `--min-freq`'s int parses it and the vocabulary rejects 0;
    # with the quotes kept, argparse would exit 2 on an invalid int
    _, data = pipeline
    config = tmp_path / "quoted.conf"
    config.write_text(f"min_freq = {quote}0{quote}\n")
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path), "--config", str(config)])
    assert code == 1
    _assert_clean_error(capsys, "min_freq must be an int >= 1, got 0")


# 10**15 wide: each of these models, or one phrase's one-hot, fits no
# address space, so a missing size check fails at once, without allocating
HUGE = str(10**15)


@pytest.mark.parametrize("flags", [
    ["--max-len", HUGE],
    ["--lstm-hidden", HUGE],
    ["--fc-width", HUGE],
    ["--conv-stages", f"3x{HUGE}x4"],
    ["--max-len", HUGE, "--conv-stages", f"3x4x{HUGE}"],  # small weights, a huge one-hot
], ids=["max-len", "lstm-hidden", "fc-width", "conv-filters", "max-len-pooled-away"])
def test_train_model_too_large_to_allocate_is_a_clean_error(pipeline, tmp_path, capsys, flags):
    _, data = pipeline
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, *flags,
    ])
    assert code == 1
    _assert_clean_error(capsys, "more than 100000000")


def test_train_dwell_expansion_past_its_bound_is_a_clean_error(pipeline, tmp_path, capsys):
    _, data = pipeline
    # 10 001 events of 150 s each: 50 005 copies at the default unit (30 s) and cap (5)
    sessions = [
        Session(s.session_id, s.keywords, tuple(
            PageEvent(s.events[i % len(s.events)].page_name, 150.0) for i in range(10_001)
        ))
        for s in load_sessions(data)[:5]
    ]
    long_dwell = tmp_path / "long_dwell.jsonl"
    save_sessions(sessions, long_dwell)
    code = main(["train", "--data", str(long_dwell), "--out-dir", str(tmp_path), *TRAIN_FLAGS])
    assert code == 1
    _assert_clean_error(capsys, "expands to 50005 pages, more than 50000")


def _train_or_eval(pipeline, tmp_path, command) -> list[str]:
    """A `train` or `eval` command line that runs on the pipeline's files."""
    out, data = pipeline
    if command == "train":
        return ["train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS]
    return ["eval", "--model", str(out / "model.ckpt"), "--data", str(out / "eval_sessions.jsonl")]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flag", [["--unit-seconds", "30"], ["--dwell-cap", "5"]], ids=" ".join)
def test_a_removed_dwell_flag_is_a_usage_error(pipeline, tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_train_or_eval(pipeline, tmp_path, command), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("line", ["unit_seconds = 30", "dwell_cap = 5"])
def test_a_removed_dwell_config_key_is_a_clean_error(pipeline, tmp_path, capsys, command, line):
    config = tmp_path / "dwell.conf"
    config.write_text(line + "\n")
    code = main([*_train_or_eval(pipeline, tmp_path, command), "--config", str(config)])
    assert code == 1
    key = line.split(" ")[0]
    assert _assert_clean_error(capsys).startswith(f"error: unknown config keys for {command}: {key}")


@pytest.mark.parametrize("flag, setting, value", [
    pytest.param("--learning-rate", "learning_rate", "nan", id="--learning-rate-learning_rate"),
    pytest.param("--clip-norm", "gradient_clip_norm", "nan", id="--clip-norm-gradient_clip_norm"),
    pytest.param("--learning-rate", "learning_rate", "inf", id="--learning-rate-learning_rate-inf"),
])
def test_train_nan_setting_is_a_clean_error(pipeline, tmp_path, capsys, flag, setting, value):
    _, data = pipeline
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, flag, value,
    ])
    assert code == 1
    _assert_clean_error(capsys, setting)


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_eval_on_an_empty_log_is_a_clean_error(pipeline, tmp_path, capsys, content):
    out, _ = pipeline
    data = tmp_path / "empty.jsonl"
    data.write_text(content, encoding="utf-8")
    code = main(["eval", "--model", str(out / "model.ckpt"), "--data", str(data)])
    assert code == 1
    _assert_clean_error(capsys, "no sessions")


def test_train_ensemble_below_one_is_a_clean_error(pipeline, tmp_path, capsys):
    _, data = pipeline
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, "--ensemble", "0",
    ])
    assert code == 1
    _assert_clean_error(capsys, "ensemble size must be >= 1, got 0")
    assert not list(tmp_path.iterdir())


def test_simulate_negative_trace_count_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    code = main([
        "simulate", "--model", str(out / "model.ckpt"), "--n-traces", "-1",
        "--out", str(tmp_path / "t.txt"),
    ])
    assert code == 1
    _assert_clean_error(capsys, "--n-traces")


def test_score_zero_workers_is_a_clean_error(pipeline, tmp_path, capsys):
    assert _score_exit(pipeline, tmp_path, flags=["--workers", "0"]) == 1
    _assert_clean_error(capsys, "workers")


def test_gen_data_zero_sessions_is_a_clean_error(chain_file, tmp_path, capsys):
    code = main([
        "gen-data", "--markov-spec", str(chain_file), "--n-sessions", "0",
        "--out", str(tmp_path / "s.jsonl"),
    ])
    assert code == 1
    _assert_clean_error(capsys, "n_sessions")


def _spec_json(**fields) -> bytes:
    spec = {
        "states": ["a", "b", "exit"],
        "transitions": [[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.0, 0.0, 1.0]],
        "initial": [1.0, 0.0, 0.0],
    }
    spec.update(fields)
    return json.dumps(spec).encode()


@pytest.mark.parametrize("content", [
    b"not json\n",
    '{"states": ["café", "exit"]}'.encode("latin-1"),
    b'[["home", "exit"], [[0.5, 0.5], [0.0, 1.0]]]',
    json.dumps({
        "states": ["home", "exit"], "transitions": [[0.5, 0.5], [1.0]], "initial": [1.0, 0.0],
    }).encode(),
    _spec_json(dwell_mean_by_state={"a": "x"}),
    _spec_json(dwell_mean_by_state={"a": None}),
    _spec_json(dwell_mean_by_state={"a": float("inf")}),  # written as Infinity
    _spec_json(dwell_mean_by_state={"a": -1.0}),
    _spec_json(dwell_mean_by_state={"a": True}),
    _spec_json(dwell_mean_by_state={"a": 10 ** 400}),
    _spec_json(states=["", "b", "exit"]),
    _spec_json(states=[1, 2, 3]),
    _spec_json(states="abc"),
    _spec_json(keywords_by_state={"a": 7}),
    _spec_json(transitions=[[float("nan"), 0.5, 0.5], [0.4, 0.1, 0.5], [0.0, 0.0, 1.0]]),
    _spec_json(transitions=[[10 ** 400, 0.0, 0.0], [0.4, 0.1, 0.5], [0.0, 0.0, 1.0]]),
    _spec_json(transitions=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
    _spec_json(transitions=[[1.0, 0.0, 0.0], [0.4, 0.1, 0.5], [0.0, 0.0, 1.0]]),
    _spec_json(initial=[float("nan"), 0.0, 0.0]),
    _spec_json(transitions=[[0.5, 0.5], [0.0, 1.0]]),
    _spec_json(initial=[1.0, 0.0]),
    _spec_json(initial=[0.5, 0.0, 0.5]),
    _spec_json(states={"a": 0, "b": 1, "exit": 2}),
    b"[" * 100_000,
], ids=[
    "not-json", "not-utf8", "json-array", "ragged-transitions",
    "text-dwell", "null-dwell", "infinite-dwell", "negative-dwell", "boolean-dwell",
    "huge-integer-dwell", "empty-state", "integer-states", "states-as-text", "integer-keyword",
    "nan-transition", "huge-integer-transition", "cycle-never-ends", "self-loop-never-ends",
    "nan-initial", "transitions-of-two-states", "initial-of-two-states", "initial-on-the-exit",
    "states-as-object",
    "nested-too-deep",
])
def test_gen_data_bad_markov_spec_is_a_clean_error(tmp_path, capsys, content):
    from journeynet.errors import MarkovSpecError

    spec = tmp_path / "chain.json"
    spec.write_bytes(content)
    with pytest.raises(MarkovSpecError):
        MarkovSpec.load(spec)
    code = main(["gen-data", "--markov-spec", str(spec), "--out", str(tmp_path / "s.jsonl")])
    assert code == 1
    _assert_clean_error(capsys)
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("name", ["<null>", "<unknown>"])
def test_gen_data_on_a_reserved_page_state_name_is_a_clean_error(tmp_path, capsys, name):
    spec = tmp_path / "chain.json"
    spec.write_bytes(_spec_json(states=["a", name, "exit"]))
    code = main(["gen-data", "--markov-spec", str(spec), "--out", str(tmp_path / "s.jsonl")])
    assert code == 1
    _assert_clean_error(capsys, repr(name), "reserved")
    assert not (tmp_path / "s.jsonl").exists()
    # the terminal state's name is never written as a page, so it may be either
    spec.write_bytes(_spec_json(states=["a", "b", name]))
    assert main(["gen-data", "--markov-spec", str(spec), "--n-sessions", "5", "--out", str(tmp_path / "s.jsonl")]) == 0
    assert {ev.page_name for s in load_sessions(tmp_path / "s.jsonl") for ev in s.events} <= {"a", "b"}


def test_gen_data_on_a_chain_that_almost_never_exits_is_a_clean_error(tmp_path):
    # valid, but one session would walk ~1e12 pages: gen-data must stop, not hang
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps({
        "states": ["a", "exit"], "transitions": [[0.999999999999, 1e-12], [0.0, 1.0]], "initial": [1.0, 0.0],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "journeynet.cli", "gen-data", "--markov-spec", str(spec),
         "--n-sessions", "1", "--out", str(tmp_path / "s.jsonl")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
    assert "session 0" in proc.stderr and "'a'" in proc.stderr
    assert not (tmp_path / "s.jsonl").exists()


def test_train_config_of_default_flags_is_the_default_train_config():
    from journeynet.cli import _train_config, build_parser
    from journeynet.training import TrainConfig

    args = build_parser().parse_args(["train", "--data", "x"])
    assert _train_config(args) == TrainConfig()


def _unsupported_version(pipeline, tmp_path, kind):
    out, _ = pipeline
    payload = json.loads((out / "model.ckpt").read_text())
    if kind == "ensemble":
        payload = dict(_ENSEMBLE, members=[payload["model"]])
    payload["version"] = 99
    ckpt = tmp_path / f"{kind}-v99.ckpt"
    ckpt.write_text(json.dumps(payload))
    return ckpt


@pytest.mark.parametrize("kind", ["model", "ensemble"])
def test_load_predictor_rejects_unsupported_version(pipeline, tmp_path, kind):
    from journeynet.errors import CheckpointError
    from journeynet.training import load_predictor

    with pytest.raises(CheckpointError, match="version 99"):
        load_predictor(_unsupported_version(pipeline, tmp_path, kind))


@pytest.mark.parametrize("kind", ["model", "ensemble"])
def test_eval_rejects_unsupported_version(pipeline, tmp_path, capsys, kind):
    out, _ = pipeline
    ckpt = _unsupported_version(pipeline, tmp_path, kind)
    code = main(["eval", "--model", str(ckpt), "--data", str(out / "eval_sessions.jsonl")])
    assert code == 1
    _assert_clean_error(capsys, "version 99")


@pytest.mark.parametrize("stages", [[[3, 4, 0]], [[3, 4]]], ids=["pool-0", "two-values"])
def test_score_checkpoint_with_bad_conv_stage_is_a_clean_error(pipeline, tmp_path, capsys, stages):
    out, _ = pipeline
    payload = json.loads((out / "model.ckpt").read_text())
    payload["model"]["config"]["conv_stages"] = stages
    ckpt = tmp_path / "bad-stage.ckpt"
    ckpt.write_text(json.dumps(payload))
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1
    _assert_clean_error(capsys, "conv stage")


def _checkpoint_with_other_pages(pipeline, tmp_path, case):
    """The pipeline's checkpoint with a page name that is not a string, or an
    ensemble of it and a member over other page names of the same or another count."""
    from journeynet.journeydata import PageVocabulary
    from journeynet.seqmodel import SequenceModel, model_from_dict, model_to_dict

    out, _ = pipeline
    payload = json.loads((out / "model.ckpt").read_text())
    member = payload["model"]
    pages = member["vocab"]["pages"]
    if case == "page-not-a-string":
        member["vocab"]["pages"] = [5, *pages[1:]]
    elif case == "same-size":
        payload = dict(_ENSEMBLE, members=[member, dict(member, vocab=dict(member["vocab"], pages=pages[::-1]))])
    else:
        other = SequenceModel.build(model_from_dict(member).config, PageVocabulary(pages[:-1], 1), seed=1)
        payload = dict(_ENSEMBLE, members=[member, model_to_dict(other)])
    ckpt = tmp_path / f"{case}.ckpt"
    ckpt.write_text(json.dumps(payload))
    return ckpt


@pytest.mark.parametrize("case", ["same-size", "other-size"])
def test_load_predictor_rejects_ensemble_members_over_other_page_names(pipeline, tmp_path, case):
    from journeynet.errors import CheckpointError
    from journeynet.training import load_predictor

    with pytest.raises(CheckpointError, match="one vocabulary"):
        load_predictor(_checkpoint_with_other_pages(pipeline, tmp_path, case))


@pytest.mark.parametrize("case", ["same-size", "other-size", "page-not-a-string"])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_checkpoint_pages_of_other_members_or_types_are_a_clean_error(pipeline, tmp_path, capsys, command, case):
    out, _ = pipeline
    ckpt = _checkpoint_with_other_pages(pipeline, tmp_path, case)
    if command == "score":
        code = _score_exit(pipeline, tmp_path, model=ckpt)
    else:
        code = main(["eval", "--model", str(ckpt), "--data", str(out / "eval_sessions.jsonl")])
    assert code == 1
    _assert_clean_error(capsys, "vocabulary" if case != "page-not-a-string" else "non-empty strings")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("n_sessions", [0, 1])
def test_train_on_too_few_sessions_is_a_clean_error(pipeline, tmp_path, capsys, n_sessions):
    _, data = pipeline
    short = tmp_path / "short.jsonl"
    short.write_bytes(b"".join(data.read_bytes().splitlines(keepends=True)[:n_sessions]))
    code = main(["train", "--data", str(short), "--out-dir", str(tmp_path), *TRAIN_FLAGS])
    assert code == 1
    _assert_clean_error(capsys, "at least 2 sessions")


def test_train_on_an_eventless_session_is_a_clean_error(tmp_path, capsys):
    # one session with pages among eventless ones: any split trains on an eventless one
    lines = [{"session_id": f"e{i}", "keywords": "kw", "events": []} for i in range(3)]
    lines.append({
        "session_id": "p", "keywords": "kw",
        "events": [{"page": "home", "dwell_seconds": 2.0}, {"page": "quote", "dwell_seconds": 1.0}],
    })
    data = tmp_path / "s.jsonl"
    data.write_text("".join(json.dumps(d) + "\n" for d in lines))
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), "--train-fraction", "0.5",
        *TRAIN_FLAGS, "--min-freq", "1",
    ])
    assert code == 1
    _assert_clean_error(capsys, "no page events")


@pytest.mark.parametrize("page", ["<null>", "<unknown>"])
@pytest.mark.parametrize("min_freq", ["1", "3"], ids=["kept", "below-min-freq"])
def test_train_on_a_reserved_page_name_is_a_clean_error(tmp_path, capsys, page, min_freq):
    # the reserved name is one page of line 2; "--min-freq 3" would drop it from the vocabulary
    pages = [["home", "quote"], ["home", page, "quote"], ["home", "quote"], ["quote", "home"]]
    lines = [
        {"session_id": f"s{i}", "keywords": "kw", "events": [{"page": p, "dwell_seconds": 2.0} for p in ps]}
        for i, ps in enumerate(pages)
    ]
    data = tmp_path / "s.jsonl"
    data.write_text("".join(json.dumps(d) + "\n" for d in lines))
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, "--min-freq", min_freq])
    assert code == 1
    _assert_clean_error(capsys, "line 2:", repr(page), "reserved")
    assert not (tmp_path / "model.ckpt").exists()


# an integer literal longer than Python's int-to-string limit (4300 digits)
# makes json.loads raise a plain ValueError rather than a JSONDecodeError
HUGE_INT = "1" + "0" * 5000


@pytest.mark.parametrize("dwell", ["1" + "0" * 400, HUGE_INT], ids=["beyond-float", "beyond-str-limit"])
def test_train_on_a_huge_integer_dwell_is_a_clean_error(tmp_path, capsys, dwell):
    data = tmp_path / "s.jsonl"
    data.write_text(
        '{"session_id": "a", "keywords": "kw", "events": [{"page": "home", "dwell_seconds": 2}]}\n'
        f'{{"session_id": "b", "keywords": "kw", "events": [{{"page": "home", "dwell_seconds": {dwell}}}]}}\n'
    )
    code = main(["train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS])
    assert code == 1
    _assert_clean_error(capsys, "line 2:")


def test_score_checkpoint_with_a_huge_integer_is_a_clean_error(pipeline, tmp_path, capsys):
    out, _ = pipeline
    text = (out / "model.ckpt").read_text().rstrip()
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_text(text[:-1] + f', "padding": {HUGE_INT}}}\n')
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1
    _assert_clean_error(capsys, "huge.ckpt", "not a JSON checkpoint")


def test_score_prefix_with_a_huge_integer_is_a_clean_error(pipeline, tmp_path, capsys):
    prefixes = f'{{"keywords": "car insurance", "pages": ["home"], "rank": {HUGE_INT}}}\n'
    assert _score_exit(pipeline, tmp_path, prefixes=prefixes) == 1
    _assert_clean_error(capsys, "p.jsonl:1:", "bad prefix record")


def test_score_objectives_with_a_huge_integer_is_a_clean_error(pipeline, tmp_path, capsys):
    objectives = f'[{{"id": {HUGE_INT}, "pages": ["confirm"]}}]'
    assert _score_exit(pipeline, tmp_path, objectives=objectives) == 1
    _assert_clean_error(capsys, "o.json", "bad objectives file")


@pytest.mark.parametrize("field, value", [
    ("max_len", int("1" + "0" * 400)),  # beyond float: the old loader's Glorot draw overflowed
    ("lstm_hidden", [12, 3_000_000]),  # the old loader tried to allocate the second layer
], ids=["huge-max-len", "huge-layer"])
def test_score_checkpoint_with_an_absurd_size_is_a_clean_error(pipeline, tmp_path, capsys, field, value):
    out, _ = pipeline
    payload = json.loads((out / "model.ckpt").read_text())
    payload["model"]["config"][field] = value
    ckpt = tmp_path / "absurd.ckpt"
    ckpt.write_text(json.dumps(payload))
    assert _score_exit(pipeline, tmp_path, model=ckpt) == 1
    _assert_clean_error(capsys, "checkpoint")


@pytest.mark.parametrize("command", ["gen-data", "train", "simulate", "score"])
def test_a_seed_outside_128_bits_is_a_clean_error(pipeline, chain_file, tmp_path, capsys, command):
    out, data = pipeline
    (tmp_path / "p.jsonl").write_text('{"keywords": "car insurance", "pages": ["home"]}\n')
    (tmp_path / "o.json").write_text('[{"id": "c", "pages": ["confirm"]}]')
    args = {
        "gen-data": ["--markov-spec", str(chain_file), "--n-sessions", "5"],
        "train": ["--data", str(data), *TRAIN_FLAGS],
        "simulate": ["--model", str(out / "model.ckpt")],
        "score": ["--model", str(out / "model.ckpt"), "--prefixes", str(tmp_path / "p.jsonl"),
                  "--objectives", str(tmp_path / "o.json"), "--n-samples", "20"],
    }[command]
    assert main([command, *args, "--out-dir", str(tmp_path), "--seed", str(2**127)]) == 1
    _assert_clean_error(capsys, "seed or int label outside [-2**127, 2**127)")


# runs each argv list of the JSON list in argv[1] through main; exits with the worst code
_RUN_COMMANDS = "import json, sys; from journeynet.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"


def _save_peaked_model(path):
    """Save a model whose weights are scaled by 3: peaked, so its rollouts follow the order of a prefix's pages."""
    from journeynet.journeydata import PageVocabulary
    from journeynet.seqmodel import ModelConfig, SequenceModel, save_model

    config = ModelConfig(max_len=16, conv_stages=((3, 4, 4),), lstm_hidden=(12,), fc_width=12)
    model = SequenceModel.build(config, PageVocabulary(["home", "quote", "confirm"], 1), 5)
    for w in model.weights.values():
        w.data = 3 * w.data
    save_model(model, path)


def test_score_csv_is_the_library_scores_of_the_same_inputs(tmp_path):
    from journeynet.seqmodel import load_model
    from journeynet.simulator import JourneyPrefix, Objective, score_batch, write_scores_csv

    _save_peaked_model(tmp_path / "m.ckpt")
    (tmp_path / "p.jsonl").write_text(
        '{"keywords": "car insurance", "pages": ["home", "quote"]}\n'
        '{"keywords": "car insurance", "pages": ["quote", "home"], "prefix_id": "reversed"}\n'
        '{"keywords": "", "pages": ["home"]}\n'
    )
    (tmp_path / "o.json").write_text('[{"id": "c", "pages": ["confirm"]}]')
    assert main([
        "score", "--model", str(tmp_path / "m.ckpt"), "--prefixes", str(tmp_path / "p.jsonl"),
        "--objectives", str(tmp_path / "o.json"), "--n-samples", "200", "--seed", "3", "--out-dir", str(tmp_path),
    ]) == 0
    prefixes = [
        JourneyPrefix("car insurance", ("home", "quote")),
        JourneyPrefix("car insurance", ("quote", "home")),
        JourneyPrefix("", ("home",)),
    ]
    rows = score_batch(
        load_model(tmp_path / "m.ckpt"), prefixes, [Objective("c", {"confirm"})], n_samples=200, horizon=30,
        seed=3, prefix_ids=["p0000", "reversed", "p0002"],
    )
    write_scores_csv(rows, tmp_path / "library.csv")
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert rows[0].probability != rows[1].probability  # the checkpoint sees the pages' order


def test_score_and_simulate_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # CI runs the suite under one hash seed per run; this compares two in one run
    _save_peaked_model(tmp_path / "m.ckpt")
    prefixes = tmp_path / "p.jsonl"
    prefixes.write_text(
        '{"keywords": "car insurance", "pages": ["home", "quote"]}\n{"keywords": "", "pages": ["quote", "home"]}\n'
    )
    objectives = tmp_path / "o.json"
    objectives.write_text('[{"id": "c", "pages": ["confirm"]}]')
    artifacts = []
    for hash_seed in ("0", "1"):
        run = tmp_path / hash_seed
        common = ["--model", str(tmp_path / "m.ckpt"), "--seed", "3", "--out-dir", str(run)]
        commands = [
            ["score", *common, "--prefixes", str(prefixes), "--objectives", str(objectives), "--n-samples", "200"],
            ["simulate", *common, "--seed-prefix", "car insurance+home+quote", "--n-traces", "4"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append([(run / name).read_bytes() for name in ("scores.csv", "traces.txt")])
    assert artifacts[0] == artifacts[1]
