import json

import numpy as np
import pytest

from journeynet.cli import main
from journeynet.journeydata import MarkovSpec, load_sessions

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


def _score_exit(pipeline, tmp_path, model=None, prefixes=None, objectives=None):
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
        "--n-samples", "20", "--horizon", "5", "--out", str(tmp_path / "s.csv"),
    ])


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
    ("no members", lambda p: p.update(_ENSEMBLE)),
    ("empty members", lambda p: p.update(_ENSEMBLE, members=[])),
    ("members not objects", lambda p: p.update(_ENSEMBLE, members=[7])),
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


@pytest.mark.parametrize("record", [
    '{"keywords": "kw", "pages": "home"}',
    '{"keywords": "kw", "pages": [1, 2]}',
    '{"keywords": 7, "pages": ["home"]}',
    '["kw", "home"]',
    '"keywords"',
    '12',
])
def test_bad_prefix_records_rejected(tmp_path, record):
    from journeynet.cli import _load_prefixes
    from journeynet.errors import CliError

    path = tmp_path / "p.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(CliError, match=":1:"):
        _load_prefixes(path)


@pytest.mark.parametrize("text", [
    '[{"id": "c", "pages": "confirm"}]',
    '[{"id": "c", "pages": [3]}]',
    '["idpages"]',
    '[7]',
    'not json',
])
def test_bad_objectives_rejected(tmp_path, text):
    from journeynet.cli import _load_objectives
    from journeynet.errors import CliError

    path = tmp_path / "o.json"
    path.write_text(text)
    with pytest.raises(CliError):
        _load_objectives(path)



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
    ["--unit-seconds", "0"],
], ids=" ".join)
def test_train_out_of_range_flag_is_a_clean_error(pipeline, tmp_path, capsys, flags):
    _, data = pipeline
    code = main([
        "train", "--data", str(data), "--out-dir", str(tmp_path), *TRAIN_FLAGS, *flags,
    ])
    assert code == 1
    _assert_clean_error(capsys)


def test_gen_data_zero_sessions_is_a_clean_error(chain_file, tmp_path, capsys):
    code = main([
        "gen-data", "--markov-spec", str(chain_file), "--n-sessions", "0",
        "--out", str(tmp_path / "s.jsonl"),
    ])
    assert code == 1
    _assert_clean_error(capsys, "n_sessions")


@pytest.mark.parametrize("content", [
    b"not json\n",
    '{"states": ["café", "exit"]}'.encode("latin-1"),
    b'[["home", "exit"], [[0.5, 0.5], [0.0, 1.0]]]',
    json.dumps({
        "states": ["home", "exit"], "transitions": [[0.5, 0.5], [1.0]], "initial": [1.0, 0.0],
    }).encode(),
], ids=["not-json", "not-utf8", "json-array", "ragged-transitions"])
def test_gen_data_bad_markov_spec_is_a_clean_error(tmp_path, capsys, content):
    from journeynet.errors import MarkovSpecError

    spec = tmp_path / "chain.json"
    spec.write_bytes(content)
    with pytest.raises(MarkovSpecError):
        MarkovSpec.load(spec)
    code = main(["gen-data", "--markov-spec", str(spec), "--out", str(tmp_path / "s.jsonl")])
    assert code == 1
    _assert_clean_error(capsys)


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
