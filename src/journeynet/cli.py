"""Command-line pipeline: generate data, train, evaluate, simulate, score.

Every command reads an optional flat key=value config file (--config); any
key can be overridden by the flag of the same name.  All randomness flows
from --seed, so reruns with the same inputs produce identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import rng as rngmod
from .errors import CliError, ConfigError, JourneynetError, ObjectiveError
from .journeydata import (
    MarkovSpec,
    build_vocab,
    generate_synthetic,
    load_sessions,
    save_sessions,
    split,
)
from .seqmodel import save_model
from .simulator import (
    JourneyPrefix,
    Objective,
    rollout,
    score_batch,
    write_scores_csv,
)
from .training import (
    TrainConfig,
    evaluate,
    load_predictor,
    save_ensemble,
    train,
    train_ensemble,
)

_DEFAULTS = TrainConfig()


def _read_text(path) -> str:
    """The text of a UTF-8 input file; other bytes are a CliError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _parse_config_file(path: str) -> dict:
    """Flat key = value lines, '#' comments.

    Values stay strings: argparse re-parses string defaults with each
    option's own type, so config values go through exactly the same
    conversion as command-line flags.
    """
    values = {}
    text = _read_text(path)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        values[key.replace("-", "_")] = value
    return values


def _parse_stages(text: str) -> tuple[tuple[int, ...], ...]:
    """Stages like 3x64x4,3x64x4; TrainConfig checks their count and values."""
    try:
        return tuple(tuple(int(v) for v in part.split("x")) for part in text.split(",") if part)
    except ValueError as exc:
        raise CliError(f"bad conv stage spec {text!r}; expected like 3x64x4,3x64x4") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise CliError(f"bad integer list {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--workers", type=int, default=1, help="worker process cap")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="journeynet",
        description="Model customer visit journeys and estimate conversion probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample a synthetic session log from a Markov chain file")
    _add_common(p)
    p.add_argument("--markov-spec", required=True, help="chain definition JSON file")
    p.add_argument("--n-sessions", type=int, default=1000)
    p.add_argument("--out", help="session log path (default OUT_DIR/sessions.jsonl)")

    p = sub.add_parser("train", help="train a next-page model on a session log")
    _add_common(p)
    p.add_argument("--data", required=True, help="session log (line-delimited records)")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--min-freq", type=int, default=5, help="page frequency threshold")
    p.add_argument("--epochs", type=int, default=_DEFAULTS.epochs)
    p.add_argument("--batch-size", type=int, default=_DEFAULTS.batch_size)
    p.add_argument("--learning-rate", type=float, default=_DEFAULTS.learning_rate)
    p.add_argument("--dropout", type=float, default=_DEFAULTS.dropout_rate)
    p.add_argument("--clip-norm", type=float, default=_DEFAULTS.gradient_clip_norm)
    p.add_argument("--max-len", type=int, default=_DEFAULTS.max_len)
    stages = ",".join("x".join(map(str, s)) for s in _DEFAULTS.conv_stages)
    p.add_argument("--conv-stages", default=stages, help="widthxfiltersxpool,...")
    hidden = ",".join(map(str, _DEFAULTS.lstm_hidden))
    p.add_argument("--lstm-hidden", default=hidden, help="hidden sizes, comma separated")
    p.add_argument("--fc-width", type=int, default=_DEFAULTS.fc_width)
    p.add_argument("--ensemble", type=int, default=1, help="number of models to train")

    p = sub.add_parser("eval", help="report next-page accuracy and loss of a checkpoint")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="session log to evaluate on")

    p = sub.add_parser("simulate", help="write sampled future journeys for one prefix")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--steps", type=int, default=30, help="simulation horizon")
    p.add_argument("--n-traces", type=int, default=2)
    p.add_argument(
        "--seed-prefix",
        default="",
        help="'keywords+page+page...' seeding the simulation (keywords may be empty)",
    )
    p.add_argument("--out", help="trace file path (default OUT_DIR/traces.txt)")

    p = sub.add_parser("score", help="estimate conversion for prefixes x objectives")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--prefixes", required=True, help="line-delimited prefix records")
    p.add_argument("--objectives", required=True, help="objectives JSON file")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--out", help="score CSV path (default OUT_DIR/scores.csv)")

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with config-file values inserted between defaults and flags."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    pre, _ = probe.parse_known_args(argv[1:])
    if pre.config:
        values = _parse_config_file(pre.config)
        sub = parser._subparsers._group_actions[0].choices[argv[0]]
        valid = {a.dest for a in sub._actions}
        unknown = set(values) - valid
        if unknown:
            raise CliError(
                f"unknown config keys for {argv[0]}: {', '.join(sorted(unknown))}"
            )
        sub.set_defaults(**values)
    return parser.parse_args(argv)


def _out_path(args, attr: str, default_name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    given = getattr(args, attr, None)
    return Path(given) if given else out_dir / default_name


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        dropout_rate=args.dropout,
        seed=args.seed,
        gradient_clip_norm=args.clip_norm,
        max_len=args.max_len,
        conv_stages=_parse_stages(args.conv_stages),
        lstm_hidden=_parse_ints(args.lstm_hidden),
        fc_width=args.fc_width,
    )


def _cmd_gen_data(args) -> int:
    spec = MarkovSpec.load(args.markov_spec)
    sessions = generate_synthetic(spec, args.n_sessions, args.seed)
    out = _out_path(args, "out", "sessions.jsonl")
    save_sessions(sessions, out)
    print(f"wrote {len(sessions)} sessions to {out}")
    return 0


def _cmd_train(args) -> int:
    config = _train_config(args)
    sessions = load_sessions(args.data)
    train_set, eval_set = split(sessions, args.train_fraction, args.seed)
    vocab = build_vocab(train_set, min_freq=args.min_freq)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.ensemble != 1:  # train_ensemble rejects a size below 1
        ensemble, reports = train_ensemble(
            train_set, config, vocab, k=args.ensemble, eval_sessions=eval_set
        )
        ckpt = out_dir / "ensemble.ckpt"
        save_ensemble(ensemble, ckpt)
        for i, report in enumerate(reports):
            report.save_csv(out_dir / f"train_report_m{i}.csv")
        acc, loss = evaluate(ensemble, eval_set, vocab)
    else:
        model, report = train(train_set, config, vocab, eval_sessions=eval_set)
        ckpt = out_dir / "model.ckpt"
        save_model(model, ckpt)
        report.save_csv(out_dir / "train_report.csv")
        acc, loss = report.final.eval_accuracy, report.final.eval_loss
    save_sessions(eval_set, out_dir / "eval_sessions.jsonl")  # after training, so a rejected run writes none
    print(f"checkpoint {ckpt}")
    print(f"eval_accuracy={acc:.4f} eval_loss={loss:.4f} classes={len(vocab)}")
    return 0


def _cmd_eval(args) -> int:
    predictor = load_predictor(args.model)
    sessions = load_sessions(args.data)
    acc, loss = evaluate(predictor, sessions, predictor.vocab)
    print(f"accuracy={acc:.6f} loss={loss:.6f} sessions={len(sessions)}")
    return 0


def _parse_seed_prefix(text: str) -> JourneyPrefix:
    parts = text.split("+")
    return JourneyPrefix(parts[0], tuple(p for p in parts[1:] if p))


def _cmd_simulate(args) -> int:
    if args.n_traces < 0:
        raise CliError(f"--n-traces must be >= 0, got {args.n_traces}")
    predictor = load_predictor(args.model)
    prefix = _parse_seed_prefix(args.seed_prefix)
    out = _out_path(args, "out", "traces.txt")
    lines = []
    for i in range(args.n_traces):
        journey = rollout(
            predictor, prefix, args.steps, rngmod.stream(args.seed, "trace", i)
        )
        lines.append(f"trace {i} (ended: {journey.reason})")
        lines.append(f"  keywords: {prefix.keywords!r}")
        for t, page in enumerate(prefix.pages):
            lines.append(f"  step {t:2d}  {page}  [observed]")
        for t, page in enumerate(journey.pages, start=len(prefix.pages)):
            lines.append(f"  step {t:2d}  {page}")
        lines.append("")
    text = "\n".join(lines)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {args.n_traces} traces to {out}")
    return 0


def _load_prefixes(path) -> tuple[list[JourneyPrefix], list[str]]:
    prefixes: dict[str, JourneyPrefix] = {}  # by prefix id, in file order
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CliError(f"{path}:{line_no}: bad prefix record: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(raw, dict):
            raise CliError(f"{path}:{line_no}: a prefix record must be a JSON object")
        prefix_id = str(raw.get("prefix_id", f"p{line_no - 1:04d}"))
        if prefix_id in prefixes:
            raise CliError(f"{path}:{line_no}: duplicate prefix_id {prefix_id!r}")
        try:
            prefixes[prefix_id] = JourneyPrefix(raw.get("keywords"), raw.get("pages", ()))
        except ConfigError as exc:
            raise CliError(f"{path}:{line_no}: {exc}") from exc
    if not prefixes:
        raise CliError(f"{path}: no prefix records")
    return list(prefixes.values()), list(prefixes)


def _load_objectives(path) -> list[Objective]:
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, a too long integer, too deep
        raise CliError(f"{path}: bad objectives file: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(raw, list) or not raw:
        raise CliError(f"{path}: expected a non-empty JSON array of objectives")
    objectives: dict[str, Objective] = {}  # by id, in file order
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "id" not in entry or "pages" not in entry:
            raise CliError(f"{path}: objective {i} must be an object with 'id' and 'pages'")
        objective_id = str(entry["id"])
        if objective_id in objectives:
            raise CliError(f"{path}: objective {i}: duplicate id {objective_id!r}")
        try:
            objectives[objective_id] = Objective(objective_id, entry["pages"])
        except ObjectiveError as exc:
            raise CliError(f"{path}: objective {i}: {exc}") from exc
    return list(objectives.values())


def _cmd_score(args) -> int:
    predictor = load_predictor(args.model)
    prefixes, prefix_ids = _load_prefixes(args.prefixes)
    objectives = _load_objectives(args.objectives)
    rows = score_batch(
        predictor,
        prefixes,
        objectives,
        n_samples=args.n_samples,
        horizon=args.horizon,
        seed=args.seed,
        workers=args.workers,
        prefix_ids=prefix_ids,
    )
    out = _out_path(args, "out", "scores.csv")
    write_scores_csv(rows, out)
    print(f"wrote {len(rows)} scores to {out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "score": _cmd_score,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        if argv and argv[0] in _COMMANDS:
            args = _apply_config_file(parser, argv)
        else:
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (JourneynetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
