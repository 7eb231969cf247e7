"""journeynet benchmark: train-paper and score-mixed.

Run from the repository root:

    python3 bench/run.py --workload train-paper --seed 1 --seconds 45 --trace 0

Each workload runs in this one process through the library's public API,
with workers=1 and the BLAS thread count pinned.  Its inputs derive from
--seed, and its fixed amount of work is sized from --seconds.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
Each of their timed intervals is scaled to the machine's calibrated speed by
reference kernel runs on either side of it (bench/reference.py); the detail
line also prints them unscaled.  With --trace 1 the workload's timed region
runs twice, untraced and then traced, with no kernel runs.  The metrics are
the per-layer metrics, and `trace.overhead` compares the two wall times.
The line before the result holds the machine record, the metric values
under the names rationale.json uses, and the output checks that failed.
Both lines and any span dump go to .bench_out/.  bench/rationale.json says
why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pin BLAS threads before numpy loads.  One thread: the matrices are small,
# and extra threads only add noise on a shared machine.
NPROC = os.cpu_count() or 1
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

HORIZON = 30
SETUP_REPEATS = 6
K_SIGMA = 5.0  # Monte Carlo check width; one false alarm in ~10^6 cells

# Work per second of --seconds, measured on the seed code (2 cores, 1 BLAS
# thread, the machine's slower phases), so a run of the seed code lasts
# about --seconds.
EPOCH_SECONDS = 2.7
TRAIN_SESSIONS = 1000
HELD_OUT_SESSIONS = 250
# score-mixed: each round is one funnel call (4 prefixes x 3 objectives x
# FUNNEL_CELL_SAMPLES, ~1.2 s) and VISITORS_PER_ROUND visitor calls (~2.8 s).
ROUND_SECONDS = 4.0
MIN_ROUNDS = 7  # p90 of visitor latency then has >= 10 samples beyond it
FUNNEL_CELL_SAMPLES = 100
VISITORS_PER_ROUND = 15
VISITOR_SAMPLES = 100

_t0 = time.perf_counter()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy as np
    import journeynet
    from journeynet import TrainConfig, build_vocab, replicate_dwell, simulator, training
    from journeynet import rng as rngmod
    from journeynet.simulator import JourneyPrefix, Objective
except ImportError as exc:
    raise SystemExit(f"bench: cannot import journeynet from {ROOT / 'src'}: {exc}")
if not Path(journeynet.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"bench: journeynet was imported from {journeynet.__file__}, not {ROOT / 'src'}")
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

IMPORT_S = time.perf_counter() - _t0


def _blas_record() -> dict:
    """OpenBLAS version and the thread count it reports, when it can be asked."""
    record = {"pinned_threads": BLAS_THREADS}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    record["threads"] = get_threads()
                    record["config"] = get_config().decode()
                    return record
    record["config"] = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"))
    return record


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _within_mc_bound(estimate, mass, n_samples):
    """Estimate lies in [hit - k sigma, hit + pruned + k sigma] of an enumeration."""
    lo, hi = mass.hit, mass.hit + mass.pruned
    p_worst = min(max(0.5, lo), hi)
    sigma = math.sqrt(p_worst * (1.0 - p_worst) / n_samples)
    return lo - K_SIGMA * sigma <= estimate <= hi + K_SIGMA * sigma


def _verify_checkpoint(name: str) -> Path:
    path = HERE / "checkpoints" / f"{name}.json"
    expected = json.loads((HERE / "rationale.json").read_text())["checkpoints"][path.name]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != expected:
        raise SystemExit(f"bench: {path} has sha256 {digest}, rationale.json records {expected}")
    return path


def _eval_steps(sessions) -> int:
    """Number of predicted steps evaluate() scores over `sessions`."""
    return sum(len(replicate_dwell(s)) for s in sessions)


class Workload:
    """setup -> warmup -> run (timed) -> evaluate -> check.

    `run(state, kernel)` returns the workload's values of work_per_s,
    op_s_p50 and op_s_p90, each timed interval divided by the mean of the
    reference kernel slowness `kernel()` reads on either side of it; under
    "raw" the same values undivided, under "slowness" every kernel reading,
    and under "named" the values under the names rationale.json uses.
    `check` returns one bool per checked operation.
    """

    def evaluate(self, state) -> float:
        """One standalone evaluate() on the held-out sessions; returns steps/s."""
        model = state["eval_model"]
        t0 = time.perf_counter()
        state["eval"] = training.evaluate(model, state["held_out"], model.vocab)
        return state["eval_steps"] / (time.perf_counter() - t0)

    def check_eval(self, state) -> bool:
        loss = state["eval"][1]
        return math.isfinite(loss) and loss < math.log(len(state["eval_model"].vocab))


class TrainPaper(Workload):
    """train() at TrainConfig defaults on ten-page sessions, eval each epoch."""

    kernel_rows = 32  # reference kernel shaped like a training batch

    def setup(self, seed, seconds):
        train_set, held_out = inputs.ten_page_sessions(seed, [TRAIN_SESSIONS, HELD_OUT_SESSIONS])
        vocab = build_vocab(train_set, min_freq=5)
        epochs = max(2, round(seconds / EPOCH_SECONDS))
        return {
            "train_set": train_set,
            "held_out": held_out,
            "vocab": vocab,
            "config": TrainConfig(epochs=epochs),
            "eval_steps": _eval_steps(held_out),
        }

    def warmup(self, state):
        training.train(state["train_set"][:8], TrainConfig(epochs=1, batch_size=4), state["vocab"])

    def run(self, state, kernel):
        # train() calls training.evaluate at the end of every epoch; a kernel
        # run right after it closes the epoch's interval and opens the next.
        refs, inside = [kernel()], []
        original = training.evaluate

        def evaluate_then_kernel(*args, **kwargs):
            result = original(*args, **kwargs)
            t0 = time.perf_counter()
            refs.append(kernel())
            inside.append(time.perf_counter() - t0)
            return result

        training.evaluate = evaluate_then_kernel
        try:
            model, report = training.train(
                state["train_set"], state["config"], state["vocab"], eval_sessions=state["held_out"]
            )
        finally:
            training.evaluate = original
        state["eval_model"], state["report"] = model, report
        raw = [e.seconds - k for e, k in zip(report.epochs, inside)]
        epochs = [reference.scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(raw)]
        sessions = len(state["train_set"]) * len(epochs)
        return {
            "work_per_s": sessions / sum(epochs),
            "op_s_p50": _percentile(epochs, 50),
            "op_s_p90": _percentile(epochs, 90),
            "raw": {
                "work_per_s": sessions / sum(raw),
                "op_s_p50": _percentile(raw, 50),
                "op_s_p90": _percentile(raw, 90),
            },
            "named": {"train.sessions_per_s": sessions / sum(epochs), "train.epoch_s_p50": _percentile(epochs, 50)},
            "slowness": refs,
        }

    def check(self, state):
        epochs = state["report"].epochs
        ok = [math.isfinite(e.train_loss) and math.isfinite(e.eval_loss) for e in epochs]
        final = epochs[-1].eval_loss
        ok[-1] = ok[-1] and final < epochs[0].eval_loss
        return ok + [self.check_eval(state) and state["eval"][1] == final]


class ScoreMixed(Workload):
    """One client alternating a funnel batch call and a run of online visitors.

    Round r makes one score_batch call with the funnel model (every funnel
    prefix x 3 objectives, FUNNEL_CELL_SAMPLES each), then scores
    VISITORS_PER_ROUND visitors with the ten-page model, one score_batch
    call per visitor.  Both kinds of call spread over the whole timed
    region, so a slow phase of the machine weighs on both alike.
    """

    kernel_rows = 1  # reference kernel shaped like a rollout step
    oracle_visitors = 5
    visitor_prune_tol = 1e-4

    def __init__(self):
        self.checkpoints = {name: _verify_checkpoint(name) for name in ("funnel", "tenpage")}

    def setup(self, seed, seconds):
        funnel = training.load_predictor(self.checkpoints["funnel"])
        tenpage = training.load_predictor(self.checkpoints["tenpage"])
        rounds = max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))
        (held_out,) = inputs.ten_page_sessions(seed, [HELD_OUT_SESSIONS])
        return {
            "funnel": funnel,
            "eval_model": tenpage,
            "rounds": rounds,
            "funnel_prefixes": inputs.funnel_prefixes(seed),
            "funnel_objectives": inputs.funnel_objectives(),
            "visitors": inputs.visitor_prefixes(seed, rounds * VISITORS_PER_ROUND, inputs.VISITOR_TARGET),
            "visitor_objective": Objective(inputs.VISITOR_TARGET, {inputs.VISITOR_TARGET}),
            "seed": seed,
            "held_out": held_out,
            "eval_steps": _eval_steps(held_out),
        }

    def warmup(self, state):
        simulator.score_batch(
            state["funnel"], [JourneyPrefix("warm up", ("landing",))], state["funnel_objectives"][-1:],
            n_samples=20, horizon=HORIZON,
        )
        simulator.score_batch(
            state["eval_model"], [JourneyPrefix("warm up", ("home",))], [state["visitor_objective"]],
            n_samples=20, horizon=HORIZON,
        )
        training.evaluate(state["eval_model"], state["held_out"][:8], state["eval_model"].vocab)

    def run(self, state, kernel):
        funnel, tenpage, objective = state["funnel"], state["eval_model"], state["visitor_objective"]
        visitors, base = state["visitors"], state["seed"] * 100_003
        funnel_raw, visitor_raw, funnel_rows, visitor_rows = [], [], [], []
        refs = [kernel()]  # refs[2r] .. funnel call r .. refs[2r+1] .. visitors of round r .. refs[2r+2]
        for r in range(state["rounds"]):
            t0 = time.perf_counter()
            funnel_rows.append(simulator.score_batch(
                funnel, state["funnel_prefixes"], state["funnel_objectives"],
                n_samples=FUNNEL_CELL_SAMPLES, horizon=HORIZON, seed=base + 50_000 + r, workers=1,
            ))
            funnel_raw.append(time.perf_counter() - t0)
            refs.append(kernel())
            for i in range(r * VISITORS_PER_ROUND, (r + 1) * VISITORS_PER_ROUND):
                # A one-prefix call always draws sub-stream 0, so each
                # visitor gets its own stream seed.
                t0 = time.perf_counter()
                visitor_rows.append(simulator.score_batch(
                    tenpage, [visitors[i]], [objective], n_samples=VISITOR_SAMPLES, horizon=HORIZON,
                    seed=base + i, workers=1, prefix_ids=[f"v{i:04d}"],
                )[0])
                visitor_raw.append(time.perf_counter() - t0)
            refs.append(kernel())
        state["funnel_rows"], state["visitor_rows"] = funnel_rows, visitor_rows
        funnel_s = [reference.scaled(t, refs[2 * r], refs[2 * r + 1]) for r, t in enumerate(funnel_raw)]
        visitor_s = [
            reference.scaled(t, refs[2 * r + 1], refs[2 * r + 2])
            for r in range(state["rounds"])
            for t in visitor_raw[r * VISITORS_PER_ROUND:(r + 1) * VISITORS_PER_ROUND]
        ]
        samples = len(state["funnel_prefixes"]) * len(state["funnel_objectives"]) * FUNNEL_CELL_SAMPLES
        return {
            "work_per_s": samples / _percentile(funnel_s, 50),
            "op_s_p50": _percentile(visitor_s, 50),
            "op_s_p90": _percentile(visitor_s, 90),
            "raw": {
                "work_per_s": samples / _percentile(funnel_raw, 50),
                "op_s_p50": _percentile(visitor_raw, 50),
                "op_s_p90": _percentile(visitor_raw, 90),
            },
            "named": {
                "score.samples_per_s": samples / _percentile(funnel_s, 50),
                "score.funnel_call_s_p50": _percentile(funnel_s, 50),
                "score.visitor_s_p50": _percentile(visitor_s, 50),
                "score.visitor_s_p90": _percentile(visitor_s, 90),
                "funnel_calls": len(funnel_s),
                "visitors": len(visitor_s),
            },
            "slowness": refs,
        }

    def check(self, state):
        # Funnel: every call's cell, and each cell pooled over all calls,
        # within the Monte Carlo bound of the cell's pruned enumeration.
        ok = []
        n_calls = len(state["funnel_rows"])
        for c, (prefix, objective) in enumerate(
            (p, o) for p in state["funnel_prefixes"] for o in state["funnel_objectives"]
        ):
            mass = simulator.conversion_path_mass(state["funnel"], prefix, objective, HORIZON, prune_tol=1e-6)
            rows = [call[c] for call in state["funnel_rows"]]
            ok += [
                row.objective_id == objective.objective_id
                and row.n_samples == FUNNEL_CELL_SAMPLES
                and _within_mc_bound(row.probability, mass, FUNNEL_CELL_SAMPLES)
                for row in rows
            ]
            pooled = sum(row.probability for row in rows) / n_calls
            ok.append(_within_mc_bound(pooled, mass, FUNNEL_CELL_SAMPLES * n_calls))

        # Visitors: probabilities in [0, 1], converted prefixes score 1, and
        # a seeded sample within the bound of pruned enumeration.
        target, objective = inputs.VISITOR_TARGET, state["visitor_objective"]
        visitors, rows = state["visitors"], state["visitor_rows"]
        first = len(ok)
        for prefix, row in zip(visitors, rows):
            good = 0.0 <= row.probability <= 1.0 and row.n_samples == VISITOR_SAMPLES
            if target in prefix.pages:
                good = good and row.probability == 1.0
            ok.append(good)
        open_visitors = [i for i, p in enumerate(visitors) if target not in p.pages]
        gen = rngmod.stream(state["seed"], "bench-oracle")
        for i in gen.choice(open_visitors, size=min(self.oracle_visitors, len(open_visitors)), replace=False):
            mass = simulator.conversion_path_mass(
                state["eval_model"], visitors[i], objective, HORIZON, prune_tol=self.visitor_prune_tol
            )
            ok[first + i] = ok[first + i] and _within_mc_bound(rows[i].probability, mass, VISITOR_SAMPLES)
        return ok + [self.check_eval(state)]


WORKLOADS = {"train-paper": TrainPaper, "score-mixed": ScoreMixed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    wl = WORKLOADS[args.workload]()
    machine = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(),
        "workers": 1,
    }

    if args.trace:
        # No kernel runs here, so the spans hold only workload calls.
        def kernel():
            return 1.0

        state = wl.setup(args.seed, args.seconds)
        wl.warmup(state)
        t0 = time.perf_counter()
        wl.run(state, kernel)
        untraced_wall = time.perf_counter() - t0
        del state
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.region("bench.setup"):
                state = wl.setup(args.seed, args.seconds)
            with tracer.region("bench.warmup"):
                wl.warmup(state)
            with tracer.region("bench.timed"):
                t0 = time.perf_counter()
                wl.run(state, kernel)
                traced_wall = time.perf_counter() - t0
            with tracer.region("bench.eval"):
                wl.evaluate(state)
            with tracer.region("bench.check"):
                checks = wl.check(state)
        finally:
            tracer.uninstall()
        per_layer = spans.summarize(tracer.spans)
        per_layer["trace.overhead"] = traced_wall / untraced_wall - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "spans": len(tracer.spans)}
    else:
        # Set-ups run before and after the timed region, each from a collected
        # heap, so their median spans two moments of the machine.  Every timed
        # interval sits between two reference kernel runs (bench/reference.py).
        def kernel():
            return reference.slowness(wl.kernel_rows)

        kernel()  # first run pays numpy's lazy set-up
        import_ref = kernel()
        setup_raw, setup_scaled = [], []

        def timed_setup():
            gc.collect()
            before = kernel()
            t0 = time.perf_counter()
            state = wl.setup(args.seed, args.seconds)
            setup_raw.append(time.perf_counter() - t0)
            setup_scaled.append(reference.scaled(setup_raw[-1], before, kernel()))
            return state

        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            state = None  # free the previous set-up before timing the next
            state = timed_setup()
        wl.warmup(state)
        t0 = time.perf_counter()
        values = wl.run(state, kernel)
        wall = time.perf_counter() - t0
        raw, named, slowness = values.pop("raw"), values.pop("named"), values.pop("slowness")
        named["eval.steps_per_s"] = wl.evaluate(state)
        checks = wl.check(state)
        values["eval_loss"] = state["eval"][1]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        state = None
        for _ in range(SETUP_REPEATS // 2):
            timed_setup()
        values["setup_s"] = reference.scaled(IMPORT_S, import_ref, import_ref) + statistics.median(setup_scaled)
        raw["setup_s"] = IMPORT_S + statistics.median(setup_raw)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        detail = {
            "named": named,
            "raw": raw,
            "kernel_slowness": {"median": statistics.median(slowness), "min": min(slowness), "max": max(slowness)},
            "timed_wall_s": wall,
            "import_s": IMPORT_S,
            "setup_runs_s": setup_raw,
        }

    failed = sum(1 for ok in checks if not ok)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine,
        failed_checks=[i for i, ok in enumerate(checks) if not ok],
    )
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
