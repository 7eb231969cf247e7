"""The bench tracer (bench/spans.py) reads real counts from a traced run.

A refactor that moved the tape, its exit or `backward` out of the tracer's
reach would quietly zero the per-layer metrics of `bench/run.py --trace 1`;
this runs a tiny training under the tracer and checks what it reports.
"""

import threading

from test_bench_hooks import load_spans
from toychains import funnel_chain

from journeynet import training
from journeynet.journeydata import build_vocab, generate_synthetic


def test_traced_training_reports_its_batches_and_tape_nodes():
    sessions = generate_synthetic(funnel_chain(), 8, seed=5)
    vocab = build_vocab(sessions, min_freq=1)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.region("bench.timed"):
            # the paper's architecture: 15 tape nodes per batch
            training.train(sessions, training.TrainConfig(epochs=1, batch_size=4, seed=2), vocab)
    finally:
        tracer.uninstall()
    metrics = spans.summarize(tracer.spans)
    assert metrics["training.batches"] == 2
    assert metrics["numerics.tape_nodes_per_batch"] == 15


def test_training_makes_every_traced_call_on_the_calling_thread():
    """train's helper thread runs plain numpy work only: a traced call from it
    would push onto the tracer's one span stack from a second thread."""
    sessions = generate_synthetic(funnel_chain(), 8, seed=5)
    vocab = build_vocab(sessions, min_freq=1)
    spans = load_spans()
    tracer, threads = spans.Tracer(), set()
    wrap = tracer._wrap

    def noting_wrap(fn, name, data_fn):
        wrapped = wrap(fn, name, data_fn)

        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return wrapped(*args, **kwargs)

        return wrapper

    tracer._wrap = noting_wrap
    tracer.install()
    try:
        training.train(sessions, training.TrainConfig(epochs=2, batch_size=4, seed=2), vocab)
    finally:
        tracer.uninstall()
    assert threads == {threading.get_ident()}
