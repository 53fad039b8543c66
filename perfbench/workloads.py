"""The benchmark's workloads: inputs made from a seed, the measured
operations, and the checks on their outputs.

Every workload drives the package in-process through its public API.  Stage
training calls ``training.train_*_stage`` with checkpoints written to an
output directory, as ``mecpe train`` does.  Prediction calls
``cli.main(["predict", ...])``, the whole ``mecpe predict`` path: dataset JSON
-> provider from three embedding files -> three ``load_stage_model`` ->
``predict_dataset`` -> ``save_dataset``.

The package modules are reached through module attributes (``training.x``,
not ``from training import x``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np

from mecpe import checkpoint, cli, corpus, embeddings, metrics, synthetic, training
from mecpe.config import EmbeddingSettings, ExperimentConfig

import speed
from tracing import NullTracer, Tracer

NEUTRAL_PROB = 0.3  # share of neutral utterances, as in the acceptance desk runs


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hidden_size: int
    dropout: float                  # embedding and inter-layer dropout
    lr: float
    epochs: tuple[int, int, int]    # emotion, cause, pairing
    corpus_size: int                # conversations generated from the seed
    train_size: int                 # leading conversations, split into train / val
    val_fraction: float
    predict_size: int               # conversations after those; 0: predict the val split
    predict_repeats: int            # minimum predict calls per run
    pairing_repeats: int            # pairing-stage trainings per run (short, so repeated)
    # None: the run's seed makes the training corpus and the models.  A fixed
    # seed trains the same models on the same data in every run; the run's
    # seed then makes only the predicted conversations.
    training_seed: int | None
    train_in_setup: bool            # set-up trains the checkpoints; the run only predicts
    setup_repeats: int              # set-ups per run; setup_s is their median
    f1_floor: float | None          # held-out pair weighted F1 floor; None: not checked


# Desk: the acceptance profile of criterion 5 (bilstm_crf): 200 planted
# conversations, dims (16, 8, 8), hidden 48, 4-layer bilstm_crf emotion and
# 3-layer bilstm cause models, dropout 0, lr 0.003.  Epochs are 7/3/3 instead
# of 10/10/10 so that a run fits the time budget.  The cause and pairing
# models converge by epoch 2; the emotion model reaches a held-out pair F1 of
# 0.42 to 0.96 by epoch 7, depending on the seed.  So the F1 floors catch a
# pipeline that stopped learning (it predicts no pairs and scores 0); the
# quality floors are the acceptance tests' job.
DESK = dict(hidden_size=48, dropout=0.0, lr=0.003, epochs=(7, 3, 3),
            train_size=200, val_fraction=0.1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_train",
            why="Python-overhead-bound desk training (H=48) that Tier-1 and every desk"
                " experiment pay for; only here the CRF, checkpoint writes and pair-tensor"
                " build have visible shares",
            **DESK, corpus_size=200, predict_size=0, predict_repeats=6, pairing_repeats=3,
            training_seed=None, train_in_setup=False, setup_repeats=3, f1_floor=0.1,
        ),
        Workload(
            name="paper_train",
            why="arithmetic-bound paper shape (H=256, 4+3 layers, dropout 0.3): 256x1024"
                " matvecs, a 5M-parameter AdamW and ~290 MB of state per epoch; dropout"
                " exercises the mask/rng paths",
            # A slice of the 1,344-conversation paper-size corpus: at ~0.3 s a
            # step, three epochs of 9 conversations per stage is what a run can
            # afford.  Nothing converges that fast, so the pair F1 is reported,
            # not checked.  With 9 conversations, the run's seed would change
            # the work per utterance by ~10% (their lengths) and the predict
            # work by up to 2x (whether the untrained models flag any pair), so
            # the training slice and models are the same in every run.
            hidden_size=256, dropout=0.3, lr=1e-3, epochs=(3, 3, 1),
            corpus_size=1344, train_size=12, val_fraction=0.25,
            predict_size=24, predict_repeats=2, pairing_repeats=4,
            training_seed=0, train_in_setup=False,
            setup_repeats=3, f1_floor=None,
        ),
        Workload(
            name="desk_predict",
            why="the read path: forward-only with Viterbi, repeated BiLSTM passes,"
                " float-by-float embedding parsing and the pairing funnel at volume, from"
                " desk checkpoints over 100 unseen conversations",
            # The checkpoints are trained in set-up by the code under test, so a
            # change that moves work from training into prediction shows here.
            # They are the same in every run, so that the work per predicted
            # utterance does not vary with the run's seed.
            **DESK, corpus_size=300, predict_size=100, predict_repeats=1, pairing_repeats=3,
            training_seed=0, train_in_setup=True, setup_repeats=1, f1_floor=0.5,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """A seconds-long version of a workload, for the benchmark's own test."""
    return dataclasses.replace(
        w, epochs=(1, 1, 1), corpus_size=12 + min(w.predict_size, 12), train_size=12,
        val_fraction=0.25, predict_size=min(w.predict_size, 12), predict_repeats=1,
        pairing_repeats=1, setup_repeats=1, f1_floor=None,
    )


# Seeds derived from the workload seed: the corpus, the embeddings, and
# training (split, init, shuffles).
def _seeds(seed: int) -> dict:
    return {"data": seed, "embeddings": seed + 1, "training": seed + 2}


def experiment_config(w: Workload, seed: int) -> ExperimentConfig:
    seeds = _seeds(seed)
    return ExperimentConfig(
        embeddings=EmbeddingSettings(kind="synthetic", seed=seeds["embeddings"],
                                     dims=(16, 8, 8), planted=True, noise_scale=0.1),
        emotion_variant="bilstm_crf",
        cause_variant="bilstm",
        hidden_size=w.hidden_size,
        embedding_dropout=w.dropout,
        inter_layer_dropout=w.dropout,
        lr=w.lr,
        epochs_emotion=w.epochs[0],
        epochs_cause=w.epochs[1],
        epochs_pairing=w.epochs[2],
        val_fraction=w.val_fraction,
        seed=seeds["training"],
    )


# ---------------------------------------------------------------------------
# metrics

E2E_UNITS = {
    "setup_s": "s",
    "emotion_train_utt_per_s": "utt/s",
    "cause_train_utt_per_s": "utt/s",
    "pairing_stage_s": "s",
    "predict_utt_per_s": "utt/s",
    "peak_rss_mb": "MB",
}

# Spans recorded by the traced run.  Functions whose time the layer metrics
# fold into a caller's self time are left out: ``load_precomputed`` (parsing,
# inside ``provider_from_files``), ``load_model`` (inside ``load_stage_model``),
# and per-step or per-row helpers such as ``sigmoid``, ``fuse`` and
# ``distance_row``, where a span would cost more than the work it times.
TRACE_TARGETS = (
    "nn.lstm_forward", "nn.lstm_backward", "nn.birnn_forward", "nn.birnn_backward",
    "nn.dense_forward", "nn.dense_backward", "nn.AdamW.step",
    "crf.forward_backward", "crf.log_partition", "crf.viterbi_decode",
    "models.EmotionModel.loss_and_grads", "models.CauseModel.loss_and_grads",
    "models.PairingModel.loss_and_grads", "models.PairingModel.probabilities",
    "models.build_pair_examples", "models.predict_pairs", "models.predict_dataset",
    "embeddings.provider_from_files", "embeddings.synthetic_provider",
    "embeddings.save_embedding_file", "embeddings.EmbeddingProvider.conversation_features",
    "training.train_emotion_stage", "training.train_cause_stage",
    "training.train_pairing_stage", "training.conversation_tensors",
    "training.StageTrainer.save", "training.evaluate_emotion", "training.evaluate_cause",
    "training.evaluate_pairing", "training.pairing_tensors",
    "checkpoint.save_model", "checkpoint.load_stage_model",
    "corpus.load_dataset", "corpus.save_dataset", "corpus.split_train_val",
    "metrics.stage_metrics", "metrics.pair_metrics",
    "synthetic.synthetic_conversations",
)

# The benchmark's own operations; calls are also counted within each.
BENCH_SCOPES = ("bench.train.emotion", "bench.predict")

# (span, reported stats) for the per-layer metrics.
LAYER_STATS = (
    ("nn.lstm_forward", ("calls", "self_s")),
    ("nn.lstm_backward", ("calls", "self_s")),
    ("nn.birnn_forward", ("calls", "self_s")),
    ("nn.AdamW.step", ("calls", "self_s")),
    ("crf.forward_backward", ("calls", "self_s")),
    ("crf.log_partition", ("calls", "self_s")),
    ("crf.viterbi_decode", ("calls", "self_s")),
    ("models.predict_pairs", ("calls", "self_s")),
    ("embeddings.provider_from_files", ("self_s",)),
    ("embeddings.synthetic_provider", ("self_s",)),
    ("embeddings.EmbeddingProvider.conversation_features", ("calls", "self_s")),
    ("training.StageTrainer.save", ("calls", "self_s")),
    ("training.evaluate_emotion", ("self_s",)),
    ("training.evaluate_cause", ("self_s",)),
    ("training.evaluate_pairing", ("self_s",)),
    ("training.pairing_tensors", ("self_s",)),
    ("checkpoint.load_stage_model", ("calls", "self_s")),
    ("corpus.load_dataset", ("self_s",)),
    ("corpus.save_dataset", ("self_s",)),
    ("metrics.stage_metrics", ("self_s",)),
    ("metrics.pair_metrics", ("self_s",)),
    ("synthetic.synthetic_conversations", ("self_s",)),
)

DERIVED_UNITS = {
    "nn.birnn_forward.per_conversation": "calls/conv",
    "crf.forward_passes_per_step": "passes/step",
    "models.pairs_scored": "count",
    "models.pairs_emitted": "count",
    "models.pair_yield": "ratio",
    "training.save_bytes": "B",
}

LAYER_UNITS = {
    f"{span}.{stat}": ("count" if stat == "calls" else "s")
    for span, stats in LAYER_STATS
    for stat in stats
} | DERIVED_UNITS


def _files(directory):
    """name -> (size, mtime, inode) of each file, to see which files a call wrote."""
    files = {}
    for entry in os.scandir(directory):
        stat = entry.stat()
        files[entry.name] = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
    return files


def _count_save_bytes(tracer, args, kwargs):
    """Bytes of the files a ``StageTrainer.save`` call writes or replaces."""
    out_dir = args[0].out_dir
    if out_dir is None:
        return None
    before = _files(out_dir)

    def done(result):
        after = _files(out_dir)
        tracer.counts["save_bytes"] += sum(
            stat[0] for name, stat in after.items() if before.get(name) != stat
        )

    return done


def _in_predict(counter, size):
    def hook(tracer, args, kwargs):
        if not tracer.active("bench.predict"):
            return None
        return lambda result: tracer.counts.update({counter: size(result)})

    return hook


TRACE_HOOKS = {
    "training.StageTrainer.save": _count_save_bytes,
    "models.PairingModel.probabilities": _in_predict("pairs_scored", len),
    "models.predict_pairs": _in_predict("pairs_emitted", lambda result: len(result[1])),
}


def layer_metrics(tracer: Tracer) -> dict:
    values = {}
    for span, stats in LAYER_STATS:
        for stat in stats:
            source = tracer.calls if stat == "calls" else tracer.self_s
            values[f"{span}.{stat}"] = source[span]
    counts = tracer.counts
    predicted = counts["predicted_conversations"]
    steps = counts["emotion_steps"]
    crf_passes = sum(tracer.within[(f"crf.{fn}", "bench.train.emotion")]
                     for fn in ("forward_backward", "log_partition"))
    values["nn.birnn_forward.per_conversation"] = (
        tracer.within[("nn.birnn_forward", "bench.predict")] / predicted if predicted else 0.0)
    values["crf.forward_passes_per_step"] = crf_passes / steps if steps else 0.0
    values["models.pairs_scored"] = counts["pairs_scored"]
    values["models.pairs_emitted"] = counts["pairs_emitted"]
    values["models.pair_yield"] = (
        counts["pairs_emitted"] / counts["pairs_scored"] if counts["pairs_scored"] else 0.0)
    values["training.save_bytes"] = counts["save_bytes"]
    return values


# ---------------------------------------------------------------------------
# running a workload


class OutputCheckFailed(Exception):
    """An output check failed; the operation counts as failed and the run goes on."""


class OperationError(Exception):
    """An operation raised; it counts as failed and the run stops measuring."""


@dataclasses.dataclass
class Inputs:
    config: ExperimentConfig
    train: corpus.Dataset
    val: corpus.Dataset
    provider: object
    models: tuple            # initial emotion, cause and pairing models
    gold: corpus.Dataset     # labelled predict set, for scoring
    paths: dict              # predict input: dataset JSON and one embedding file per modality
    checkpoints: dict | None = None  # stage -> best bundle, when trained in set-up


class Run:
    """State of one benchmark run: samples, operation counts, failures."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = NullTracer()
        self.clock = speed.Clock(workload.hidden_size)
        self.samples = defaultdict(list)       # reference seconds, or per reference second
        self.wall_samples = defaultdict(list)  # the same from wall seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        self.f1: float | None = None
        self.last: speed.Mark | None = None
        self._dirs = 0

    def fresh_dir(self, prefix):
        self._dirs += 1
        path = os.path.join(self.workdir, f"{prefix}{self._dirs}")
        os.makedirs(path)
        return path

    def lap(self, metric=None, work=None) -> speed.Mark:
        """Mark the clock.  With ``metric``, the interval since the previous
        mark becomes one of its samples: seconds, or ``work`` per second.
        Between two marks runs only timed work or excluded time."""
        with self.tracer.span("bench.reference"):
            mark = self.clock.mark()
        if metric is not None:
            self.record(metric, self.last, mark, work)
        self.last = mark
        return mark

    @contextlib.contextmanager
    def checking(self):
        """The benchmark's own checks: neither timed nor traced."""
        with self.clock.excluded(), self.tracer.paused():
            yield

    def record(self, metric, a: speed.Mark, b: speed.Mark, work=None):
        """A sample of ``metric`` over the interval from ``a`` to ``b``."""
        for samples, seconds in zip((self.wall_samples, self.samples), speed.interval(a, b)):
            samples[metric].append(seconds if work is None else work / seconds)

    @contextlib.contextmanager
    def operation(self, what):
        """One attempted operation; a failed output check counts it as failed."""
        self.attempted += 1
        try:
            yield
        except OutputCheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{what}: {exc}")
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            raise OperationError(what) from exc


def _fresh(model):
    return type(model)(model.config, params={k: v.copy() for k, v in model.params.items()})


def _unlabelled(dataset: corpus.Dataset) -> corpus.Dataset:
    return corpus.Dataset(
        conversations=tuple(
            dataclasses.replace(
                conv,
                utterances=tuple(dataclasses.replace(u, gold_emotion=None)
                                 for u in conv.utterances),
                gold_pairs=None,
            )
            for conv in dataset.conversations
        ),
        split_tag="test",
    )


def set_up(run: Run) -> Inputs:
    """Data generation, provider build, model init and the predict input
    files; for desk_predict also the checkpoint training."""
    w = run.workload
    train_seed = run.seed if w.training_seed is None else w.training_seed
    config = experiment_config(w, train_seed)
    root = run.fresh_dir("setup")
    with run.tracer.span("bench.setup"):
        generated = synthetic.synthetic_conversations(
            w.corpus_size, seed=_seeds(train_seed)["data"], neutral_prob=NEUTRAL_PROB)
        data = corpus.Dataset(conversations=generated.conversations[: w.train_size])
        train, val = corpus.split_train_val(data, config.val_fraction, config.seed)
        provider = training.make_provider(config, data)
        # per-stage init generators as `mecpe train` seeds them
        init = [np.random.default_rng((config.seed, k)) for k in range(3)]
        emotion = training.make_emotion_model(config, provider.feature_dim, init[0])
        cause = training.make_cause_model(config, provider.feature_dim, init[1])
        pairing = training.make_pairing_model(config, emotion.rep_dim, cause.rep_dim, init[2])

        # the predict set: the held-out split, or the conversations after the
        # training slice of the run's own corpus
        gold = val
        if w.predict_size:
            if train_seed != run.seed:
                generated = synthetic.synthetic_conversations(
                    w.corpus_size, seed=_seeds(run.seed)["data"], neutral_prob=NEUTRAL_PROB)
            gold = corpus.Dataset(conversations=generated.conversations[
                w.train_size: w.train_size + w.predict_size])
        paths = {"input": os.path.join(root, "predict_input.json")}
        corpus.save_dataset(_unlabelled(gold), paths["input"])
        emb = config.embeddings
        gold_provider = embeddings.synthetic_provider(
            _seeds(run.seed)["embeddings"], emb.dims, gold,
            embeddings.PlantedRule(emb.noise_scale))
        for modality in embeddings.MODALITIES:
            paths[modality] = os.path.join(root, f"{modality}.emb")
            embeddings.save_embedding_file(paths[modality], gold_provider.tables[modality])

    inputs = Inputs(config, train, val, provider, (emotion, cause, pairing), gold, paths)
    if w.train_in_setup:
        inputs.checkpoints = train_stages(run, inputs, root)
    return inputs


def _check_trainer(stage, trainer, out_dir):
    values = [r["train_loss"] for r in trainer.history] + [r["val_metric"] for r in trainer.history]
    if not all(math.isfinite(v) for v in values):
        raise OutputCheckFailed(f"non-finite loss or validation metric in {trainer.history}")
    for suffix, params in (("best", trainer.best_params), ("last", trainer.model.params)):
        path = os.path.join(out_dir, f"{stage}_{suffix}.npz")
        loaded, _ = checkpoint.load_stage_model(path, stage)
        if loaded.params.keys() != params.keys() or not all(
            np.array_equal(loaded.params[k], params[k]) for k in params
        ):
            raise OutputCheckFailed(f"{path} does not load back to the trained parameters")


def _train(run, stage, out_dir, call, metric, work):
    """One stage training, recorded as one ``metric`` sample per epoch.

    ``call(log_fn)`` runs the stage.  An epoch lasts from one epoch record to
    the next, so it holds the previous epoch's checkpoint writes, its own
    steps and its validation; the first epoch holds the data assembly
    instead.  The writes after the last record are in no sample.
    """
    with run.operation(f"train {stage}"):
        with run.tracer.span(f"bench.train.{stage}"):
            trainer = call(lambda record: run.lap(metric, work))
            run.lap()
        with run.checking():
            _check_trainer(stage, trainer, out_dir)
    return trainer


def train_stages(run: Run, inputs: Inputs, out_dir: str) -> dict:
    """Train the three stages with checkpoints in ``out_dir``; returns the
    best bundle of each stage."""
    c, train, val, provider = inputs.config, inputs.train, inputs.val, inputs.provider
    utterances = train.n_utterances()
    with run.clock.excluded():
        emotion, cause, pairing = (_fresh(m) for m in inputs.models)

    trainer = _train(run, "emotion", out_dir, lambda log_fn: training.train_emotion_stage(
        c, emotion, train, val, provider, out_dir=out_dir, log_fn=log_fn),
        "emotion_train_utt_per_s", utterances)
    run.tracer.counts["emotion_steps"] += trainer.step
    with run.clock.excluded():
        emotion_best = trainer.best_model()

    trainer = _train(run, "cause", out_dir, lambda log_fn: training.train_cause_stage(
        c, cause, train, val, provider, out_dir=out_dir, log_fn=log_fn),
        "cause_train_utt_per_s", utterances)
    with run.clock.excluded():
        cause_best = trainer.best_model()

    # the pairing stage is short, so it is trained several times from the
    # same initial model and pairing_stage_s is the median
    for _ in range(run.workload.pairing_repeats):
        with run.clock.excluded():
            model = _fresh(pairing)
        with run.operation("train pairing"):
            with run.tracer.span("bench.train.pairing"):
                trainer = training.train_pairing_stage(
                    c, model, train, val, provider, emotion_best, cause_best,
                    out_dir=out_dir)
            run.lap("pairing_stage_s")
            with run.checking():
                _check_trainer("pairing", trainer, out_dir)
    return {stage: os.path.join(out_dir, f"{stage}_best.npz") for stage in training.STAGES}


def predict(run: Run, inputs: Inputs, checkpoints: dict, output: str) -> None:
    """One in-process `mecpe predict`, checked against the run's first."""
    paths = inputs.paths
    argv = [
        "predict", "--input", paths["input"], "--output", output,
        "--output-dir", os.path.dirname(output),
        "--emotion-checkpoint", checkpoints["emotion"],
        "--cause-checkpoint", checkpoints["cause"],
        "--pairing-checkpoint", checkpoints["pairing"],
        "--set", "embeddings.kind=files",
    ] + [a for m in embeddings.MODALITIES for a in ("--set", f"embeddings.{m}_path={paths[m]}")]
    records = io.StringIO()
    with run.tracer.span("bench.predict"), contextlib.redirect_stdout(records):
        code = cli.main(argv)
    run.tracer.counts["predicted_conversations"] += len(inputs.gold.conversations)
    with run.checking():
        if code != 0:
            raise OutputCheckFailed(f"mecpe predict exited {code}: {records.getvalue()[-400:]}")
        with open(output, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if run.digest is None:
            run.digest = digest
        elif digest != run.digest:
            raise OutputCheckFailed("predictions differ from the first predict of this run")
    if run.f1 is None:
        _score(run, inputs, output)


def _score(run, inputs, output):
    with run.checking():
        predicted = corpus.load_dataset(output, "test")
        if [c.conversation_id for c in predicted.conversations] != [
            c.conversation_id for c in inputs.gold.conversations
        ]:
            raise OutputCheckFailed("predictions do not cover the input conversations")
    # scoring is what `mecpe evaluate` does; it is traced but not timed
    with run.clock.excluded(), run.tracer.span("bench.score"):
        result = metrics.pair_metrics(metrics.pairs_by_conversation(predicted),
                                      metrics.pairs_by_conversation(inputs.gold))
    run.f1 = result.weighted_f1
    floor = run.workload.f1_floor
    if floor is not None and result.weighted_f1 < floor:
        raise OutputCheckFailed(f"pair weighted F1 {result.weighted_f1:.4f} < floor {floor}")


def measure(run: Run, inputs: Inputs, seconds: float) -> None:
    """Train the stages (unless set-up did), then predict back to back: at
    least ``predict_repeats`` times, and until ``seconds`` have passed."""
    start = time.perf_counter()
    with run.clock.excluded():
        out_dir = run.fresh_dir("round")
        utterances = inputs.gold.n_utterances()
    checkpoints = inputs.checkpoints or train_stages(run, inputs, out_dir)
    calls = 0
    while calls < run.workload.predict_repeats or time.perf_counter() - start < seconds:
        calls += 1
        with run.operation("predict"):
            predict(run, inputs, checkpoints, os.path.join(out_dir, f"predictions{calls}.json"))
        run.lap("predict_utt_per_s", utterances)
    shutil.rmtree(out_dir)  # paper-shape checkpoints take ~290 MB


def _set_up_timed(run):
    start = run.last
    inputs = set_up(run)
    run.record("setup_s", start, run.lap())
    return inputs


def _medians(samples) -> dict:
    return {name: statistics.median(values) for name, values in samples.items() if values}


def _measure_pass(run: Run, setups: int, seconds: float) -> dict:
    """Set up ``setups`` times, measure the last set-up's inputs, and return
    the median of each metric's samples.  A failed operation ends the pass."""
    run.lap()
    try:
        for _ in range(setups):
            inputs = _set_up_timed(run)
        measure(run, inputs, seconds)
    except OperationError:
        pass  # counted as failed; what was measured is still reported
    return _medians(run.samples)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (result, info): the result line of the run and a record of
    everything behind it."""
    run = Run(w, seed, workdir)
    if trace:
        # Both passes do the same fixed work, one set-up and the shortest
        # measurement, so the counts repeat exactly and the overhead compares
        # like with like.
        untraced = _measure_pass(run, 1, 0.0)
    else:
        untraced = _measure_pass(run, w.setup_repeats, seconds)
    untraced["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speeds = run.clock.speeds
    info = {
        "samples": dict(run.samples),
        "wall_samples": dict(run.wall_samples),
        "wall_medians": _medians(run.wall_samples),
        "reference_speed": {"min": min(speeds), "median": statistics.median(speeds),
                            "max": max(speeds), "marks": len(speeds),
                            "hidden": w.hidden_size},
        "pair_weighted_f1": run.f1,
        "f1_floor": w.f1_floor,
        "predictions_sha256": run.digest,
    }
    metrics_out = {name: {"value": untraced[name], "unit": unit}
                   for name, unit in E2E_UNITS.items() if name in untraced}

    if trace and not run.failed:
        tracer = Tracer(scopes=BENCH_SCOPES)
        tracer.install(TRACE_TARGETS, TRACE_HOOKS)
        run.tracer, run.samples, run.f1 = tracer, defaultdict(list), None
        try:
            traced = _measure_pass(run, 1, 0.0)
        finally:
            tracer.uninstall()
        info["trace_overhead"] = {
            name: {"untraced": untraced[name], "traced": traced[name],
                   "change": traced[name] / untraced[name] - 1.0}
            for name in traced if name in untraced
        }
        info["trace_missing_targets"] = tracer.missing
        info["spans"] = tracer.table()
        info["traced_pair_weighted_f1"] = run.f1
        metrics_out = {name: {"value": value, "unit": LAYER_UNITS[name]}
                       for name, value in layer_metrics(tracer).items()}

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics_out,
    }
    info["errors"] = run.errors
    return result, info
