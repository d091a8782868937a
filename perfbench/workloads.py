"""The two benchmark workloads.

Each workload sets up its inputs from the run seed several times (set-up
time is their median), warms up, then repeats its operation until the run
has lasted ``seconds`` and has enough samples for its tail percentile. The
reference kernel of :mod:`speed` runs before every set-up and operation,
outside the timed part, so timed metrics can be given at the reference
speed. With tracing on, every operation is also replayed through
:mod:`tracer`, so the per-layer numbers come from the same inputs.

* ``experiment``: the README's default experiment. One operation is
  ``train_bundle`` + save -> load + ``evaluate`` on 100 train / 85 test
  images at 320x240. Set-up (the corpus) runs SETUP_REPEATS times.
* ``classify-1600``: closed loop, one client: ``run_pipeline`` on 35 fish
  that ``synthgen.render_fish`` draws on a 1600x820 canvas at scale 1.0,
  cycled one at a time. Set-up builds BIG_UNITS units, each a default
  corpus of its own seed, a model trained on it (``train_bundle`` -> save
  -> load) and one fish per class, classified with that unit's model.
  Whether a model recognises a class at 1600x820 depends on its training
  corpus (one corpus in ten missed three of seven classes), so drawing the
  fish from five corpora keeps one corpus from deciding the run's accuracy.
  The traced run, which reports no accuracy, builds TRACED_UNITS units and
  replays the training of the first only, to end within 180 s.
"""

from __future__ import annotations

import itertools
import os
import resource
import shutil
import statistics
import time

import numpy as np

from fishid import imageio, mlp, pipeline, synthgen
from fishid.dtree import LabelRegistry

import speed
import tracer
from ledger import Ledger, Pins, check, check_descriptor, file_sha256, labels_sha256, sha256

TRAIN_SEED = 7  # the README's training seed; train_bundle's default
SETUP_REPEATS = 5  # experiment: corpus generation takes ~0.7 s
WARMUP_IMAGES = 4
BIG_CANVAS = (1600, 820)
BIG_UNITS = 5  # classify-1600: corpora (and models) per run, one fish per class each
TRACED_UNITS = 2  # the traced run reports no accuracy; fewer units keep it under 180 s
KERNEL_BURST = 5  # experiment: kernel runs before each ~7 s cycle
HARD_STOP_S = 90.0  # never measure past this, whatever the sample count

# name -> (tail percentile, minimum operations untraced, minimum traced)
WORKLOADS = {
    "experiment": (75, 3, 1),
    "classify-1600": (75, 40, 1),  # and at least the whole pool
}


class Run:
    """State of one workload run: inputs, samples, ledger and tracer."""

    def __init__(self, workload, seed, seconds, trace, workdir, record_pins=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ledger = Ledger()
        self.tracer = tracer.Tracer() if trace else None
        self.pins = Pins(seed, record_pins)
        self.speed = speed.Probe()
        self.setup_s: list[float] = []
        self.latency_ms: list[float] = []
        self.named: dict[str, list[float]] = {}  # per-workload timings, e.g. train_s
        self.first_labels: dict = {}  # image name -> label of its first classification
        self.accuracy = None
        self.poison_recall = None

    def set_phase(self, phase):
        self.ledger.phase = phase
        if self.tracer is not None:
            self.tracer.phase = phase

    def note(self, name, value):
        self.named.setdefault(name, []).append(value)

    def overhead(self, traced_s, untraced_s):
        if self.ledger.phase == "measure":
            self.tracer.overhead_ms.append((traced_s - untraced_s) * 1e3)


# ---------------------------------------------------------------- set-up


def _setup(run: Run, build):
    """Run ``build(dir)`` SETUP_REPEATS times (once when tracing), each in a
    fresh directory, and return the last state.

    A state lists its generated ``inputs`` (pin key -> file paths) and the
    bytes of what set-up computed from them (``outputs``: a model file or a
    descriptor matrix). Every repeat must give the same digests, which checks
    that set-up is deterministic; hashing happens outside the timed part.
    """
    run.set_phase("setup")
    repeats = 1 if run.tracer is not None else SETUP_REPEATS
    state, prev_dir, first = None, None, None
    for r in range(repeats):
        d = os.path.join(run.workdir, f"setup{r}")
        os.makedirs(d)
        with run.ledger.attempt(f"setup {r}") as outcome:
            run.speed.sample()
            t0 = time.perf_counter()
            new = build(d)
            run.setup_s.append(time.perf_counter() - t0)
            digests = {key: _files_digest(paths) for key, paths in new["inputs"].items()}
            digests["outputs"] = sha256(new["outputs"])
            first = first or digests
            check(digests == first, "setup", f"set-up repeat {r} gave other files or outputs")
        if not outcome["ok"]:
            shutil.rmtree(d)
            continue
        if prev_dir is not None:
            shutil.rmtree(prev_dir)
        state, prev_dir = new, d
    if state is not None:
        with run.ledger.attempt("input pins"):
            for key in state["inputs"]:
                run.pins.expect("inputs", key, first[key])
    return state


def _setup_units(run: Run, build, n):
    """Run ``build(dir, unit)`` for units 0..n-1, each in a fresh directory;
    set-up time is the median over units. Returns the states that were
    built (a unit's ``inputs`` and ``outputs`` are pinned under its number)."""
    run.set_phase("setup")
    states = []
    for u in range(n):
        d = os.path.join(run.workdir, f"unit{u}")
        os.makedirs(d)
        with run.ledger.attempt(f"setup unit {u}"):
            run.speed.sample()
            t0 = time.perf_counter()
            state = build(d, u)
            run.setup_s.append(time.perf_counter() - t0)
            for key, paths in state["inputs"].items():
                run.pins.expect("inputs", f"unit{u}/{key}", _files_digest(paths))
            run.pins.expect("model", f"unit{u}/train_bundle", sha256(state["outputs"]))
            states.append(state)
    return states


def _corpus(run: Run, d, seed=None):
    """The default synthetic corpus for ``seed`` (the run seed by default);
    returns the manifest and every file written."""
    cfg = synthgen.SynthConfig(seed=run.seed if seed is None else seed)
    manifest, paths = tracer.call(
        run.tracer, "synthgen.generate_corpus", synthgen.generate_corpus, d, cfg
    )
    if run.tracer is not None and run.workload != "classify-1600":
        # render_fish is only reachable inside generate_corpus here, so time
        # it on one fish per class at the corpus frame size
        for i, spec in enumerate(synthgen.default_families()):
            run.tracer.call(
                "synthgen.render_fish", synthgen.render_fish, spec, _fish_seed(run.seed, 320, i), cfg
            )
    return manifest, [manifest, *paths]


def _files_digest(paths) -> str:
    lines = [f"{os.path.basename(p)} {file_sha256(p)}" for p in sorted(paths)]
    return sha256("\n".join(lines).encode())


def _train_inputs(manifest):
    """Registry, train rows, one-hot targets and class labels, as
    ``train_bundle`` builds them."""
    entries = imageio.load_manifest(manifest)
    registry = LabelRegistry.from_rows((e.family, e.poison, e.cluster) for e in entries)
    train = [e for e in entries if e.split == "train"]
    labels = [registry.index_of(e.family) for e in train]
    targets = np.zeros((len(train), len(registry)))
    targets[np.arange(len(train)), labels] = 1.0
    return registry, train, targets, labels


def _bundle(model, tree, registry):
    return pipeline.TrainedBundle(model, tree, registry, pipeline.PipelineConfig())


def _save(tr, bundle, path) -> bytes:
    """Save a bundle (in a span when tracing); returns the file's bytes."""
    with tracer.span(tr, "pipeline.save_bundle") as rec:
        pipeline.save_bundle(bundle, path)
        rec["bytes"] = os.path.getsize(path)
    with open(path, "rb") as fh:
        return fh.read()


def _replay_train(run: Run, manifest, tag, prefix="") -> bytes:
    """``train_bundle`` replayed layer by layer; returns the model file bytes
    (saved next to the manifest under ``tag``). Descriptors are pinned under
    ``prefix`` + image name."""
    tr = run.tracer
    registry, train, targets, labels = _train_inputs(manifest)
    base = os.path.dirname(manifest)
    config = pipeline.PipelineConfig()
    X = np.stack([
        _described(
            run, tracer.describe(tr, os.path.join(base, e.path), config, f"{prefix}{e.path}@{tag}"),
            prefix + e.path,
        )
        for e in train
    ])
    cfg = mlp.TrainConfig(seed=TRAIN_SEED, init_scale=pipeline.PIPELINE_INIT_SCALE)
    model, tree, _ = tracer.fit_classifier(tr, X, targets, labels, cfg)
    return _save(tr, _bundle(model, tree, registry), os.path.join(base, f"model-{tag}.json"))


def _described(run: Run, feats, name):
    check_descriptor(feats, name)
    run.pins.expect("descriptors", name, sha256(feats.tobytes()))
    return feats


def _train_model(run: Run, manifest, d, prefix, replay):
    """train_bundle -> save -> load, as a user of the CLI would; returns the
    loaded bundle and the model file's bytes. Traced and with ``replay``,
    the training is also replayed (pinning descriptors under ``prefix``)
    and must give the same bytes."""
    bundle = pipeline.train_bundle(manifest)
    path = os.path.join(d, "model.json")
    data = _save(run.tracer, bundle, path)
    loaded = tracer.call(run.tracer, "pipeline.load_bundle", pipeline.load_bundle, path)
    if run.tracer is not None and replay:
        check(_replay_train(run, manifest, "replay", prefix) == data, "replay",
              "replayed train_bundle wrote different model bytes")
    return loaded, data


def _fish_seed(seed, size, class_index, k=0) -> int:
    ss = np.random.SeedSequence([seed, size, class_index, k])
    return int(ss.generate_state(1, np.uint64)[0])


def _test_pool(manifest, registry):
    """(image name, path, true class index) of every test row."""
    base = os.path.dirname(manifest)
    return [
        (e.path, os.path.join(base, e.path), registry.index_of(e.family))
        for e in imageio.load_manifest(manifest)
        if e.split == "test"
    ]


def _big_fish(run: Run, d, corpus_seed, unit, registry):
    """One fish per class drawn on a 1600x820 canvas, as PPM; returns
    (image name, path, true label) per fish."""
    cfg = synthgen.SynthConfig(width=BIG_CANVAS[0], height=BIG_CANVAS[1], seed=corpus_seed)
    fish = []
    for i, spec in enumerate(synthgen.default_families()):
        img = tracer.call(
            run.tracer, "synthgen.render_fish",
            synthgen.render_fish, spec, _fish_seed(corpus_seed, 1600, i), cfg, 1.0,
        )
        name = f"unit{unit}_big_{i}.ppm"
        path = os.path.join(d, name)
        with open(path, "wb") as fh:
            fh.write(imageio.encode_ppm(img))
        fish.append((name, path, registry.label(registry.index_of(spec.name))))
    return fish


def _labelled_pool(run: Run, truth):
    """Accuracy and poison recall from the first label of every image
    (``truth``: image name -> true label)."""
    labels = run.first_labels
    check(set(labels) == set(truth), "coverage", "not every pool image was classified")
    run.accuracy = _rate(sum(labels[n] == truth[n] for n in truth), len(truth))
    poison = [n for n in truth if truth[n].poison]
    run.poison_recall = _rate(sum(labels[n].poison for n in poison), len(poison))


# ---------------------------------------------------------------- measuring


def _measure(run: Run, step, min_ops, kernel_runs=1):
    """Repeat ``step`` (one operation), each after ``kernel_runs`` runs of
    the reference kernel, until ``seconds`` have passed and ``min_ops``
    operations have been timed (HARD_STOP_S bounds a slow machine)."""
    run.set_phase("measure")
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        done = len(run.latency_ms) + run.ledger.failed["measure"]
        if (elapsed >= run.seconds and done >= min_ops) or elapsed >= HARD_STOP_S:
            return
        run.speed.sample(kernel_runs)
        step()


def _rate(hits, total):
    return hits / total if total else 0.0


def run_experiment(run: Run):
    def build(d):
        manifest, files = _corpus(run, d)
        return {"manifest": manifest, "inputs": {"corpus-320": files}, "outputs": b""}

    state = _setup(run, build)
    if state is None:
        return
    manifest = state["manifest"]
    d = os.path.dirname(manifest)
    model_path = os.path.join(d, "model.json")
    n_test = sum(e.split == "test" for e in imageio.load_manifest(manifest))
    tr = run.tracer
    seen = {}

    run.set_phase("warmup")
    for e in imageio.load_manifest(manifest)[:WARMUP_IMAGES]:
        with run.ledger.attempt(f"warmup {e.path}"):
            with open(os.path.join(d, e.path), "rb") as fh:
                img = imageio.decode_image(fh.read())
            check_descriptor(pipeline.analyze_image(img, pipeline.PipelineConfig()).features, e.path)

    def cycle():
        k = len(run.latency_ms)
        with run.ledger.attempt(f"cycle {k}"):
            t0 = time.perf_counter()
            bundle = pipeline.train_bundle(manifest)
            t1 = time.perf_counter()
            pipeline.save_bundle(bundle, model_path)
            loaded = pipeline.load_bundle(model_path)
            t2 = time.perf_counter()
            report = pipeline.evaluate(loaded, manifest)
            t3 = time.perf_counter()
            model = file_sha256(model_path)
            confusion = sha256(report.confusion.astype(np.int64).tobytes())
            check(seen.setdefault("model", model) == model, "determinism",
                  "train_bundle wrote different model bytes on a repeat")
            check(report.total == n_test == int(report.confusion.sum()), "evaluate",
                  "evaluate did not count every test row")
            check(report.accuracy == np.trace(report.confusion) / report.total, "evaluate",
                  "accuracy disagrees with the confusion matrix")
            run.pins.expect("model", "train_bundle", model)
            run.pins.expect("labels", "confusion-320", confusion)
            if tr is not None:
                _replay_cycle(run, manifest, report, k, t3 - t0)
            run.latency_ms.append((t3 - t0) * 1e3)
            run.note("train_s", t1 - t0)
            run.note("evaluate_s", t3 - t2)
            run.accuracy, run.poison_recall = report.accuracy, report.poison_recall

    _measure(run, cycle, WORKLOADS["experiment"][2 if tr else 1], KERNEL_BURST)


def _replay_cycle(run: Run, manifest, report, k, untraced_s):
    """One experiment cycle replayed layer by layer, checked against the
    untraced cycle's model bytes and confusion matrix."""
    tr = run.tracer
    d = os.path.dirname(manifest)
    with open(os.path.join(d, "model.json"), "rb") as fh:
        model = fh.read()
    with tr.span("experiment.cycle", f"cycle{k}") as cycle:
        check(_replay_train(run, manifest, f"cycle{k}") == model, "replay",
              "replayed train_bundle wrote different model bytes")
        path = os.path.join(d, f"model-cycle{k}.json")
        bundle = tr.call("pipeline.load_bundle", pipeline.load_bundle, path)
        registry = bundle.registry
        confusion = np.zeros_like(report.confusion)
        labels = {}
        for name, img_path, truth in _test_pool(manifest, registry):
            label, cls, feats, _ = tracer.classify(tr, img_path, bundle, f"{name}@{k}")
            _described(run, feats, name)
            labels[name] = label
            confusion[truth, cls] += 1
    check(np.array_equal(confusion, report.confusion), "replay",
          "replayed evaluate gave a different confusion matrix")
    run.pins.expect("labels", "test-320", labels_sha256(labels))
    run.overhead(tr.time_without(cycle, "pipeline.analyze_image"), untraced_s)


def run_classify(run: Run):
    def build(d, unit):
        corpus_seed = run.seed * BIG_UNITS + unit  # disjoint across run seeds
        manifest, files = _corpus(run, d, corpus_seed)
        bundle, model = _train_model(run, manifest, d, f"unit{unit}/", replay=unit == 0)
        fish = _big_fish(run, d, corpus_seed, unit, bundle.registry)
        inputs = {"corpus-320": files, "canvas-1600": [path for _, path, _ in fish]}
        return {"bundle": bundle, "fish": fish, "inputs": inputs, "outputs": model}

    n_units = BIG_UNITS if run.tracer is None else TRACED_UNITS
    units = _setup_units(run, build, n_units)
    if len(units) < n_units:  # the failed set-up is already counted
        return
    # (name, path, bundle of its unit, true label), classified in this order
    pool = [(n, p, u["bundle"], t) for u in units for n, p, t in u["fish"]]
    tr = run.tracer
    first = {}  # image name -> descriptor bytes of its first classification

    def classify_one(name, path, bundle):
        k = len(run.latency_ms)
        with run.ledger.attempt(f"classify {name}"):
            replay = None
            if tr is not None and k % 2:  # traced and untraced take turns going first
                replay = tracer.classify(tr, path, bundle, f"{name}@{k}")
            t0 = time.perf_counter()
            res = pipeline.run_pipeline(path, bundle)
            dt = time.perf_counter() - t0
            if tr is not None and replay is None:
                replay = tracer.classify(tr, path, bundle, f"{name}@{k}")
            _described(run, res.features, name)
            check(res.label == bundle.registry.label(res.class_index), "registry",
                  f"{name}: label does not expand the predicted class")
            seen = first.setdefault(name, res.features.tobytes())
            label = run.first_labels.setdefault(name, res.label)
            check(seen == res.features.tobytes() and label == res.label, "determinism",
                  f"{name}: a repeat gave another descriptor or label")
            if replay is not None:
                label, _, feats, traced_s = replay
                check(feats.tobytes() == seen and label == res.label, "replay",
                      f"{name}: replayed run_pipeline differs from the untraced call")
                run.overhead(traced_s, dt)
            if run.ledger.phase == "measure":
                run.latency_ms.append(dt * 1e3)

    run.set_phase("warmup")
    for name, path, bundle, _ in pool[:1]:
        classify_one(name, path, bundle)

    order = itertools.cycle(pool)

    def step():
        name, path, bundle, _ = next(order)
        classify_one(name, path, bundle)

    # every image is classified at least once, for accuracy
    _measure(run, step, max(WORKLOADS[run.workload][2 if tr else 1], len(pool)))

    run.set_phase("verify")
    with run.ledger.attempt("labels"):
        _labelled_pool(run, {n: t for n, _, _, t in pool})
        key = "big-1600" if tr is None else "big-1600-traced"
        run.pins.expect("labels", key, labels_sha256(run.first_labels))


def run_workload(run: Run):
    if run.workload == "experiment":
        run_experiment(run)
    else:
        run_classify(run)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wall_times(run: Run) -> dict[str, float]:
    """Median set-up time and latency percentiles as measured, unscaled."""
    tail = WORKLOADS[run.workload][0]
    lat = run.latency_ms
    return {
        "setup_s": statistics.median(run.setup_s) if run.setup_s else 0.0,
        "latency_ms_p50": float(np.percentile(lat, 50)) if lat else 0.0,
        "latency_ms_tail": float(np.percentile(lat, tail)) if lat else 0.0,
    }


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics; times at the reference speed (see speed.py)."""
    factor = run.speed.factor()
    return {
        **{k: v / factor for k, v in wall_times(run).items()},
        "accuracy": float(run.accuracy or 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }
