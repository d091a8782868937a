"""Command line interface.

Subcommands: gen-synth, extract, train, evaluate, classify. Every flag can
also be supplied through a plain ``key=value`` config file via ``--config``;
values given on the command line win on conflict.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import warnings

from . import pipeline, synthgen
from .errors import IoFailure, ToolkitError
from .features import write_features_csv
from .imageio import read_file
from .pipeline import (
    evaluate,
    extract_manifest_features,
    format_report,
    load_bundle,
    report_to_dict,
    run_pipeline,
    save_bundle,
    train_bundle,
)


def _parse_counts(pairs):
    counts = {}
    for pair in pairs or []:
        name, _, value = pair.rpartition("=")
        if not name or not value.isdecimal():
            raise ToolkitError(f"expected FAMILY=N, got {pair!r}")
        try:
            counts[name] = int(value)
        except ValueError:  # more digits than Python parses
            raise ToolkitError(f"count for {name!r} has {len(value)} digits") from None
    return counts


# per-command option tables: (flag, dest, type, default, help, repeatable)
_OPTIONS = {
    "gen-synth": [
        ("--out", "out", str, None, "output directory", False),
        ("--seed", "seed", int, 0, "corpus seed", False),
        ("--train-count", "train_count", str, None, "FAMILY=N train override", True),
        ("--test-count", "test_count", str, None, "FAMILY=N test override", True),
    ],
    "extract": [
        ("--manifest", "manifest", str, None, "manifest CSV", False),
        ("--out", "out", str, None, "output features CSV", False),
    ],
    "train": [
        ("--manifest", "manifest", str, None, "manifest CSV", False),
        ("--out", "out", str, None, "output model file", False),
        ("--hidden", "hidden", int, pipeline.DEFAULT_HIDDEN, "hidden layer size", False),
        ("--eta", "eta", float, pipeline.DEFAULT_TRAIN.eta, "learning rate", False),
        ("--alpha", "alpha", float, pipeline.DEFAULT_TRAIN.alpha, "momentum factor", False),
        ("--epsilon", "epsilon", float, pipeline.DEFAULT_TRAIN.epsilon,
         "error-delta stop threshold", False),
        ("--max-epochs", "max_epochs", int, pipeline.DEFAULT_TRAIN.max_epochs,
         "training epoch cap", False),
        ("--seed", "seed", int, pipeline.DEFAULT_TRAIN.seed, "training seed", False),
    ],
    "evaluate": [
        ("--model", "model", str, None, "model file", False),
        ("--manifest", "manifest", str, None, "manifest CSV", False),
        ("--report", "report", str, None, "optional JSON report path", False),
    ],
    "classify": [
        ("--model", "model", str, None, "model file", False),
        ("--image", "image", str, None, "image file (PPM or BMP)", False),
    ],
}

_REQUIRED = {
    "gen-synth": ("out",),
    "extract": ("manifest", "out"),
    "train": ("manifest", "out"),
    "evaluate": ("model", "manifest"),
    "classify": ("model", "image"),
}

# the file a command writes after all its work: its directory is checked first
_WRITES = {"extract": "out", "train": "out", "evaluate": "report"}


def _read_config(path):
    values = {}
    text = io.TextIOWrapper(io.BytesIO(read_file(path, "config")), encoding="utf-8")
    try:
        for ln, raw in enumerate(text, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ToolkitError(f"{path}:{ln}: expected key=value, got {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"config {path} is not UTF-8: {exc}") from exc
    return values


def _merge_options(command, args):
    """Defaults < config file < explicit command line."""
    table = _OPTIONS[command]
    merged = {dest: default for _, dest, _, default, _, _ in table}
    if args.config:
        raw = _read_config(args.config)
        known = {dest: (typ, repeat) for _, dest, typ, _, _, repeat in table}
        for key, value in raw.items():
            if key not in known:
                raise ToolkitError(f"unknown config key {key!r} for {command}")
            typ, repeat = known[key]
            try:
                merged[key] = value.split(",") if repeat else typ(value)
            except ValueError:
                raise ToolkitError(f"config key {key!r} expects {typ.__name__}, got {value!r}") from None
    for _, dest, _, _, _, _ in table:
        given = getattr(args, dest, None)
        if given is not None:
            merged[dest] = given
    for dest in _REQUIRED[command]:
        if merged[dest] is None:
            raise ToolkitError(f"{command} requires --{dest.replace('_', '-')}")
    path = merged.get(_WRITES.get(command))
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise IoFailure(f"cannot write {path}: its directory does not exist")
    return merged


def _cmd_gen_synth(opt) -> int:
    cfg = synthgen.SynthConfig(
        seed=opt["seed"],
        train_counts=_parse_counts(opt["train_count"]),
        test_counts=_parse_counts(opt["test_count"]),
    )
    manifest_path, paths = synthgen.generate_corpus(opt["out"], cfg)
    print(f"wrote {len(paths)} images and {manifest_path}")
    return 0


def _cmd_extract(opt) -> int:
    entries, rows = extract_manifest_features(opt["manifest"])
    write_features_csv(
        opt["out"],
        (
            (row, e.family, e.poison, e.cluster, e.split)
            for row, e in zip(rows, entries)
        ),
    )
    print(f"wrote {len(entries)} feature rows to {opt['out']}")
    return 0


def _cmd_train(opt) -> int:
    cfg = dataclasses.replace(
        pipeline.DEFAULT_TRAIN,
        eta=opt["eta"],
        alpha=opt["alpha"],
        epsilon=opt["epsilon"],
        max_epochs=opt["max_epochs"],
        seed=opt["seed"],
    )
    bundle = train_bundle(opt["manifest"], train_cfg=cfg, hidden=opt["hidden"])
    save_bundle(bundle, opt["out"])
    print(f"trained {len(bundle.registry)} classes, model saved to {opt['out']}")
    return 0


def _cmd_evaluate(opt) -> int:
    bundle = load_bundle(opt["model"])
    report = evaluate(bundle, opt["manifest"])
    print(format_report(report))
    if opt["report"]:
        try:
            with open(opt["report"], "w", encoding="utf-8") as fh:
                json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoFailure(f"writing report to {opt['report']}: {exc}") from exc
    return 0


def _cmd_classify(opt) -> int:
    bundle = load_bundle(opt["model"])
    result = run_pipeline(opt["image"], bundle)
    label = result.label
    print(f"family: {label.family if label.family else '(poison)'}")
    print(f"poison: {'yes' if label.poison else 'no'}")
    print(f"cluster: {label.cluster}")
    print("scores:")
    for name, score in zip(bundle.registry.classes, result.scores):
        print(f"  {name}: {score:.6f}")
    return 0


_HANDLERS = {
    "gen-synth": _cmd_gen_synth,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "classify": _cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fishid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _OPTIONS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None, help="key=value config file")
        for flag, dest, typ, _, help_text, repeat in table:
            if repeat:
                sp.add_argument(flag, dest=dest, action="append", help=help_text)
            else:
                sp.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One ``warning:`` line, not Python's source-quoting format."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning, keeps the active filters
        warnings.showwarning = _show_warning
        try:
            merged = _merge_options(args.command, args)
            rc = _HANDLERS[args.command](merged)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return rc
        except (ToolkitError, MemoryError) as exc:  # MemoryError: e.g. a huge --hidden
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # the reader left early (``fishid evaluate ... | head``); point stdout
            # at devnull so the interpreter's final flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1


if __name__ == "__main__":
    sys.exit(main())
