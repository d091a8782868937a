"""Command line interface.

Subcommands: gen-synth, extract, train, evaluate, classify. Every flag can
also be supplied through a plain ``key=value`` config file via ``--config``;
values given on the command line win on conflict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import warnings

from . import pipeline, synthgen
from .errors import IoFailure, ToolkitError
from .features import write_features_csv
from .imageio import read_text, write_file
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


REQUIRED = object()  # the default of a key a command cannot run without


def _read_config(path):
    values = {}
    for ln, raw in enumerate(read_text(path, "config").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ToolkitError(f"{path}:{ln}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_options(command, args):
    """Defaults < config file < explicit command line."""
    _, output, options = _COMMANDS[command]
    merged = {key: default for key, _, default, _ in options}
    if args.config:
        types = {key: typ for key, typ, _, _ in options}
        for key, value in _read_config(args.config).items():
            if key not in types:
                raise ToolkitError(f"unknown config key {key!r} for {command}")
            typ = types[key]
            try:
                merged[key] = value.split(",") if typ is list else typ(value)
            except ValueError:
                raise ToolkitError(f"config key {key!r} expects {typ.__name__}, got {value!r}") from None
    for key, _, _, _ in options:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        if merged[key] is REQUIRED:
            raise ToolkitError(f"{command} requires --{key.replace('_', '-')}")
    path = merged.get(output)
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise IoFailure(f"cannot write {path}: its directory does not exist")
    if path and os.path.exists(path) and not os.path.isfile(path):
        try:  # held until the output is written: closing it first gives a reader end-of-file
            merged["held"] = open(os.open(path, os.O_WRONLY | getattr(os, "O_NONBLOCK", 0)), "wb")
        except OSError as exc:  # ENXIO: a FIFO with no reader
            raise IoFailure(f"cannot write {path}: {exc}") from None
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
    names = {f.name for f in dataclasses.fields(pipeline.DEFAULT_TRAIN)}
    cfg = dataclasses.replace(pipeline.DEFAULT_TRAIN, **{k: opt[k] for k in names & opt.keys()})
    bundle = train_bundle(opt["manifest"], train_cfg=cfg, hidden=opt["hidden"])
    save_bundle(bundle, opt["out"])
    print(f"trained {len(bundle.registry)} classes, model saved to {opt['out']}")
    return 0


def _cmd_evaluate(opt) -> int:
    bundle = load_bundle(opt["model"])
    report = evaluate(bundle, opt["manifest"])
    print(format_report(report))
    if opt["report"]:
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
        write_file(opt["report"], text.encode("utf-8"), "report")
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


# command: (handler, the key of the file it writes after all its work, checked
# first and opened first if not a file, or None, [(key, type, default, help)]);
# a key's flag is --key with dashes, and type list is a repeatable flag, a
# comma-separated list in a config file
_COMMANDS = {
    "gen-synth": (_cmd_gen_synth, None, [
        ("out", str, REQUIRED, "output directory"),
        ("seed", int, 0, "corpus seed"),
        ("train_count", list, None, "FAMILY=N train override"),
        ("test_count", list, None, "FAMILY=N test override"),
    ]),
    "extract": (_cmd_extract, "out", [
        ("manifest", str, REQUIRED, "manifest CSV"),
        ("out", str, REQUIRED, "output features CSV"),
    ]),
    "train": (_cmd_train, "out", [
        ("manifest", str, REQUIRED, "manifest CSV"),
        ("out", str, REQUIRED, "output model file"),
        ("hidden", int, pipeline.DEFAULT_HIDDEN, "hidden layer size"),
        ("eta", float, pipeline.DEFAULT_TRAIN.eta, "learning rate"),
        ("alpha", float, pipeline.DEFAULT_TRAIN.alpha, "momentum factor"),
        ("epsilon", float, pipeline.DEFAULT_TRAIN.epsilon, "error-delta stop threshold"),
        ("max_epochs", int, pipeline.DEFAULT_TRAIN.max_epochs, "training epoch cap"),
        ("seed", int, pipeline.DEFAULT_TRAIN.seed, "training seed"),
    ]),
    "evaluate": (_cmd_evaluate, "report", [
        ("model", str, REQUIRED, "model file"),
        ("manifest", str, REQUIRED, "manifest CSV"),
        ("report", str, None, "optional JSON report path"),
    ]),
    "classify": (_cmd_classify, None, [
        ("model", str, REQUIRED, "model file"),
        ("image", str, REQUIRED, "image file (PPM or BMP)"),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fishid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, options) in _COMMANDS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None, help="key=value config file")
        for key, typ, _, help_text in options:
            flag = "--" + key.replace("_", "-")
            if typ is list:
                sp.add_argument(flag, action="append", help=help_text)
            else:
                sp.add_argument(flag, type=typ, help=help_text)
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
            with merged.pop("held", contextlib.nullcontext()):
                rc = _COMMANDS[args.command][0](merged)
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
