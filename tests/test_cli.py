import dataclasses
import importlib
import json
import os
import re
import select
import subprocess
import sys

import pytest

import fishid
from fishid import cli, pipeline
from fishid.cli import REQUIRED, _COMMANDS, _merge_options, _read_config, build_parser, main
from fishid.errors import IoFailure, MalformedRow
from fishid.imageio import MANIFEST_HEADER, load_manifest, read_text
from fishid.pipeline import save_bundle, train_bundle


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def cli_corpus(cli_workdir):
    out = cli_workdir / "corpus"
    families = [
        "Istiophoridae", "leiognathidae", "Acropomaatidae", "Scombridae",
        "Stromateidae", "Triacanthidae", "Poison fish",
    ]
    args = ["gen-synth", "--out", os.fspath(out), "--seed", "4"]
    for fam in families:
        args += ["--train-count", f"{fam}=3", "--test-count", f"{fam}=2"]
    assert main(args) == 0
    return out / "manifest.csv"


@pytest.fixture(scope="module")
def cli_model(cli_workdir, cli_corpus):
    model = cli_workdir / "model.json"
    rc = main([
        "train", "--manifest", os.fspath(cli_corpus), "--out", os.fspath(model),
        "--hidden", "8", "--max-epochs", "120", "--seed", "5",
    ])
    assert rc == 0
    return model


def test_gen_synth_counts(cli_corpus):
    entries = load_manifest(cli_corpus)
    assert sum(e.split == "train" for e in entries) == 21
    assert sum(e.split == "test" for e in entries) == 14


def test_extract(cli_workdir, cli_corpus, capsys):
    out = cli_workdir / "features.csv"
    assert main(["extract", "--manifest", os.fspath(cli_corpus), "--out", os.fspath(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("f0,f1,")
    assert lines[0].endswith("family,poison,cluster,split")
    assert len(lines) == 1 + 35


def test_evaluate_prints_report(cli_model, cli_corpus, cli_workdir, capsys):
    report_path = cli_workdir / "report.json"
    rc = main([
        "evaluate", "--model", os.fspath(cli_model), "--manifest", os.fspath(cli_corpus),
        "--report", os.fspath(report_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "accuracy:" in out
    assert "poison recall:" in out
    assert "confusion matrix" in out
    doc = json.loads(report_path.read_text())
    assert set(doc) >= {"accuracy", "poison_recall", "confusion", "classes"}


def test_classify_prints_label_and_scores(cli_model, cli_corpus, capsys):
    entries = load_manifest(cli_corpus)
    entry = next(e for e in entries if e.split == "test")
    image = os.path.join(os.path.dirname(cli_corpus), entry.path)
    rc = main(["classify", "--model", os.fspath(cli_model), "--image", image])
    out = capsys.readouterr().out
    assert rc == 0
    assert "family:" in out
    assert "poison:" in out
    assert "cluster:" in out
    assert "scores:" in out


def child_env():
    """The environment for a ``python`` child that imports this checkout's fishid."""
    path = [os.path.dirname(os.path.dirname(fishid.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_classify_needs_only_numpy(cli_model, cli_corpus, capsys):
    """With scipy unimportable, ``fishid.cli`` imports and classifies a
    synthgen fish exactly as this process does."""
    entry = next(e for e in load_manifest(cli_corpus) if e.split == "test")
    argv = ["classify", "--model", os.fspath(cli_model),
            "--image", os.path.join(os.path.dirname(cli_corpus), entry.path)]
    assert main(argv) == 0
    code = ("import sys; sys.modules['scipy'] = None; import fishid.cli; "
            "sys.exit(fishid.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


# the four inputs read from a path, as (module, reader)
READERS = {
    "image": ("fishid.pipeline", "_read_image"),
    "model": ("fishid.pipeline", "load_bundle"),
    "manifest": ("fishid.imageio", "load_manifest"),
    "config": ("fishid.cli", "_read_config"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("what", READERS)
def test_fifo_with_no_writer_is_an_error(what, tmp_path):
    """A blocking open of a FIFO with no writer waits forever, so the reader
    runs in a child with a time limit."""
    fifo = tmp_path / "in"
    os.mkfifo(fifo)
    module, reader = READERS[what]
    code = (f"import sys; from fishid.errors import ToolkitError; from {module} import {reader}\n"
            f"try:\n    {reader}(sys.argv[1])\nexcept ToolkitError as exc:\n    print(exc)")
    proc = subprocess.run([sys.executable, "-c", code, os.fspath(fifo)], capture_output=True,
                          text=True, env=child_env(), timeout=20)
    assert proc.returncode == 0 and proc.stdout, proc.stderr


@pytest.mark.parametrize("what", READERS)
@pytest.mark.parametrize("target", ["devnull", "directory", "nul"])
def test_device_or_directory_is_io_failure(what, target, tmp_path):
    module, reader = READERS[what]
    read = getattr(importlib.import_module(module), reader)
    with pytest.raises(IoFailure):
        read({"devnull": os.devnull, "directory": tmp_path, "nul": "in\0put"}[target])


# the four outputs written to a path, as a statement that writes the path ``p``
# given the paths ``model`` and ``manifest`` of this module's model and corpus
WRITERS = {
    "model": "from fishid.pipeline import load_bundle, save_bundle\n"
             "save_bundle(load_bundle(model), p)",
    "features": "from fishid.features import write_features_csv\n"
                "write_features_csv(p, [([0.5] * 47, 'Scombridae', False, 'c', 'train')])",
    "manifest": "from fishid.imageio import load_manifest, write_manifest\n"
                "write_manifest(p, load_manifest(manifest))",
    # what ``fishid evaluate --report p`` runs after its option checks
    "report": "from fishid.cli import _cmd_evaluate\n"
              "_cmd_evaluate({'model': model, 'manifest': manifest, 'report': p})",
}


@pytest.fixture
def write(cli_model, cli_corpus):
    """``write(what, p)`` runs ``WRITERS[what]`` in this process."""
    def run(what, p):
        exec(WRITERS[what], {"p": os.fspath(p), "model": os.fspath(cli_model),
                             "manifest": os.fspath(cli_corpus)})
    return run


def run_writer_child(what, p, cli_model, cli_corpus):
    """Run ``WRITERS[what]`` in a ``python`` child with a time limit; it prints
    the ToolkitError it raises, if any, to stdout."""
    body = WRITERS[what].replace("\n", "\n    ")
    code = ("import sys; from fishid.errors import ToolkitError\n"
            "p, model, manifest = sys.argv[1:]\n"
            f"try:\n    {body}\nexcept ToolkitError as exc:\n    print(exc)")
    return subprocess.run([sys.executable, "-c", code, p, os.fspath(cli_model),
                           os.fspath(cli_corpus)], capture_output=True, env=child_env(),
                          timeout=20)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("what", WRITERS)
def test_writer_fifo_with_no_reader_is_an_error(what, tmp_path, cli_model, cli_corpus):
    """A blocking open of a FIFO with no reader waits forever, so the writer
    runs in a child with a time limit."""
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    proc = run_writer_child(what, os.fspath(fifo), cli_model, cli_corpus)
    assert proc.returncode == 0 and f"writing {what}".encode() in proc.stdout, proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
def test_output_fifo_with_no_reader_is_refused_before_any_work(command, tmp_path, cli_model, capsys):
    """The output is opened before the first image is read: with a manifest
    whose image is missing, the one error line names the FIFO, not the image."""
    manifest = tmp_path / "manifest.csv"
    rows = [f"missing.ppm,Scombridae,0,c,{split}" for split in ("train", "test")]
    manifest.write_text("\n".join([MANIFEST_HEADER, *rows]) + "\n")
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    argv = [command, "--manifest", os.fspath(manifest)]
    if command == "evaluate":
        argv += ["--model", os.fspath(cli_model), "--report", os.fspath(fifo)]
    else:
        argv += ["--out", os.fspath(fifo)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {fifo}: ") and err.count("\n") == 1, err
    assert "missing.ppm" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_output_fifo_with_a_reader_gets_the_whole_output(cli_corpus, tmp_path):
    """The FIFO opened before the work stays open until the output is written,
    so a reader that is there reads every byte and then the end."""
    assert main(["extract", "--manifest", os.fspath(cli_corpus),
                 "--out", os.fspath(tmp_path / "plain.csv")]) == 0
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:  # the CSV fits in the pipe's buffer, so the child ends without a read
        proc = subprocess.run(
            [sys.executable, "-m", "fishid.cli", "extract", "--manifest",
             os.fspath(cli_corpus), "--out", os.fspath(fifo)],
            capture_output=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        chunks = [os.read(reader, 1 << 20)]
        while chunks[-1]:
            chunks.append(os.read(reader, 1 << 20))
    finally:
        os.close(reader)
    assert b"".join(chunks) == (tmp_path / "plain.csv").read_bytes()


# The device tests write through a link in tmp_path: a writer that replaced
# the path instead of writing through it would, run as root, replace /dev/null
# or /dev/stdout itself.
@pytest.mark.parametrize("what", WRITERS)
def test_writer_accepts_dev_null(what, write, tmp_path):
    (tmp_path / "null").symlink_to(os.devnull)
    write(what, tmp_path / "null")
    assert (tmp_path / "null").is_symlink()


@pytest.mark.parametrize("what", WRITERS)
@pytest.mark.parametrize("target", ["directory", "nul"])
def test_writer_directory_or_nul_path_is_io_failure(what, target, write, tmp_path):
    (tmp_path / "kept").write_bytes(b"kept")
    with pytest.raises(IoFailure, match=f"writing {what}"):
        write(what, tmp_path if target == "directory" else tmp_path / "out\0put")
    assert [(f.name, f.read_bytes()) for f in tmp_path.iterdir()] == [("kept", b"kept")]


@pytest.mark.parametrize("what", WRITERS)
def test_writer_writes_through_a_symlink(what, write, tmp_path):
    write(what, tmp_path / "plain")
    (tmp_path / "target").write_bytes(b"old")
    (tmp_path / "link").symlink_to(tmp_path / "target")
    write(what, tmp_path / "link")
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "target").read_bytes() == (tmp_path / "plain").read_bytes()


@pytest.mark.parametrize("what", WRITERS)
def test_writer_keeps_the_permissions_of_the_file_it_replaces(what, write, tmp_path):
    (tmp_path / "out").write_bytes(b"old")
    (tmp_path / "out").chmod(0o600)
    write(what, tmp_path / "out")
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("what", WRITERS)
def test_writer_failure_keeps_the_old_file(what, write, tmp_path):
    """The bytes go to ``out.tmp`` first; when that cannot be written, ``out``
    keeps its bytes and nothing is left beside it."""
    (tmp_path / "out").write_bytes(b"old")
    (tmp_path / "out.tmp").mkdir()
    with pytest.raises(IoFailure, match=f"writing {what}"):
        write(what, tmp_path / "out")
    assert (tmp_path / "out").read_bytes() == b"old"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out", "out.tmp"]
    assert not any((tmp_path / "out.tmp").iterdir())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes /dev/stdout")
@pytest.mark.parametrize("what", WRITERS)
def test_writer_writes_dev_stdout_into_a_pipe(what, write, tmp_path, cli_model, cli_corpus):
    write(what, tmp_path / "plain")
    (tmp_path / "stdout").symlink_to("/dev/stdout")
    proc = run_writer_child(what, os.fspath(tmp_path / "stdout"), cli_model, cli_corpus)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plain").read_bytes() in proc.stdout  # evaluate also prints its table


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/stdin")
def test_classify_reads_an_image_from_a_pipe(cli_model, cli_corpus, capsys):
    entry = next(e for e in load_manifest(cli_corpus) if e.split == "test")
    image = os.path.join(os.path.dirname(cli_corpus), entry.path)
    assert main(["classify", "--model", os.fspath(cli_model), "--image", image]) == 0
    with open(image, "rb") as fh:
        data = fh.read()
    proc = subprocess.run(
        [sys.executable, "-m", "fishid.cli", "classify", "--model", os.fspath(cli_model),
         "--image", "/dev/stdin"],
        input=data, capture_output=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["evaluate", "classify"])
def test_closed_stdout_is_a_quiet_exit(command, cli_model, cli_corpus):
    """``fishid ... | head``: the reader closes the pipe, so the writes fail.
    Closing the read end before the child writes anything makes every write
    fail, with no race against the child's output buffering."""
    entry = next(e for e in load_manifest(cli_corpus) if e.split == "test")
    data = {"evaluate": ["--manifest", os.fspath(cli_corpus)],
            "classify": ["--image", os.path.join(os.path.dirname(cli_corpus), entry.path)]}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fishid.cli", command, "--model", os.fspath(cli_model),
         *data[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.fixture
def long_manifest(cli_corpus, tmp_path):
    """A manifest of 300 rows, whose feature CSV is several pipe buffers long,
    so a reader that leaves early finds the write still blocked."""
    root = os.path.dirname(cli_corpus)
    lines = cli_corpus.read_text().splitlines()
    rows = [os.path.join(root, line) for line in lines[1:]]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join([lines[0]] + rows * (300 // len(rows) + 1)) + "\n")
    return manifest


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes /dev/stdout")
def test_dev_stdout_into_head_is_a_quiet_exit(long_manifest):
    """``extract --out /dev/stdout | head -1``: ``head`` closes this process's
    own stdout, which is the quiet exit of ``fishid evaluate ... | head``."""
    cmd = (f"'{sys.executable}' -m fishid.cli extract --manifest '{long_manifest}' "
           "--out /dev/stdout | head -1")
    proc = subprocess.run(cmd, shell=True, capture_output=True, env=child_env(), timeout=120)
    assert proc.stdout.decode().startswith("f0,f1,")
    assert proc.stdout.count(b"\n") == 1
    assert proc.stderr == b""



@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_whose_reader_leaves_is_an_error_line(long_manifest, tmp_path):
    """An ``--out`` FIFO that is not this process's stdout: a reader that leaves
    early is a write failure, reported on one ``error:`` line."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # there before the writer opens
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fishid.cli", "extract", "--manifest",
             os.fspath(long_manifest), "--out", os.fspath(fifo)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        assert select.select([reader], [], [], 120)[0], "no bytes reached the FIFO"
        assert os.read(reader, 10).startswith(b"f0,")
    finally:
        os.close(reader)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert out == b""
    assert err.decode().startswith("error: writing features ") and err.count(b"\n") == 1, err

def test_config_file_supplies_flags(cli_workdir, capsys):
    out_a = cli_workdir / "cfg_corpus_a"
    out_b = cli_workdir / "cfg_corpus_b"
    cfg = cli_workdir / "gen.cfg"
    cfg.write_text(
        "# corpus settings\n"
        "seed=9\n"
        f"out={out_a}\n"
        "train-count=Istiophoridae=1,Poison fish=1\n"
        "test-count=Istiophoridae=1,Poison fish=1\n"
    )
    assert main(["gen-synth", "--config", os.fspath(cfg)]) == 0
    # command line wins over the config file
    assert main(["gen-synth", "--config", os.fspath(cfg), "--out", os.fspath(out_b)]) == 0
    a = sorted(os.listdir(out_a))
    b = sorted(os.listdir(out_b))
    assert a == b
    for name in a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_unknown_config_key_fails(cli_workdir, capsys):
    cfg = cli_workdir / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc = main(["gen-synth", "--config", os.fspath(cfg), "--out", os.fspath(cli_workdir / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_fails(capsys):
    rc = main(["train", "--manifest", "m.csv"])  # --out missing
    assert rc == 1
    assert "error:" in capsys.readouterr().err


COMMAND_KEYS = [(command, key) for command, (_, _, options) in _COMMANDS.items()
                for key, _, _, _ in options]


def flag(key):
    return "--" + key.replace("_", "-")


def required_argv(command, tmp_path, skip=None):
    """``command`` with every REQUIRED key but ``skip`` given by its flag."""
    argv = [command]
    for key, _, default, _ in _COMMANDS[command][2]:
        if default is REQUIRED and key != skip:
            argv += [flag(key), os.fspath(tmp_path / f"{key}.given")]
    return argv


@pytest.mark.parametrize("command, key", COMMAND_KEYS, ids=[f"{c}-{k}" for c, k in COMMAND_KEYS])
def test_flag_and_config_key_give_the_same_option(command, key, tmp_path):
    """A value given by --flag, by a dashed config key and by an underscored
    config key merges to the same options, and replaces the default."""
    typ = next(t for k, t, _, _ in _COMMANDS[command][2] if k == key)
    values = {str: [os.fspath(tmp_path / "value.txt")], int: ["3"], float: ["0.25"],
              list: ["Scombridae=1", "Poison fish=2"]}[typ]
    base = required_argv(command, tmp_path, skip=key)
    merged = [_merge_options(command, build_parser().parse_args(
        base + [arg for v in values for arg in (flag(key), v)]))]
    for spelling in (key.replace("_", "-"), key):
        cfg = tmp_path / f"{spelling}.cfg"
        cfg.write_text(f"{spelling}={','.join(values)}\n")
        merged.append(_merge_options(command, build_parser().parse_args(
            base + ["--config", os.fspath(cfg)])))
    assert merged[0][key] == (values if typ is list else typ(values[0]))
    assert merged[1] == merged[0] and merged[2] == merged[0]


REQUIRED_KEYS = [(c, k) for c, k in COMMAND_KEYS
                 if next(d for key, _, d, _ in _COMMANDS[c][2] if key == k) is REQUIRED]


@pytest.mark.parametrize("command, key", REQUIRED_KEYS, ids=[f"{c}-{k}" for c, k in REQUIRED_KEYS])
def test_each_missing_required_key_is_one_error_line(command, key, tmp_path, capsys):
    rc = main(required_argv(command, tmp_path, skip=key))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {command} requires {flag(key)}\n"


def test_required_keys_are_the_documented_ones():
    assert REQUIRED_KEYS == [
        ("gen-synth", "out"), ("extract", "manifest"), ("extract", "out"),
        ("train", "manifest"), ("train", "out"), ("evaluate", "model"),
        ("evaluate", "manifest"), ("classify", "model"), ("classify", "image"),
    ]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_text_reads_as_lf(newline, tmp_path, cli_corpus):
    manifest_lf = cli_corpus.read_text()
    config_lf = "# training settings\nmanifest = m.csv\n\nmax-epochs=7\nseed=3\n"
    for name, text in (("manifest.csv", manifest_lf), ("train.cfg", config_lf)):
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert read_text(tmp_path / name, "file") == text
    assert load_manifest(tmp_path / "manifest.csv") == load_manifest(cli_corpus)
    (tmp_path / "lf.cfg").write_text(config_lf)
    assert _read_config(tmp_path / "train.cfg") == _read_config(tmp_path / "lf.cfg") == {
        "manifest": "m.csv", "max_epochs": "7", "seed": "3"}


@pytest.mark.parametrize("what", ["manifest", "config"])
def test_text_that_is_not_utf8_is_a_malformed_row_naming_the_file(what, tmp_path, capsys):
    path = tmp_path / f"latin1.{what}"
    path.write_bytes(MANIFEST_HEADER.encode() + b"\ncaf\xe9,a,0,b,train\n")
    read = load_manifest if what == "manifest" else _read_config
    with pytest.raises(MalformedRow, match=re.escape(f"{what} {path} is not UTF-8: ")):
        read(path)
    if what == "config":
        rc = main(["train", "--config", os.fspath(path)])
        assert one_error_line(capsys, rc).startswith(f"error: config {path} is not UTF-8: ")


def test_evaluate_missing_model_fails(cli_corpus, capsys):
    rc = main(["evaluate", "--model", "/nonexistent.json", "--manifest", os.fspath(cli_corpus)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_is_reproducible(cli_workdir, cli_corpus, cli_model):
    again = cli_workdir / "model_again.json"
    rc = main([
        "train", "--manifest", os.fspath(cli_corpus), "--out", os.fspath(again),
        "--hidden", "8", "--max-epochs", "120", "--seed", "5",
    ])
    assert rc == 0
    assert again.read_bytes() == cli_model.read_bytes()


def test_train_defaults_are_the_library_recipe(small_corpus, tmp_path):
    manifest, _ = small_corpus
    cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["train", "--manifest", manifest, "--out", os.fspath(cli_out)]) == 0
    save_bundle(train_bundle(manifest), lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()


@pytest.mark.parametrize("key, value", [
    ("eta", 0.25), ("alpha", 0.5), ("epsilon", 1e-4), ("max_epochs", 40), ("seed", 3),
    ("hidden", 16),
])
def test_each_train_flag_reaches_train_bundle(key, value, tmp_path, monkeypatch):
    class Captured(Exception):
        pass

    def capture(manifest, train_cfg, hidden):
        raise Captured(train_cfg, hidden)

    monkeypatch.setattr(cli, "train_bundle", capture)
    out = os.fspath(tmp_path / "m.json")
    with pytest.raises(Captured) as caught:
        main(["train", "--manifest", "m.csv", "--out", out, flag(key), str(value)])
    train_cfg, hidden = caught.value.args
    if key == "hidden":
        assert (train_cfg, hidden) == (pipeline.DEFAULT_TRAIN, value)
    else:
        want = dataclasses.replace(pipeline.DEFAULT_TRAIN, **{key: value})
        assert (train_cfg, hidden) == (want, pipeline.DEFAULT_HIDDEN)
        assert want != pipeline.DEFAULT_TRAIN
    assert train_cfg.init_scale == pipeline.PIPELINE_INIT_SCALE


def test_invalid_model_config_is_an_error_line(cli_model, cli_corpus, cli_workdir, capsys):
    doc = json.loads(cli_model.read_text())
    doc["segment"]["bands"] = 0
    bad = cli_workdir / "bad_model.json"
    bad.write_text(json.dumps(doc))
    entry = next(e for e in load_manifest(cli_corpus) if e.split == "test")
    image = os.path.join(os.path.dirname(cli_corpus), entry.path)
    rc = main(["classify", "--model", os.fspath(bad), "--image", image])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err



def one_error_line(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "name, content, named",
    [
        ("missing.cfg", None, "missing.cfg"),
        ("latin1.cfg", b"out=caf\xe9\n", "latin1.cfg"),
        ("bad_int.cfg", b"hidden=abc\n", "'hidden'"),
        ("bad_float.cfg", b"eta=fast\n", "'eta'"),
    ],
)
def test_config_errors_are_error_lines(cli_workdir, capsys, name, content, named):
    cfg = cli_workdir / "configs" / name
    if content is not None:
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_bytes(content)
    rc = main(["train", "--config", os.fspath(cfg), "--manifest", "m.csv", "--out", "o.json"])
    assert named in one_error_line(capsys, rc)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["train", "--eta", "-1"], "eta"),
        (["train", "--eta", "nan"], "eta"),
        (["train", "--eta", "inf"], "eta"),
        (["train", "--alpha", "1"], "alpha"),
        (["train", "--epsilon", "0"], "epsilon"),
        (["train", "--epsilon", "nan"], "epsilon"),
        (["train", "--max-epochs", "0"], "max_epochs"),
        (["train", "--seed", "-1"], "seed"),
        (["gen-synth", "--seed", "-1"], "seed"),
        (["gen-synth", "--train-count", "scombridae=1"], "'scombridae'"),
    ],
    ids=["eta", "eta-nan", "eta-inf", "alpha", "epsilon", "epsilon-nan", "max-epochs",
         "train-seed", "seed", "family-name"],
)
def test_invalid_settings_are_error_lines(cli_workdir, capsys, argv, named):
    out = os.fspath(cli_workdir / "never-written")
    if argv[0] == "train":
        argv = argv + ["--manifest", "m.csv"]
    assert named in one_error_line(capsys, main(argv + ["--out", out]))
    assert not os.path.exists(out)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_ascii_digit_count_is_an_error_line(cli_workdir, capsys, source):
    out = cli_workdir / "never-written-corpus"
    argv = ["gen-synth", "--out", os.fspath(out)]
    if source == "flag":
        argv += ["--test-count", "Scombridae=\u00b2"]
    else:
        cfg = cli_workdir / "superscript.cfg"
        cfg.write_text("test-count=Scombridae=\u00b2\n", encoding="utf-8")
        argv += ["--config", os.fspath(cfg)]
    assert "FAMILY=N" in one_error_line(capsys, main(argv))
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_count_past_int_digit_limit_is_an_error_line(cli_workdir, capsys, source):
    # Python parses at most 4300 digits into an int
    out = cli_workdir / "never-written-corpus"
    pair = "Scombridae=" + "9" * 5000
    argv = ["gen-synth", "--out", os.fspath(out)]
    if source == "flag":
        argv += ["--train-count", pair]
    else:
        cfg = cli_workdir / "huge-count.cfg"
        cfg.write_text(f"train-count={pair}\n", encoding="utf-8")
        argv += ["--config", os.fspath(cfg)]
    assert "5000 digits" in one_error_line(capsys, main(argv))
    assert not out.exists()


def _model_with_tree_feature(cli_model, dest, literal):
    doc = json.loads(cli_model.read_text())
    node = next(n for n in doc["tree"]["nodes"] if "f" in n)
    node["f"] = "FEATURE"
    dest.write_text(json.dumps(doc).replace('"FEATURE"', literal))
    return dest


@pytest.mark.parametrize(
    "case",
    ["missing-manifest", "undecodable-manifest", "undecodable-model",
     "overflowing-model", "unwritable-report", "unwritable-features"],
)
def test_file_errors_are_error_lines(case, cli_workdir, cli_corpus, cli_model, capsys):
    missing_dir = cli_workdir / "no-such-dir"
    junk = cli_workdir / "junk.bin"
    junk.write_bytes(b"\xff\xfe")
    overflow = _model_with_tree_feature(cli_model, cli_workdir / "overflow.json", "1e999")
    manifest, model = os.fspath(cli_corpus), os.fspath(cli_model)
    unused = os.fspath(cli_workdir / "unused.json")
    argv = {
        "missing-manifest": ["train", "--manifest", os.fspath(missing_dir / "m.csv"),
                             "--out", unused],
        "undecodable-manifest": ["train", "--manifest", os.fspath(junk), "--out", unused],
        "undecodable-model": ["evaluate", "--model", os.fspath(junk), "--manifest", manifest],
        "overflowing-model": ["evaluate", "--model", os.fspath(overflow), "--manifest", manifest],
        "unwritable-report": ["evaluate", "--model", model, "--manifest", manifest,
                              "--report", os.fspath(missing_dir / "r.json")],
        "unwritable-features": ["extract", "--manifest", manifest,
                                "--out", os.fspath(missing_dir / "f.csv")],
    }[case]
    one_error_line(capsys, main(argv))


@pytest.mark.parametrize("command", ["train", "evaluate", "extract"])
def test_missing_output_dir_fails_before_any_image_is_analyzed(
    command, cli_workdir, cli_corpus, cli_model, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("an image was analyzed")

    monkeypatch.setattr(pipeline, "analyze_image", refuse)
    target = cli_workdir / "no-such-dir" / "out.file"
    manifest = ["--manifest", os.fspath(cli_corpus)]
    argv = {
        "train": ["train", *manifest, "--out", os.fspath(target)],
        "evaluate": ["evaluate", "--model", os.fspath(cli_model), *manifest,
                     "--report", os.fspath(target)],
        "extract": ["extract", *manifest, "--out", os.fspath(target)],
    }[command]
    assert "no-such-dir" in one_error_line(capsys, main(argv))
    assert not target.parent.exists()


@pytest.mark.filterwarnings("ignore:hidden layer:UserWarning")
def test_bad_hidden_fails_before_any_image_is_analyzed(
    cli_workdir, cli_corpus, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("an image was analyzed")

    monkeypatch.setattr(pipeline, "analyze_image", refuse)
    out = cli_workdir / "never-written.json"
    # 10**15 hidden units ask for 341 PiB, so the allocation fails at once
    for hidden, message in [("0", "layer sizes"), (str(10**15), "allocate")]:
        argv = ["train", "--manifest", os.fspath(cli_corpus), "--out", os.fspath(out),
                "--hidden", hidden]
        assert message in one_error_line(capsys, main(argv))
        assert not out.exists()


def test_warning_is_one_warning_line(cli_workdir, cli_corpus, capsys):
    out = cli_workdir / "wide.json"
    argv = ["train", "--manifest", os.fspath(cli_corpus), "--out", os.fspath(out),
            "--hidden", "142", "--max-epochs", "5"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err == ("warning: hidden layer (142) exceeds three times the input layer (47);"
                   " generalization tends to suffer\n")
