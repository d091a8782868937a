import json
import os
import subprocess
import sys

import pytest

import fishid
from fishid import pipeline
from fishid.cli import main
from fishid.imageio import load_manifest
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



@pytest.mark.parametrize("command", ["evaluate", "classify"])
def test_closed_stdout_is_a_quiet_exit(command, cli_model, cli_corpus):
    """``fishid ... | head``: the reader closes the pipe, so the writes fail.
    Closing the read end before the child writes anything makes every write
    fail, with no race against the child's output buffering."""
    entry = next(e for e in load_manifest(cli_corpus) if e.split == "test")
    data = {"evaluate": ["--manifest", os.fspath(cli_corpus)],
            "classify": ["--image", os.path.join(os.path.dirname(cli_corpus), entry.path)]}
    path = [os.path.dirname(os.path.dirname(fishid.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fishid.cli", command, "--model", os.fspath(cli_model),
         *data[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


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
        (["train", "--alpha", "1"], "alpha"),
        (["train", "--epsilon", "0"], "epsilon"),
        (["train", "--epsilon", "nan"], "epsilon"),
        (["train", "--max-epochs", "0"], "max_epochs"),
        (["train", "--seed", "-1"], "seed"),
        (["gen-synth", "--seed", "-1"], "seed"),
        (["gen-synth", "--train-count", "scombridae=1"], "'scombridae'"),
    ],
    ids=["eta", "eta-nan", "alpha", "epsilon", "epsilon-nan", "max-epochs", "train-seed",
         "seed", "family-name"],
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
