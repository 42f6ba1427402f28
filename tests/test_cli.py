import struct

import numpy as np
import pytest

from linkgcn import dataset, merge, pipeline, trainer
from linkgcn.cli import main
from linkgcn.ips import IpsConfig, build_block
from linkgcn.knn import build_knn


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out_dir, seed=0, ids=4, per_id="10:10", dim=8):
    return ["synth", "--ids", str(ids), "--per-id", per_id, "--dim", str(dim),
            "--noise", "0.05:0.05", "--seed", str(seed), "--out-dir", str(out_dir)]


@pytest.fixture()
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, *synth_args(out))
    assert code == 0
    return out


@pytest.fixture()
def trained_dir(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train",
                     "--features", str(synth_dir / "features.fmat"),
                     "--labels", str(synth_dir / "labels.lbls"),
                     "--epochs", "3", "--train-k1", "10", "--train-k2", "2",
                     "--train-u", "3", "--out-dir", str(out))
    assert code == 0
    return out


# ------------------------------------------------------------------ synth

def test_synth_writes_files_and_reports(synth_dir, capsys):
    fs = dataset.load_features(synth_dir / "features.fmat")
    labels = dataset.load_labels(synth_dir / "labels.lbls")
    assert fs.n == 40 and fs.dim == 8
    assert labels.shape == (40,)


def test_synth_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *synth_args(a, seed=3))[0] == 0
    assert run(capsys, *synth_args(b, seed=3))[0] == 0
    assert (a / "features.fmat").read_bytes() == (b / "features.fmat").read_bytes()
    assert (a / "labels.lbls").read_bytes() == (b / "labels.lbls").read_bytes()


def test_synth_seed_changes_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *synth_args(a, seed=1))
    run(capsys, *synth_args(b, seed=2))
    assert (a / "features.fmat").read_bytes() != (b / "features.fmat").read_bytes()


def test_synth_inverted_range_exits(tmp_path):
    with pytest.raises(SystemExit, match="inverted"):
        main(synth_args(tmp_path, per_id="10:5"))


# ------------------------------------------------------------------ train

def test_train_writes_model_and_curve(trained_dir):
    assert (trained_dir / "model.gcnm").exists()
    lines = (trained_dir / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert len(lines) == 4


def test_train_missing_labels_exits(synth_dir, tmp_path):
    with pytest.raises(SystemExit, match="--labels"):
        main(["train", "--features", str(synth_dir / "features.fmat"),
              "--out-dir", str(tmp_path / "x")])


def test_train_rejects_workers(synth_dir, tmp_path, capsys):
    # --workers only exists on `cluster`, the one command it affects
    with pytest.raises(SystemExit) as exc:
        main(["train", "--features", str(synth_dir / "features.fmat"),
              "--labels", str(synth_dir / "labels.lbls"), "--workers", "2",
              "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("config_text", ["aggregator=foo\n", "hidden_dims=\n", "lr=nan\n",
                                         "lr=inf\n", "lr=-1\n", "momentum=1\n",
                                         "lr_decay=0\n"])
def test_train_bad_model_config_fails_before_knn(synth_dir, tmp_path, capsys, monkeypatch,
                                                 config_text):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad config reached training")

    monkeypatch.setattr(trainer, "build_knn", no_work)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_text)
    out = tmp_path / "x"
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(synth_dir / "labels.lbls"), "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--epochs", "--batch-size"])
def test_train_rejects_nonpositive_counts(synth_dir, tmp_path, capsys, flag):
    out = tmp_path / "x"
    code, _, err = run(capsys, "train", "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(synth_dir / "labels.lbls"), flag, "0",
                       "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err
    assert not out.exists()


def test_train_bad_feature_path_returns_one(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--features", str(tmp_path / "nope.fmat"),
                       "--labels", str(tmp_path / "nope.lbls"),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------- cluster

def cluster_args(synth_dir, trained_dir, out, extra=()):
    return ["cluster", "--features", str(synth_dir / "features.fmat"),
            "--checkpoint", str(trained_dir / "model.gcnm"),
            "--test-k1", "10", "--test-k2", "2", "--test-u", "3",
            "--out-dir", str(out), *extra]


def test_cluster_outputs(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "c"
    code, stdout, _ = run(capsys, *cluster_args(synth_dir, trained_dir, out))
    assert code == 0
    assert "clusters=" in stdout
    assignment = merge.load_partition(out / "partition.tsv")
    assert assignment.shape == (40,)
    assert (out / "edges.tsv").exists()
    assert "merge" in (out / "timing.txt").read_text()


def test_cluster_worker_count_invariant(synth_dir, trained_dir, tmp_path, capsys):
    outs = []
    for w in (1, 4):
        out = tmp_path / f"w{w}"
        code, _, _ = run(capsys, *cluster_args(synth_dir, trained_dir, out,
                                               extra=("--workers", str(w))))
        assert code == 0
        outs.append((out / "partition.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_cluster_bfs_merge_mode(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "bfs"
    code, _, _ = run(capsys, *cluster_args(synth_dir, trained_dir, out,
                                           extra=("--merge", "bfs", "--tau", "0.7")))
    assert code == 0
    assert merge.load_partition(out / "partition.tsv").shape == (40,)


# ------------------------------------------------------------------- eval

@pytest.mark.parametrize("config_text, flags", [
    ("merge=bfss\n", ()), ("", ("--merge", "bfs", "--tau", "1.5"))])
def test_cluster_bad_merge_settings_fail_before_knn(synth_dir, trained_dir, tmp_path,
                                                    capsys, monkeypatch, config_text,
                                                    flags):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad config reached the pipeline")

    monkeypatch.setattr(pipeline, "build_knn", no_work)
    monkeypatch.setattr(pipeline, "predict_links", no_work)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_text)
    out = tmp_path / "c"
    code, _, err = run(capsys, *cluster_args(synth_dir, trained_dir, out,
                                             ("--config", str(cfg), *flags)))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cluster_one_instance(synth_dir, trained_dir, tmp_path, capsys):
    one = tmp_path / "one.fmat"
    fs = dataset.load_features(synth_dir / "features.fmat")
    dataset.save_features(dataset.FeatureSet(features=fs.features[:1]), one)
    out = tmp_path / "c"
    code, stdout, err = run(capsys, "cluster", "--features", str(one),
                            "--checkpoint", str(trained_dir / "model.gcnm"),
                            "--out-dir", str(out))
    assert code == 0, err
    assert "clusters=1" in stdout
    assert (out / "partition.tsv").read_text() == "0\t0\n"
    assert (out / "edges.tsv").read_text() == ""


def test_eval_non_ascii_partition_exits_one_line(synth_dir, tmp_path, capsys):
    bad = tmp_path / "p.tsv"
    bad.write_bytes(b"0\t0\n1\t\xff\n")
    code, _, err = run(capsys, "eval", "--partition", str(bad),
                       "--labels", str(synth_dir / "labels.lbls"))
    assert code == 1
    assert err.startswith(f"error: {bad}:2: ") and err.count("\n") == 1


def test_eval_table_and_singletons(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "c"
    run(capsys, *cluster_args(synth_dir, trained_dir, out))
    code, stdout, _ = run(capsys, "eval",
                          "--partition", str(out / "partition.tsv"),
                          "--labels", str(synth_dir / "labels.lbls"),
                          "--drop-singletons")
    assert code == 0
    assert "BCubed F" in stdout


def test_eval_distractor_flag(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "c"
    run(capsys, *cluster_args(synth_dir, trained_dir, out))
    code, stdout, _ = run(capsys, "eval",
                          "--partition", str(out / "partition.tsv"),
                          "--labels", str(synth_dir / "labels.lbls"),
                          "--ignore-distractors")
    assert code == 0


def test_malformed_inputs_exit_one_line(synth_dir, trained_dir, tmp_path, capsys):
    bad_partition = tmp_path / "p.tsv"
    bad_partition.write_text("0\t0\n5\t1\n")
    code, _, err = run(capsys, "eval", "--partition", str(bad_partition),
                       "--labels", str(synth_dir / "labels.lbls"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1

    bad_model = tmp_path / "m.gcnm"
    bad_model.write_bytes((trained_dir / "model.gcnm").read_bytes() + b"\0")
    code, _, err = run(capsys, "cluster", "--features", str(synth_dir / "features.fmat"),
                       "--checkpoint", str(bad_model), "--out-dir", str(tmp_path / "c"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_oversized_or_padded_inputs_exit_one_line(synth_dir, tmp_path, capsys):
    huge = tmp_path / "huge.fmat"
    huge.write_bytes(b"FMAT" + struct.pack("<IQI", 1, 2**40, 4))
    padded = tmp_path / "padded.fmat"
    padded.write_bytes((synth_dir / "features.fmat").read_bytes() + bytes(12))
    for features in (huge, padded):
        code, _, err = run(capsys, "baseline", "--features", str(features),
                           "--tau-sim", "0.8", "--out-dir", str(tmp_path / "b"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    huge_labels = tmp_path / "huge.lbls"
    huge_labels.write_bytes(b"LBLS" + struct.pack("<IQ", 1, 2**60))
    code, _, err = run(capsys, "upper-bound", "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(huge_labels))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


# ------------------------------------------------------------ upper-bound

def test_upper_bound_table(synth_dir, capsys):
    code, stdout, _ = run(capsys, "upper-bound",
                          "--features", str(synth_dir / "features.fmat"),
                          "--labels", str(synth_dir / "labels.lbls"),
                          "--k-list", "1,2,4")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "k\tF\tNMI"
    assert len(lines) == 4


def test_upper_bound_clamps_k_list(synth_dir, capsys):
    # N = 40: k = 64 is clamped to N - 1, as `cluster` clamps its regime
    with pytest.warns(UserWarning, match="clamped to N-1=39"):
        code, stdout, err = run(capsys, "upper-bound",
                                "--features", str(synth_dir / "features.fmat"),
                                "--labels", str(synth_dir / "labels.lbls"),
                                "--k-list", "1,64")
    assert code == 0, err
    lines = stdout.strip().splitlines()
    assert lines[0] == "k\tF\tNMI"
    assert [line.split("\t")[0] for line in lines[1:]] == ["1", "39"]


# ------------------------------------------------------------------ toy2d

def test_toy2d_csv(tmp_path, capsys):
    out = tmp_path / "t"
    code, stdout, _ = run(capsys, "toy2d", "--ids", "3", "--per-id", "8",
                          "--steps", "4", "--out-dir", str(out))
    assert code == 0
    lines = (out / "toy2d.csv").read_text().splitlines()
    assert lines[0] == "iteration,layer,node,x,y"
    assert len(lines) > 4
    # the command's defaults: 2-D synth set at seed 0, regime (k1=8, 2, u=3)
    fs = dataset.synth_generate(dataset.SynthSpec(
        num_identities=3, samples_per_identity=(8, 8), dim=2, center_spread=1.0,
        noise_scale=(0.15, 0.15), seed=0))
    cfg = IpsConfig(h=2, k_per_hop=(8, 2), u=3)
    ips = build_block([0], fs, build_knn(fs, cfg.table_k), cfg)[0]
    rows = trainer.toy2d_trace(fs, ips, steps=4, seed=0)
    assert lines[1:] == [f"{it},{layer},{node},{x:.6f},{y:.6f}"
                         for it, layer, node, x, y in rows]


# --------------------------------------------------------------- baseline

def test_baseline_partition(synth_dir, tmp_path, capsys):
    # the default --k 80 exceeds N - 1 = 39 and is clamped
    out = tmp_path / "b"
    with pytest.warns(UserWarning, match="clamped to N-1=39"):
        code, stdout, err = run(capsys, "baseline",
                                "--features", str(synth_dir / "features.fmat"),
                                "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 0, err
    assert merge.load_partition(out / "baseline_partition.tsv").shape == (40,)


def test_baseline_one_instance(synth_dir, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a one-instance collection reached the kNN search")

    monkeypatch.setattr(pipeline, "build_knn", no_work)
    one = tmp_path / "one.fmat"
    fs = dataset.load_features(synth_dir / "features.fmat")
    dataset.save_features(dataset.FeatureSet(features=fs.features[:1]), one)
    out = tmp_path / "b"
    with pytest.warns(UserWarning, match="clamped"):
        code, stdout, err = run(capsys, "baseline", "--features", str(one),
                                "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 0, err
    assert "clusters=1" in stdout
    assert (out / "baseline_partition.tsv").read_text() == "0\t0\n"


@pytest.mark.parametrize("tau_sim", ["nan", "2", "-5"])
def test_baseline_bad_tau_sim_fails_before_knn(synth_dir, tmp_path, capsys, monkeypatch,
                                               tau_sim):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad --tau-sim reached the kNN search")

    monkeypatch.setattr(pipeline, "build_knn", no_work)
    out = tmp_path / "b"
    code, _, err = run(capsys, "baseline",
                       "--features", str(synth_dir / "features.fmat"),
                       "--k", "10", "--tau-sim", tau_sim, "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error: tau_sim=") and err.count("\n") == 1
    assert not (out / "baseline_partition.tsv").exists()


# ------------------------------------------------------------------- misc

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_config_file_precedence(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("epochs=2\ntrain_k1=10\ntrain_k2=2\ntrain_u=3\n")
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--config", str(cfg),
                     "--features", str(synth_dir / "features.fmat"),
                     "--labels", str(synth_dir / "labels.lbls"),
                     "--out-dir", str(out))
    assert code == 0
    assert len((out / "loss.csv").read_text().splitlines()) == 3
