import argparse
import dataclasses
import struct

import numpy as np
import pytest

from linkgcn import cli, dataset, gcn, knn, merge, pipeline, trainer
from linkgcn.cli import build_parser, main
from linkgcn.config import PipelineConfig, make_config, seed_stream
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


def test_train_reads_mean_row_normalize_from_the_config_file(synth_dir, tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("mean_row_normalize=true\nepochs=1\ntrain_k1=10\ntrain_k2=2\n")
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--config", str(config),
                       "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(synth_dir / "labels.lbls"), "--out-dir", str(out))
    assert code == 0, err
    assert gcn.load_model(out / "model.gcnm").mean_row_normalized


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
                                         "lr_decay=0\n", "hidden_dims=8,0\n",
                                         "attention_hidden=0\n"])
def test_train_bad_model_config_fails_before_knn(synth_dir, tmp_path, capsys, monkeypatch,
                                                 config_text):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad config reached training")

    # the whole config is checked when it is made, before any file is read
    monkeypatch.setattr(dataset, "load_features", no_work)
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


def test_train_divergence_is_one_stderr_line(synth_dir, tmp_path, capsys):
    # without the regime flags the clamp to N - 1 would add a warning line
    out = tmp_path / "x"
    code, _, err = run(capsys, "train", "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(synth_dir / "labels.lbls"), "--lr", "1e4",
                       "--train-k1", "10", "--train-k2", "2", "--train-u", "3",
                       "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error: training diverged") and err.count("\n") == 1
    assert not out.exists()


def test_train_clamp_is_one_warning_line(synth_dir, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--features", str(synth_dir / "features.fmat"),
                       "--labels", str(synth_dir / "labels.lbls"), "--epochs", "1",
                       "--out-dir", str(tmp_path / "x"))
    assert code == 0, err
    assert err == "warning: kNN width clamped to N-1=39: k 200 -> 39\n"


def subcommand_parsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def config_flag_value(action, default):
    """Command-line tokens for action giving a value other than default, and
    that value."""
    if action.nargs == 0:  # a store_false switch such as --no-normalize
        return [action.option_strings[0]], action.const
    if action.choices:
        value = next(c for c in action.choices if c != default)
    else:
        value = {int: 7, float: 0.25}[action.type]
    assert value != default
    return [action.option_strings[0], str(value)], value


@pytest.mark.parametrize("command, required", [
    ("train", ["--features", "f", "--labels", "l"]),
    ("cluster", ["--features", "f", "--checkpoint", "m"]),
    ("baseline", ["--features", "f", "--tau-sim", "0.5"]),
    ("upper-bound", ["--features", "f", "--labels", "l"])])
def test_config_flags_reach_the_config(command, required, monkeypatch):
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    defaults = PipelineConfig()
    argv, expect = [command, *required], {}
    for action in subcommand_parsers()[command]._actions:
        if action.dest in fields:
            tokens, expect[action.dest] = config_flag_value(
                action, getattr(defaults, action.dest))
            argv += tokens
    assert "normalize" in expect
    assert ("seed" in expect) == (command == "train")  # only training draws random numbers
    made = []

    def capture(*args):
        made.append(make_config(*args))
        raise ValueError("stop before any work")

    monkeypatch.setattr(cli, "make_config", capture)
    assert main(argv) == 1
    assert {name: getattr(made[0], name) for name in expect} == expect


@pytest.mark.parametrize("command, required", [
    ("cluster", ["--features", "f", "--checkpoint", "m"]),
    ("baseline", ["--features", "f", "--tau-sim", "0.5"]),
    ("upper-bound", ["--features", "f", "--labels", "l"])])
def test_deterministic_commands_reject_seed(command, required, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_only_commands_that_draw_random_numbers_take_seed():
    takes_seed = {name for name, sub in subcommand_parsers().items()
                  if any("--seed" in action.option_strings for action in sub._actions)}
    assert takes_seed == {"synth", "train", "toy2d"}


@pytest.mark.parametrize("command, extra", [
    ("train", ["--labels", "labels.lbls", "--epochs", "1", "--train-k1", "10",
               "--train-k2", "2", "--train-u", "3"]),
    ("baseline", ["--tau-sim", "0.8", "--k", "10"]),
    ("upper-bound", ["--labels", "labels.lbls", "--k-list", "1,8"])])
@pytest.mark.parametrize("config_text, workers", [(None, 0), ("workers=1\n", 1)],
                         ids=["no-config", "workers-1"])
def test_config_workers_reach_the_knn_stage(synth_dir, tmp_path, capsys, monkeypatch,
                                            command, extra, config_text, workers):
    seen = []

    def recording_build_knn(fs, k, workers=0):
        seen.append(workers)
        return build_knn(fs, k, workers=workers)

    monkeypatch.setattr(trainer, "build_knn", recording_build_knn)
    monkeypatch.setattr(pipeline, "build_knn", recording_build_knn)
    argv = [command, "--features", str(synth_dir / "features.fmat")]
    argv += [str(synth_dir / tok) if tok.endswith(".lbls") else tok for tok in extra]
    if command != "upper-bound":
        argv += ["--out-dir", str(tmp_path / "out")]
    if config_text is not None:
        (tmp_path / "cfg.txt").write_text(config_text)
        argv += ["--config", str(tmp_path / "cfg.txt")]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert seen == [workers]


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


def test_cluster_clamp_is_one_warning_line(synth_dir, trained_dir, tmp_path, capsys):
    code, _, err = run(capsys, "cluster", "--features", str(synth_dir / "features.fmat"),
                       "--checkpoint", str(trained_dir / "model.gcnm"),
                       "--out-dir", str(tmp_path / "c"))
    assert code == 0, err
    assert err == "warning: kNN width clamped to N-1=39: k 80 -> 39\n"


def test_cluster_bfs_merge_mode(synth_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "bfs"
    code, _, _ = run(capsys, *cluster_args(synth_dir, trained_dir, out,
                                           extra=("--merge", "bfs", "--tau", "0.7")))
    assert code == 0
    assert merge.load_partition(out / "partition.tsv").shape == (40,)


# ------------------------------------------------------------------- eval

@pytest.mark.parametrize("config_text, flags", [
    ("merge=bfss\n", ()), ("", ("--merge", "bfs", "--tau", "1.5")), ("", ("--workers", "-1")),
    ("", ("--dtau", "inf")), ("", ("--max-size", "0")), ("", ("--tau0", "1")),
    ("", ("--dtau", "1e-9"))])
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
    assert err == ""
    assert "clusters=1" in stdout
    assert (out / "partition.tsv").read_text() == "0\t0\n"
    assert (out / "edges.tsv").read_text() == ""


def test_cluster_non_finite_likelihoods_exit_one_line(tmp_path, capsys):
    # features of magnitude ~1e38, not normalized, overflow float32 when the
    # pivot's feature is subtracted, and the likelihoods come out NaN
    rng = np.random.default_rng(0)
    big = tmp_path / "big.fmat"
    dataset.save_features(dataset.FeatureSet(
        features=(rng.uniform(-3.0, 3.0, (30, 8)) * 1e38).astype(np.float32)), big)
    model = tmp_path / "model.gcnm"
    gcn.save_model(gcn.init_model([8, 8, 8], "mean", seed_stream(0, "init")), model)
    out = tmp_path / "c"
    code, _, err = run(capsys, "cluster", "--features", str(big), "--checkpoint", str(model),
                       "--no-normalize", "--out-dir", str(out))
    assert code == 1
    assert err == ("warning: kNN width clamped to N-1=29: k 80 -> 29\n"
                   "error: pivot 0 has a non-finite link likelihood\n")
    assert not out.exists()


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
                          "--distractors", "ignore")
    assert code == 0


def test_eval_drop_singletons_with_huge_cluster_labels(synth_dir, tmp_path, capsys):
    # 40 instances: three clusters of 10 with labels near 5e12, then 10
    # singletons; counting sizes by label would need terabytes
    part = tmp_path / "p.tsv"
    big = 5_000_000_000_000
    part.write_text("".join(f"{i}\t{big + (i // 10 if i < 30 else i)}\n" for i in range(40)))
    code, stdout, err = run(capsys, "eval", "--partition", str(part),
                            "--labels", str(synth_dir / "labels.lbls"),
                            "--distractors", "unique", "--drop-singletons")
    assert (code, err) == (0, "")
    assert "after dropping singletons (25.0% removed):" in stdout
    assert stdout.count("BCubed F") == 2
    assert stdout.rstrip().endswith("evaluated  30")


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


def test_eval_labels_below_distractor_exit_one_line(synth_dir, tmp_path, capsys):
    # "keep" scores distractors as one class, so -2 is not a second kind of distractor
    labels, part = tmp_path / "l.lbls", tmp_path / "p.tsv"
    raw = np.array([0, 0, 1, 1, -1, -2], "<i8")  # written raw: save_labels refuses -2
    labels.write_bytes(dataset.LBLS_MAGIC + struct.pack("<IQ", 1, raw.size) + raw.tobytes())
    part.write_text("".join(f"{i}\t{c}\n" for i, c in enumerate([0, 0, 1, 1, 2, 2])))
    code, out, err = run(capsys, "eval", "--partition", str(part), "--labels", str(labels))
    assert (code, out) == (1, "")
    assert err == f"error: {labels}: label -2 at index 5 is below -1\n"


def test_cluster_with_feature_file_as_checkpoint_exits_one_line(synth_dir, tmp_path, capsys):
    features = str(synth_dir / "features.fmat")
    code, _, err = run(capsys, "cluster", "--features", features, "--checkpoint", features,
                       "--out-dir", str(tmp_path / "c"))
    assert code == 1
    assert err.startswith("error:") and "bad magic" in err and err.count("\n") == 1


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
    code, stdout, err = run(capsys, "upper-bound",
                            "--features", str(synth_dir / "features.fmat"),
                            "--labels", str(synth_dir / "labels.lbls"),
                            "--k-list", "1,64")
    assert code == 0, err
    assert err == "warning: kNN width clamped to N-1=39: k 64 -> 39\n"
    lines = stdout.strip().splitlines()
    assert lines[0] == "k\tF\tNMI"
    assert [line.split("\t")[0] for line in lines[1:]] == ["1", "39"]


def test_upper_bound_one_instance(synth_dir, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a one-instance collection reached the kNN search")

    monkeypatch.setattr(knn, "topk_cosine", no_work)
    one = tmp_path / "one"
    fs = dataset.load_features(synth_dir / "features.fmat")
    dataset.save_features(dataset.FeatureSet(features=fs.features[:1]), one.with_suffix(".fmat"))
    labels = dataset.load_labels(synth_dir / "labels.lbls")
    dataset.save_labels(labels[:1], one.with_suffix(".lbls"))
    code, stdout, err = run(capsys, "upper-bound", "--features", str(one.with_suffix(".fmat")),
                            "--labels", str(one.with_suffix(".lbls")), "--k-list", "1,4")
    assert code == 0, err
    assert err == ""
    # the one-cluster partition of one instance scores F = NMI = 1 at every k
    assert stdout.splitlines() == ["k\tF\tNMI", "0\t1.0000\t1.0000", "0\t1.0000\t1.0000"]


@pytest.mark.parametrize("k_list", ["-2,3", "3,,4", "0", "2,x"])
def test_upper_bound_bad_k_list_fails_before_reading(synth_dir, capsys, monkeypatch, k_list):
    def no_read(*args, **kwargs):
        raise AssertionError("a bad --k-list reached the feature file")

    monkeypatch.setattr(dataset, "load_features", no_read)
    code, stdout, err = run(capsys, "upper-bound",
                            "--features", str(synth_dir / "features.fmat"),
                            "--labels", str(synth_dir / "labels.lbls"),
                            f"--k-list={k_list}")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: --k-list") and err.count("\n") == 1


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


@pytest.mark.parametrize("steps", ["-3", "0"])
def test_toy2d_bad_steps_fail_before_the_draw(tmp_path, capsys, monkeypatch, steps):
    def no_draw(*args, **kwargs):
        raise AssertionError("a bad --steps reached the synth draw")

    monkeypatch.setattr(dataset, "synth_generate", no_draw)
    out = tmp_path / "t"
    code, stdout, err = run(capsys, "toy2d", "--steps", steps, "--out-dir", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"error: --steps must be an integer >= 1, got {steps}\n"
    assert not out.exists()


def test_toy2d_one_instance_exits_one_line(tmp_path, capsys):
    out = tmp_path / "t"
    code, _, err = run(capsys, "toy2d", "--ids", "1", "--per-id", "1", "--out-dir", str(out))
    assert code == 1
    assert err == "error: a subgraph needs at least 2 instances, got N=1\n"
    assert not out.exists()


# --------------------------------------------------------------- baseline

def test_baseline_partition(synth_dir, tmp_path, capsys):
    # the default --k 80 exceeds N - 1 = 39 and is clamped
    out = tmp_path / "b"
    code, stdout, err = run(capsys, "baseline",
                            "--features", str(synth_dir / "features.fmat"),
                            "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 0, err
    assert err == "warning: kNN width clamped to N-1=39: k 80 -> 39\n"
    assert merge.load_partition(out / "baseline_partition.tsv").shape == (40,)


def test_baseline_one_instance(synth_dir, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a one-instance collection reached the kNN search")

    monkeypatch.setattr(knn, "topk_cosine", no_work)
    one = tmp_path / "one.fmat"
    fs = dataset.load_features(synth_dir / "features.fmat")
    dataset.save_features(dataset.FeatureSet(features=fs.features[:1]), one)
    out = tmp_path / "b"
    code, stdout, err = run(capsys, "baseline", "--features", str(one),
                            "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 0, err
    assert err == ""
    assert "clusters=1" in stdout
    assert (out / "baseline_partition.tsv").read_text() == "0\t0\n"


@pytest.mark.parametrize("k", ["0", "-5"])
def test_baseline_bad_k_fails_before_reading(synth_dir, tmp_path, capsys, monkeypatch, k):
    def no_read(*args, **kwargs):
        raise AssertionError("a bad --k reached the config or feature file")

    monkeypatch.setattr(cli, "make_config", no_read)
    monkeypatch.setattr(dataset, "load_features", no_read)
    out = tmp_path / "b"
    code, stdout, err = run(capsys, "baseline", "--features", str(synth_dir / "features.fmat"),
                            f"--k={k}", "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 1
    assert stdout == ""
    assert err == f"error: --k must be an integer >= 1, got {k}\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-5"])
def test_baseline_bad_k_on_one_instance(synth_dir, tmp_path, capsys, k):
    # a one-instance collection needs no kNN search, but --k is checked anyway
    one = tmp_path / "one.fmat"
    fs = dataset.load_features(synth_dir / "features.fmat")
    dataset.save_features(dataset.FeatureSet(features=fs.features[:1]), one)
    out = tmp_path / "b"
    code, _, err = run(capsys, "baseline", "--features", str(one), f"--k={k}",
                       "--tau-sim", "0.8", "--out-dir", str(out))
    assert code == 1
    assert err == f"error: --k must be an integer >= 1, got {k}\n"
    assert not (out / "baseline_partition.tsv").exists()


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

@pytest.mark.parametrize("command, module, name, stage", [
    ("cluster", knn, "topk_cosine", "linkgcn.knn.build_knn"),
    ("cluster", gcn, "_forward_edges", "linkgcn.gcn.forward"),
    ("cluster", merge, "canonical_labels", "linkgcn.merge.propagate_cluster"),
    ("baseline", knn, "topk_cosine", "linkgcn.knn.build_knn"),
    ("baseline", merge, "_components", "linkgcn.merge.table_components"),
])
def test_out_of_memory_is_one_error_line(synth_dir, trained_dir, tmp_path, capsys,
                                         monkeypatch, command, module, name, stage):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(module, name, no_memory)
    out = tmp_path / "out"
    if command == "cluster":
        argv = cluster_args(synth_dir, trained_dir, out)
    else:
        argv = ["baseline", "--features", str(synth_dir / "features.fmat"), "--k", "5",
                "--tau-sim", "0.8", "--out-dir", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: out of memory in {stage}: Unable to allocate 8.00 EiB for an array\n"
    assert not out.exists()


class NoThreadStarts(knn.ThreadPoolExecutor):
    """A thread pool whose threads cannot start, as under a low address-space limit."""

    def submit(self, *args, **kwargs):
        raise RuntimeError("can't start new thread")


def test_thread_start_failure_is_one_error_line(synth_dir, trained_dir, tmp_path, capsys,
                                                monkeypatch):
    # 300 instances make three kNN blocks of at most 128 rows, over two threads
    big = tmp_path / "big"
    assert run(capsys, *synth_args(big, ids=10, per_id="30:30"))[0] == 0
    monkeypatch.setattr(knn, "ThreadPoolExecutor", NoThreadStarts)
    out = tmp_path / "out"
    code, _, err = run(capsys, *cluster_args(big, trained_dir, out, ("--workers", "2")))
    assert code == 1
    assert err == "error: runtime error in linkgcn.knn.run_threads: can't start new thread\n"
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
    for name in ("tau", "tau0", "dtau", "max_size"):
        assert f"(default {getattr(PipelineConfig, name)})" in text
    assert f"must not pass {merge.MAX_ROUNDS}" in text


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
