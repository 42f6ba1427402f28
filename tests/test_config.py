import pytest

from linkgcn.config import PipelineConfig, load_config_file, make_config


@pytest.mark.parametrize("word, value", [
    ("true", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("NO", False), ("off", False), ("0", False)])
def test_config_boolean_spellings(tmp_path, word, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"normalize={word}\n")
    assert load_config_file(path) == {"normalize": value}


@pytest.mark.parametrize("line", ["normalize=flase", "normalize=", "epochs=ten"])
def test_config_bad_value_names_line(tmp_path, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}:2: ") as exc:
        load_config_file(path)
    assert "\n" not in str(exc.value)


def test_config_precedence(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("epochs=7\nlr=0.5\nhidden_dims=8,4\n")
    cfg = make_config(path, {"lr": 0.1, "seed": None})
    assert (cfg.epochs, cfg.lr, cfg.hidden_dims) == (7, 0.1, (8, 4))
    assert cfg.seed == PipelineConfig().seed


@pytest.mark.parametrize("field, value", [
    ("merge", "bfss"), ("tau", -0.1), ("tau", 1.5), ("tau", float("nan")),
    ("tau0", -0.1), ("tau0", 1.0), ("dtau", 0.0), ("dtau", -0.05),
    ("max_size", 0), ("hops", 0), ("train_k1", 0), ("train_k2", 0), ("train_u", 0),
    ("test_k1", 0), ("test_k2", 0), ("test_u", -1), ("aggregator", "foo"),
    ("hidden_dims", ()), ("hidden_dims", (64, 0)), ("attention_hidden", 0), ("workers", 0)])
def test_config_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=f"^{field} ") as exc:
        PipelineConfig(**{field: value})
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("field, value", [
    ("merge", "bfs"), ("tau", 0.0), ("tau", 1.0), ("tau0", 0.0), ("tau0", 0.95),
    ("dtau", 1e-3), ("max_size", 1), ("hops", 1), ("test_k1", 1), ("workers", 1),
    ("aggregator", "attention"), ("hidden_dims", (1,)), ("attention_hidden", 1)])
def test_config_accepts_edge_values(field, value):
    assert getattr(PipelineConfig(**{field: value}), field) == value


def test_config_file_values_are_validated(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("merge=bfss\n")
    with pytest.raises(ValueError, match="^merge "):
        make_config(path)
    with pytest.raises(ValueError, match="^tau "):
        make_config(None, {"merge": "bfs", "tau": 1.5})
