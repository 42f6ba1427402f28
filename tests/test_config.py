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
