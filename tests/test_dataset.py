import struct

import numpy as np
import pytest

import conftest
from linkgcn.dataset import (FeatureSet, FormatError, SynthSpec, load_features, load_labels,
                             normalize_rows, save_features, save_labels, synth_generate)
from linkgcn.gcn import load_model


def test_fmat_roundtrip(tmp_path):
    rows = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
    fs = FeatureSet(features=rows)
    path = tmp_path / "f.fmat"
    save_features(fs, path)
    back = load_features(path)
    assert back.n == 3 and back.dim == 2
    assert not back.normalized
    np.testing.assert_array_equal(back.features, rows)


def test_fmat_truncated_payload(tmp_path):
    fs = FeatureSet(features=np.ones((5, 2), dtype=np.float32))
    path = tmp_path / "f.fmat"
    save_features(fs, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])  # drop the last row
    with pytest.raises(FormatError, match="truncated payload"):
        load_features(path)


def test_fmat_bad_magic(tmp_path):
    path = tmp_path / "f.fmat"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_features(path)


def test_fmat_zero_dims_rejected(tmp_path):
    path = tmp_path / "f.fmat"
    path.write_bytes(b"FMAT" + struct.pack("<IQI", 1, 0, 4))
    with pytest.raises(FormatError, match="N=0"):
        load_features(path)
    path.write_bytes(b"FMAT" + struct.pack("<IQI", 1, 4, 0))
    with pytest.raises(FormatError, match="D=0"):
        load_features(path)


@pytest.mark.parametrize("fmt, header, match", [
    ("fmat", b"FMAT" + struct.pack("<IQI", 1, 2**40, 4), "truncated payload"),
    ("lbls", b"LBLS" + struct.pack("<IQ", 1, 2**60), "truncated payload"),
    ("fmat", b"FMAT" + struct.pack("<IQI", 1, 2, 2) + bytes(16 + 12), "12 trailing bytes"),
    ("lbls", b"LBLS" + struct.pack("<IQ", 1, 2) + bytes(16 + 3), "3 trailing bytes"),
], ids=["fmat-huge-n", "lbls-huge-n", "fmat-trailing", "lbls-trailing"])
def test_payload_size_checked_against_file(tmp_path, fmt, header, match):
    # a huge declared N fails on the size check, before any allocation
    path = tmp_path / f"x.{fmt}"
    path.write_bytes(header)
    loader = load_features if fmt == "fmat" else load_labels
    with pytest.raises(FormatError, match=match) as exc:
        loader(path)
    assert "\n" not in str(exc.value)


def test_fmat_byte_count_large(tmp_path):
    # byte-count oracle: header is 20 bytes, payload N*D*4
    n, d = 100_000, 3
    fs = FeatureSet(features=np.zeros((n, d), dtype=np.float32))
    path = tmp_path / "big.fmat"
    save_features(fs, path)
    assert path.stat().st_size == 20 + n * d * 4
    assert load_features(path).n == n


def test_lbls_roundtrip(tmp_path):
    labels = np.array([0, 1, -1, 2], dtype=np.int64)
    path = tmp_path / "l.lbls"
    save_labels(labels, path)
    np.testing.assert_array_equal(load_labels(path), labels)


def test_lbls_rejects_labels_below_distractor(tmp_path):
    path = tmp_path / "l.lbls"
    labels = np.array([0, 0, 1, -1, -2, -3], "<i8")  # written raw: save_labels refuses them
    path.write_bytes(b"LBLS" + struct.pack("<IQ", 1, labels.size) + labels.tobytes())
    with pytest.raises(FormatError, match="label -2 at index 4 is below -1") as exc:
        load_labels(path)
    assert "\n" not in str(exc.value)


def test_save_labels_refuses_labels_below_distractor(tmp_path):
    path = tmp_path / "l.lbls"
    with pytest.raises(ValueError, match="^label -2 at index 4 is below -1$"):
        save_labels(np.array([0, 0, 1, -1, -2, -3]), path)
    assert not path.exists()


def test_feature_set_refuses_labels_below_distractor():
    with pytest.raises(ValueError, match="^label -5 at index 1 is below -1$"):
        FeatureSet(features=np.ones((3, 2), np.float32), labels=np.array([-1, -5, 0]))
    assert FeatureSet(features=np.ones((2, 2), np.float32), labels=[-1, 0]).labels[0] == -1


@pytest.mark.parametrize("loader", [load_features, load_labels, load_model])
def test_bad_magic_rejected_before_the_file_is_read(tmp_path, loader):
    # a sparse 1 GiB file: read whole, it would overshoot the 512 MiB address cap
    path = tmp_path / "big.bin"
    with open(path, "wb") as fh:
        fh.write(b"NOPE")
        fh.truncate(1 << 30)
    with pytest.raises(conftest.ChildFailed, match=r"^FormatError: .*bad magic"):
        conftest.run_with_address_limit(512 << 20, loader, str(path))


def test_normalize_rows_basic():
    fs = FeatureSet(features=np.array([[3, 4]], dtype=np.float32))
    out = normalize_rows(fs)
    np.testing.assert_allclose(out.features, [[0.6, 0.8]], atol=1e-7)
    assert out.normalized


def test_normalize_rows_idempotent():
    fs = FeatureSet(features=np.array([[0.6, 0.8], [1.0, 0.0]], dtype=np.float32))
    once = normalize_rows(fs)
    twice = normalize_rows(once)
    np.testing.assert_allclose(once.features, twice.features, atol=1e-7)


def test_normalize_rows_zero_row():
    fs = FeatureSet(features=np.array([[1, 1], [0, 0]], dtype=np.float32))
    with pytest.raises(ValueError, match="index 1"):
        normalize_rows(fs)


def test_normalize_rows_norm_bound():
    rng = np.random.default_rng(0)
    fs = normalize_rows(FeatureSet(features=rng.standard_normal((200, 17)).astype(np.float32)))
    norms = np.linalg.norm(fs.features.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-5


def test_normalize_preserves_labels():
    fs = FeatureSet(features=np.eye(3, dtype=np.float32), labels=[5, 6, 7])
    out = normalize_rows(fs)
    np.testing.assert_array_equal(out.labels, [5, 6, 7])


def test_featureset_rejects_nan():
    bad = np.array([[1.0, np.nan]], dtype=np.float32)
    with pytest.raises(ValueError, match="NaN"):
        FeatureSet(features=bad)


def test_featureset_label_length():
    with pytest.raises(ValueError, match="labels length"):
        FeatureSet(features=np.ones((3, 2), dtype=np.float32), labels=[1, 2])


def test_synth_counts():
    spec = SynthSpec(num_identities=2, samples_per_identity=(5, 5), dim=2, seed=3)
    fs = synth_generate(spec)
    assert fs.n == 10
    ids, counts = np.unique(fs.labels, return_counts=True)
    assert list(ids) == [0, 1] and list(counts) == [5, 5]


def test_synth_deterministic():
    spec = SynthSpec(num_identities=4, samples_per_identity=(3, 9), dim=6,
                     noise_scale=(0.1, 0.4), outlier_fraction=0.2, seed=99)
    a, b = synth_generate(spec), synth_generate(spec)
    assert a.features.tobytes() == b.features.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synth_outlier_count():
    # fraction applies to the inlier count: floor(0.1 * 100) = 10 distractors
    spec = SynthSpec(num_identities=10, samples_per_identity=(10, 10), dim=4,
                     outlier_fraction=0.1, seed=1)
    fs = synth_generate(spec)
    assert fs.n == 110
    assert int(np.sum(fs.labels == -1)) == 10


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(num_identities=2, samples_per_identity=(5, 3), dim=2)
    with pytest.raises(ValueError):
        SynthSpec(num_identities=2, samples_per_identity=(3, 5), dim=2,
                  outlier_fraction=1.0)
    with pytest.raises(ValueError):
        SynthSpec(num_identities=2, samples_per_identity=(3, 5), dim=2,
                  noise_scale=(0.0, 0.1))
