"""Byte-level fuzzing of every file loader.

Each case takes a valid file and truncates it, inserts one byte, or flips
bits of one byte. The loader must then raise FormatError, or load something
that passes every check a clean load passes: the binary formats save back
to exactly the bytes that were read, and a partition is total over 0..N-1
with non-negative labels. The pinned examples are edits that once got past
a loader.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgcn import dataset, gcn, merge
from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet, FormatError

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# (operation, position, byte): positions wrap around the file length, and a
# flip XORs the byte at the position with a nonzero mask
EDITS = st.tuples(st.sampled_from(["truncate", "insert", "flip"]),
                  st.integers(0, 1 << 16), st.integers(1, 255))


def edited(base: bytes, edit) -> bytes:
    op, pos, byte = edit
    if op == "truncate":
        return base[:pos % len(base)]
    if op == "insert":
        pos %= len(base) + 1
        return base[:pos] + bytes([byte]) + base[pos:]
    pos %= len(base)
    return base[:pos] + bytes([base[pos] ^ byte]) + base[pos + 1:]


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def resave_matches(workdir, save, load, clean, edit):
    """Whether an edited file either fails to load with FormatError or loads
    into an object that saves back to exactly the edited bytes."""
    path = workdir / "fuzzed"
    save(clean, path)
    data = edited(path.read_bytes(), edit)
    path.write_bytes(data)
    try:
        obj = load(path)
    except FormatError:
        return True
    save(obj, path)
    return path.read_bytes() == data


FEATURES = FeatureSet(features=np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.125]], np.float32))


@FUZZ
@given(EDITS)
@example(("flip", 27, 0x40))  # -1.0 becomes -inf
def test_fmat_edits(workdir, edit):
    assert resave_matches(workdir, dataset.save_features, dataset.load_features,
                          FEATURES, edit)


@FUZZ
@given(EDITS)
def test_lbls_edits(workdir, edit):
    assert resave_matches(workdir, dataset.save_labels, dataset.load_labels,
                          np.array([0, 1, 1, -1, 2]), edit)


MODELS = {agg: gcn.init_model([2, 3, 2], agg, seed_stream(0, "init"), attention_hidden=2)
          for agg in ("mean", "attention")}


@pytest.mark.parametrize("aggregator", MODELS)
@FUZZ
@given(EDITS)
@example(("flip", 9, 0x02))   # row-normalization flag 2
@example(("flip", 18, 0x15))  # first tensor of rank 23
def test_gcnm_edits(workdir, aggregator, edit):
    assert resave_matches(workdir, gcn.save_model, gcn.load_model, MODELS[aggregator], edit)


@FUZZ
@given(EDITS)
@example(("flip", 0, 0x80))  # not UTF-8
def test_partition_edits(workdir, edit):
    data = edited(b"0\t2\n1\t0\n2\t10\n3\t0\n", edit)
    path = workdir / "fuzzed.tsv"
    path.write_bytes(data)
    try:
        out = merge.load_partition(path)
    except FormatError:
        return
    assert out.dtype == np.int64
    assert out.shape == (sum(1 for line in data.split(b"\n") if line.strip()),)
    assert out.min() >= 0
