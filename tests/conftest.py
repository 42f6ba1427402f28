import os
import pickle
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from linkgcn.dataset import FeatureSet, SynthSpec, normalize_rows, synth_generate
from linkgcn.knn import build_knn

# filled by the acceptance gate; echoed after the run so the per-criterion
# pass/fail lines survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# runs one call inside the child interpreter of run_with_address_limit
_CAPPED_CHILD = """
import pickle, resource, sys
with open(sys.argv[1], "rb") as fh:
    fn, args = pickle.load(fh)
try:
    out = ("ok", fn(*args))
except Exception as exc:
    out = ("error", f"{type(exc).__name__}: {exc}")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
with open(sys.argv[1], "wb") as fh:
    pickle.dump(out + (peak,), fh)
"""


class ChildFailed(Exception):
    """The call in run_with_address_limit's child raised; the message is the
    child's exception type and message."""


def run_with_address_limit(limit_bytes, fn, *args, timeout=120):
    """Call fn(*args) in a fresh interpreter whose address space is capped at
    limit_bytes (RLIMIT_AS) from its start, so an overshoot raises
    MemoryError in the child instead of exhausting the machine. BLAS runs
    on one thread there. fn must be a module-level function of a module on
    sys.path, and fn, args and the result must pickle.

    Returns (result, peak RSS in bytes of the child); raises ChildFailed if
    the call raised.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    with tempfile.TemporaryDirectory() as tmp:
        io = Path(tmp) / "call.pkl"
        io.write_bytes(pickle.dumps((fn, args)))
        proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, str(io)], env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=limit)
        if proc.returncode != 0:
            raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
        status, value, peak = pickle.loads(io.read_bytes())
    if status == "error":
        raise ChildFailed(value)
    return value, peak


@pytest.fixture(scope="session")
def small_random_set():
    rng = np.random.default_rng(42)
    feats = rng.standard_normal((50, 8)).astype(np.float32)
    return normalize_rows(FeatureSet(features=feats))


@pytest.fixture(scope="session")
def easy_two_identity_set():
    spec = SynthSpec(num_identities=2, samples_per_identity=(50, 50), dim=16,
                     center_spread=1.0, noise_scale=(0.05, 0.05), seed=7)
    return normalize_rows(synth_generate(spec))


@pytest.fixture(scope="session")
def synth_1k_set():
    spec = SynthSpec(num_identities=20, samples_per_identity=(50, 50), dim=16,
                     center_spread=1.0, noise_scale=(0.05, 0.15), seed=11)
    return normalize_rows(synth_generate(spec))


@pytest.fixture(scope="session")
def synth_1k_nbrs(synth_1k_set):
    return build_knn(synth_1k_set, 85)


@pytest.fixture(scope="session")
def synth_246_set():
    """246 instances: more than the train regime's k1 = 200 + 1, and 15
    blocks of 16 pivots and a last block of 6."""
    spec = SynthSpec(num_identities=6, samples_per_identity=(41, 41), dim=16,
                     center_spread=1.0, noise_scale=(0.05, 0.15), seed=4)
    return normalize_rows(synth_generate(spec))
