"""Run configuration and seeded random streams.

All randomness in a run flows from one 64-bit seed. Independent stages
(data synthesis, weight init, epoch shuffling) draw from named child
streams so that changing one stage never perturbs another.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, fields

import numpy as np


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Generator for a named substream of the master seed."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF,
                                                         zlib.crc32(name.encode())]))


@dataclass
class PipelineConfig:
    """Every setting of a run, with its default and its check: the model,
    the optimizer and seed, the train and test subgraph regimes, and merging."""
    # model
    aggregator: str = "mean"
    hidden_dims: tuple = (256, 256, 128, 64)
    attention_hidden: int = 64
    # optimizer
    epochs: int = 40
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.1
    seed: int = 0
    # data
    normalize: bool = True
    # pivot-subgraph regimes (train favors many 1-hop nodes for supervision,
    # test trades subgraph size for speed)
    train_k1: int = 200
    train_k2: int = 10
    train_u: int = 10
    test_k1: int = 80
    test_k2: int = 5
    test_u: int = 5
    hops: int = 2
    # model, continued
    mean_row_normalize: bool = False
    # merging
    merge: str = "propagate"  # one of merge.STRATEGIES
    tau: float = 0.5          # bfs threshold
    tau0: float = 0.5
    dtau: float = 0.05
    max_size: int = 600
    # misc
    workers: int = 0          # kNN and pivot-scoring threads; 0 derives them from the cores

    def __post_init__(self):
        # imported here: gcn and merge import this module
        from linkgcn.gcn import AGGREGATORS
        from linkgcn.merge import check_merge
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {', '.join(AGGREGATORS)}, "
                             f"got {self.aggregator!r}")
        self.hidden_dims = tuple(self.hidden_dims)
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError(f"hidden_dims must be one or more widths >= 1, "
                             f"got {self.hidden_dims!r}")
        for name in ("attention_hidden", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        check_merge(self.merge, tau=self.tau, tau0=self.tau0, dtau=self.dtau,
                    max_size=self.max_size)
        for name in ("hops", "train_k1", "train_k2", "train_u", "test_k1", "test_k2", "test_u"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(value: str, target_type):
    if target_type is bool:
        word = value.strip().lower()
        if word not in _BOOLEANS:
            raise ValueError(f"expected true or false, got {value!r}")
        return _BOOLEANS[word]
    if target_type is tuple:
        return tuple(int(tok) for tok in value.replace(",", " ").split())
    return target_type(value)


def load_config_file(path) -> dict:
    """Parse a flat key=value config file. Blank lines and # comments allowed."""
    out = {}
    defaults = PipelineConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(defaults)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _coerce(value, types[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def make_config(file_path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config with precedence defaults < file < overrides."""
    cfg = PipelineConfig()
    if file_path is not None:
        cfg = dataclasses.replace(cfg, **load_config_file(file_path))
    if overrides:
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg
