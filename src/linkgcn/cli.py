"""Command-line front end.

Subcommands: synth, train, cluster, eval, upper-bound, toy2d, baseline.
Config precedence is defaults < --config file < explicit flags; every command
is deterministic given its flags, and only synth, train and toy2d take a --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from linkgcn import dataset, gcn, merge, metrics, pipeline, trainer
from linkgcn.config import PipelineConfig, load_config_file, make_config
from linkgcn.dataset import FeatureSet
from linkgcn.ips import IpsConfig, build_block, regime_config


def _parse_range(text: str, label: str, cast=int):
    try:
        lo, hi = (cast(tok) for tok in text.split(":"))
    except ValueError:
        raise SystemExit(f"error: {label} must look like LO:HI, got {text!r}")
    if lo > hi:
        raise SystemExit(f"error: inverted {label} range {text!r}")
    return lo, hi


def _setup(args, need_labels=False):
    """The run's config and its feature set, with --labels attached and rows
    normalized unless the config turns that off."""
    cfg = make_config(args.config, _config_overrides(args))
    unread = [key for key in (load_config_file(args.config) if args.config else ())
              if key not in CONFIG_KEYS_READ[args.command]]
    if unread:
        warnings.warn(f"{args.command} does not read config keys: {', '.join(unread)}")
    fs = dataset.load_features(args.features)
    if getattr(args, "labels", None):
        fs = FeatureSet(features=fs.features, labels=dataset.load_labels(args.labels))
    elif need_labels:
        raise SystemExit("error: this command needs --labels")
    return cfg, dataset.normalize_rows(fs) if cfg.normalize else fs


def _parse_k_list(text: str) -> list:
    """--k-list as kNN widths, each an integer >= 1 like baseline's --k."""
    tokens = text.split(",")
    if not all(tok.strip().isdecimal() and int(tok) >= 1 for tok in tokens):
        raise ValueError(f"--k-list must be comma-separated integers >= 1, got {text!r}")
    return [int(tok) for tok in tokens]


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args):
    spec = dataset.SynthSpec(
        num_identities=args.ids,
        samples_per_identity=_parse_range(args.per_id, "--per-id"),
        dim=args.dim,
        center_spread=args.center_spread,
        noise_scale=_parse_range(args.noise, "--noise", float),
        outlier_fraction=args.outliers,
        seed=args.seed,
    )
    fs = dataset.synth_generate(spec)
    out = _out_dir(args)
    dataset.save_features(fs, out / "features.fmat")
    dataset.save_labels(fs.labels, out / "labels.lbls")
    n_ids = np.unique(fs.labels[fs.labels >= 0]).size
    print(f"N={fs.n} D={fs.dim} identities={n_ids} "
          f"distractors={int(np.sum(fs.labels < 0))}")
    print(f"wrote {out / 'features.fmat'} and {out / 'labels.lbls'}")


def cmd_train(args):
    cfg, fs = _setup(args, need_labels=True)
    model, curve = trainer.train(fs, cfg)
    out = _out_dir(args)
    gcn.save_model(model, out / "model.gcnm")
    with open(out / "loss.csv", "w") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(curve):
            fh.write(f"{epoch},{loss:.6f}\n")
    print(f"final mean loss {curve[-1]:.6f}")
    print(f"wrote {out / 'model.gcnm'} and {out / 'loss.csv'}")


def cmd_cluster(args):
    cfg, fs = _setup(args)
    model = gcn.load_model(args.checkpoint)
    ips_cfg = regime_config(cfg.test_k1, cfg.test_k2, cfg.test_u, cfg.hops)
    assignment, edges, seconds = pipeline.cluster(
        fs, model, ips_cfg, merge=cfg.merge, tau=cfg.tau, tau0=cfg.tau0,
        dtau=cfg.dtau, max_size=cfg.max_size, workers=cfg.workers)
    out = _out_dir(args)
    merge.save_partition(assignment, out / "partition.tsv")
    merge.save_edges(edges, out / "edges.tsv")
    rows = [*seconds.items(), ("total", sum(seconds.values()))]
    timing = "\n".join([f"{'stage':<17}seconds"] + [f"{stage:<17}{s:.3f}" for stage, s in rows])
    with open(out / "timing.txt", "w") as fh:
        fh.write(timing + "\n")
    print(timing)
    print(f"clusters={int(assignment.max()) + 1}")
    print(f"wrote {out / 'partition.tsv'} and {out / 'edges.tsv'}")


def cmd_eval(args):
    truth = dataset.load_labels(args.labels)
    pred = merge.load_partition(args.partition)
    report = metrics.evaluate(truth, pred, distractors=args.distractors)
    print(report.as_table())
    if args.drop_singletons:
        mask, removed = merge.filter_singletons(pred)
        if mask.any():
            filtered = metrics.evaluate(truth[mask], pred[mask], distractors=args.distractors)
            print(f"\nafter dropping singletons ({removed:.1%} removed):")
            print(filtered.as_table())
        else:
            print("\nall clusters are singletons; nothing left after filtering")


def cmd_upper_bound(args):
    ks = _parse_k_list(args.k_list)
    cfg, fs = _setup(args, need_labels=True)
    nbrs = pipeline.build_knn(fs, max(ks), workers=cfg.workers)
    print("k\tF\tNMI")
    for k, report in metrics.knn_upper_bound(fs, nbrs, ks):
        print(f"{k}\t{report.bcubed_f:.4f}\t{report.nmi:.4f}")


def cmd_toy2d(args):
    for flag, value in (("--steps", args.steps), ("--k1", args.k1)):
        if value < 1:
            raise ValueError(f"{flag} must be an integer >= 1, got {value}")
    spec = dataset.SynthSpec(num_identities=args.ids, samples_per_identity=(args.per_id, args.per_id),
                             dim=2, center_spread=1.0, noise_scale=(0.15, 0.15), seed=args.seed)
    fs = dataset.synth_generate(spec)
    cfg = IpsConfig(h=2, k_per_hop=(args.k1, 2), u=3)
    nbrs = pipeline.build_knn(fs, cfg.table_k)
    ips = build_block([0], fs, nbrs, cfg)[0]
    rows = trainer.toy2d_trace(fs, ips, steps=args.steps, seed=args.seed)
    out = _out_dir(args)
    with open(out / "toy2d.csv", "w") as fh:
        fh.write("iteration,layer,node,x,y\n")
        for it, layer, node, x, y in rows:
            fh.write(f"{it},{layer},{node},{x:.6f},{y:.6f}\n")
    print(f"wrote {out / 'toy2d.csv'} ({len(rows)} rows)")


def cmd_baseline(args):
    if args.k < 1:
        raise ValueError(f"--k must be an integer >= 1, got {args.k}")
    merge.check_tau_sim(args.tau_sim)
    cfg, fs = _setup(args)
    nbrs = pipeline.build_knn(fs, args.k, workers=cfg.workers)
    assignment = merge.threshold_baseline(fs, nbrs, args.tau_sim)
    out = _out_dir(args)
    merge.save_partition(assignment, out / "baseline_partition.tsv")
    print(f"clusters={int(assignment.max()) + 1}")
    print(f"wrote {out / 'baseline_partition.tsv'}")


# The PipelineConfig fields each command that takes --config reads.
CONFIG_KEYS_READ = {
    "train": ("aggregator hidden_dims attention_hidden epochs batch_size lr momentum lr_decay "
              "seed train_k1 train_k2 train_u hops mean_row_normalize normalize workers").split(),
    "cluster": "test_k1 test_k2 test_u hops merge tau tau0 dtau max_size normalize workers".split(),
    "baseline": ["normalize", "workers"], "upper-bound": ["normalize", "workers"],
}


def _config_overrides(args) -> dict:
    """The flags given that name a PipelineConfig field."""
    keys = (f.name for f in dataclasses.fields(PipelineConfig))
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _add_common(sub, features=False, labels=False, out_dir=False):
    sub.add_argument("--config", help="flat key=value config file")
    if features:
        sub.add_argument("--features", required=True, help="FMAT feature file")
        sub.add_argument("--no-normalize", dest="normalize", action="store_false", default=None)
    if labels:
        sub.add_argument("--labels", help="LBLS label file")
    if out_dir:
        sub.add_argument("--out-dir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linkgcn",
                                     description="linkage-based clustering of embeddings")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic labeled collection")
    p.add_argument("--ids", type=int, required=True)
    p.add_argument("--per-id", required=True, help="samples per identity, LO:HI")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--center-spread", type=float, default=1.0)
    p.add_argument("--noise", default="0.1:0.1", help="per-identity noise scale, LO:HI")
    p.add_argument("--outliers", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train the link predictor")
    _add_common(p, features=True, labels=True, out_dir=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--aggregator", choices=gcn.AGGREGATORS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--train-k1", dest="train_k1", type=int)
    p.add_argument("--train-k2", dest="train_k2", type=int)
    p.add_argument("--train-u", dest="train_u", type=int)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("cluster", help="cluster a collection with a trained model")
    _add_common(p, features=True, out_dir=True)
    p.add_argument("--checkpoint", required=True, help="GCNM model file")
    p.add_argument("--workers", type=int, default=None,
                   help="threads selecting the kNN top-k and scoring pivots "
                        "(default 0: usable cores // BLAS threads)")
    p.add_argument("--merge", choices=merge.STRATEGIES)
    p.add_argument("--tau", type=float,
                   help="bfs merge: keep links with likelihood >= tau, in [0, 1] "
                        f"(default {PipelineConfig.tau})")
    p.add_argument("--tau0", type=float,
                   help="propagate merge: first round's threshold, in [0, 1) "
                        f"(default {PipelineConfig.tau0})")
    p.add_argument("--dtau", type=float,
                   help="propagate merge: threshold step per round, > 0 "
                        f"(default {PipelineConfig.dtau}); ceil((1 - tau0) / dtau) + 2 "
                        f"rounds must not pass {merge.MAX_ROUNDS}")
    p.add_argument("--max-size", dest="max_size", type=int,
                   help="propagate merge: largest cluster a round finalizes, >= 1 "
                        f"(default {PipelineConfig.max_size})")
    p.add_argument("--test-k1", dest="test_k1", type=int)
    p.add_argument("--test-k2", dest="test_k2", type=int)
    p.add_argument("--test-u", dest="test_u", type=int)
    p.set_defaults(func=cmd_cluster)

    p = subs.add_parser("eval", help="score a partition against identity labels")
    p.add_argument("--partition", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--drop-singletons", action="store_true")
    p.add_argument("--distractors", choices=("keep", "ignore", "unique"), default="keep")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("upper-bound", help="same-identity kNN linking upper bound")
    _add_common(p, features=True, labels=True)
    p.add_argument("--k-list", default="1,2,4,8,16,32")
    p.set_defaults(func=cmd_upper_bound)

    p = subs.add_parser("toy2d", help="trace 2-D layer embeddings during training")
    p.add_argument("--ids", type=int, default=3)
    p.add_argument("--per-id", dest="per_id", type=int, default=8)
    p.add_argument("--k1", type=int, default=8)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_toy2d)

    p = subs.add_parser("baseline", help="global similarity-threshold comparator")
    _add_common(p, features=True, out_dir=True)
    p.add_argument("--k", type=int, default=80)
    p.add_argument("--tau-sim", dest="tau_sim", type=float, required=True)
    p.set_defaults(func=cmd_baseline)

    return parser


def _innermost_function(exc: BaseException) -> str:
    """The innermost linkgcn function on exc's traceback, as module.function;
    a nested function is named by the function that defines it."""
    name = "linkgcn"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("linkgcn."):
            code = frame.f_code
            name = f"{module}.{getattr(code, 'co_qualname', code.co_name).split('.<locals>')[0]}"
    return name


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # each warning is one line, without its source location
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            args.func(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (MemoryError, RuntimeError) as exc:
            # e.g. a thread that cannot start under an address-space limit
            what = "out of memory" if isinstance(exc, MemoryError) else "runtime error"
            detail = f": {exc}" if str(exc) else ""
            print(f"error: {what} in {_innermost_function(exc)}{detail}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
