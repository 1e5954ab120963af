"""Command line entry point.

Subcommands: cond, vds, quad, train, hessian.  Each accepts --config (JSON
file), --out (output directory) and --seed (overrides the config seed).
cond's positional matrix file likewise overrides the config's
matrix_file, so it is part of the config hash.  Without --out the output
directory is derived from the config hash, so distinct configs never
collide.
"""

import argparse
import sys

from equilab.bench.config import default_config, load_config
from equilab.bench.experiments import ARMS, run_experiment
from equilab.errors import EquilabError

_KIND_FOR = {
    "cond": "cond_report",
    "vds": "vds",
    "quad": "quad",
    "train": "train_compare",
    "hessian": "hessian_compare",
}


def build_parser():
    parser = argparse.ArgumentParser(prog="equilab",
                                     description="weight conditioning laboratory")
    parser.add_argument("--list-arms", action="store_true",
                        help="print available training arms and exit")
    sub = parser.add_subparsers(dest="command")
    for name, kind in _KIND_FOR.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        if name == "cond":
            p.add_argument("matrix_file", nargs="?", default=None,
                           help="text matrix file ('rows cols' header)")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_arms:
        for arm in ARMS:
            print(arm)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    kind = _KIND_FOR[args.command]
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "matrix_file", None) is not None:
        overrides["matrix_file"] = args.matrix_file
    try:
        if args.config is not None:
            cfg = load_config(args.config, kind=kind, **overrides)
        else:
            cfg = default_config(kind, **overrides)
        out_dir = args.out or f"runs/{kind}_{cfg.config_hash}"
        manifest = run_experiment(cfg, out_dir)
    except EquilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(manifest.files)} files to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
