"""Command-line entry point for running experiments."""

from __future__ import annotations

import argparse
import os
import sys


def _pin_blas_threads():
    # The pipeline is sequential; one BLAS thread per library unless set.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tdg",
        description="Plane-wave discontinuous Galerkin Helmholtz experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment configuration")
    run.add_argument("config", nargs="?", help="path to a config file")
    run.add_argument("--out", default="tdg_out", help="output directory")
    run.add_argument("--preset", help="name of a packaged preset configuration")
    run.add_argument("--max-iters", type=int, dest="max_iters",
                     help="override the adaptive iteration budget")
    run.add_argument("--policy", help="override the directional adaptivity policy")
    return parser


def main(argv=None):
    _pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)

    from .basis import UnsupportedDegreeError
    from .config import ConfigError, load_config, load_preset, override
    from .mesh import MeshError
    from .problems import ProblemError
    from .solve import SingularSystemError
    from .driver import run_experiment

    try:
        if args.preset is not None and args.config is not None:
            raise ConfigError("give either a config path or --preset, not both")
        if args.preset is not None:
            config = load_preset(args.preset)
        elif args.config is not None:
            config = load_config(args.config)
        else:
            raise ConfigError("missing config path (or use --preset NAME)")
        # Overrides pass the same validation as the file's own values.
        flags = {"max_iters": args.max_iters, "policy": args.policy}
        config = override(config, {"adaptivity": {
            key: str(value) for key, value in flags.items() if value is not None
        }})
    except (ConfigError, MeshError, ProblemError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        records = run_experiment(config, out_dir=args.out)
    except MeshError as exc:
        # The initial grid is built first, so nothing has been written yet.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except UnsupportedDegreeError as exc:
        print(f"unsupported degree: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    if records:
        last = records[-1]
        print(
            f"completed {len(records)} iteration(s): "
            f"{last.n_elements} elements, {last.dofs} dofs, "
            f"relative L2 error {last.rel_l2_error:.3e}"
        )
    print(f"outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
