"""Command-line entry point.

Three subcommands share one configuration surface:

    awcmaxwell run      --config run.cfg --out results
    awcmaxwell compare  --config run.cfg --out results
    awcmaxwell report   --manifest results/manifest.csv

compare is run with the full-grid oracle on, and also writes the error
series, error_series.csv, into --out.

Every config-file key is a flag by construction: the flags are built
from config.CONFIG_KEYS (--jmax 7 overrides jmax from the file; out_dir
is --out).  A flag's value goes through the same parser as a file's, so
--boundary pml and --boundary Pml both work; the file and the flags are
validated together, and an invalid value exits 2 with a message naming
the key.  Exit codes: 0 success, 2 configuration error, 3 numerical
instability.
"""

import argparse
import sys
from pathlib import Path

from .config import CONFIG_KEYS, SimulationConfig, parse_config
from .errors import ConfigError, InstabilityError
from .harness import proportionality_report, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    for key in CONFIG_KEYS:
        flag = "--out" if key == "out_dir" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, help=f"overrides {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awcmaxwell",
        description="2D adaptive wavelet-collocation Maxwell solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment, write snapshots")
    _add_config_flags(run)

    compare = sub.add_parser(
        "compare", help="run with the full-grid oracle on")
    _add_config_flags(compare)

    report = sub.add_parser(
        "report", help="wall-time vs cardinality correlation")
    report.add_argument("--manifest", metavar="PATH",
                        help="manifest to analyse (default OUT/manifest.csv)")
    report.add_argument("--out", metavar="DIR", dest="out_dir",
                        help="where to write timing.csv")
    return parser


def _load_config(args) -> SimulationConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text()
    return parse_config(text, {key: getattr(args, key) for key in CONFIG_KEYS
                               if getattr(args, key) is not None})


def _cmd_run(args) -> int:
    config = _load_config(args)
    result = run_simulation(config)
    if result.records:
        cps = [r.cp for r in result.records]
        print(f"completed {len(result.records)} steps, "
              f"cp in [{min(cps):.4f}, {max(cps):.4f}]")
    else:
        print("completed 0 steps (initial snapshot only)")
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _load_config(args)
    result = run_simulation(config, oracle=True)
    if result.errors:
        worst = max(r.rel_err for r in result.errors)
        print(f"reported {len(result.errors)} steps, max relative error "
              f"{worst:.3e}")
    else:
        print("reported 0 steps (reference field below floor)")
    print(f"error series: {result.out_dir / 'error_series.csv'}")
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    manifest = args.manifest
    if manifest is None:
        base = (args.out_dir if args.out_dir is not None
                else SimulationConfig.out_dir)
        manifest = Path(base) / "manifest.csv"
    pearson = proportionality_report(manifest, out_dir=args.out_dir)
    if pearson is None:
        print("pearson: undefined (zero variance)")
    else:
        print(f"pearson: {pearson:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
