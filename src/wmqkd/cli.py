"""Command-line front end.

Subcommands: run (one protocol run), attack (run with a mandatory adversary),
sweep (parameter sweep to CSV), figures (reference dataset regeneration),
verify (weak-measurement verification battery on a signal-log file).

Exit status: 0 completed without abort; 3 protocol abort / verification
failure, an estimate that cannot be formed included (its failing verdict names
it); 1 usage, configuration or signal-log format error; 2 internal error (a bug).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, DEFAULT_CONFIG, config_with_seed, parse_config, parse_config_text
from .estimation import EstimationError, build_report, read_signal_log, text_value
from .harness import (
    fig3_dataset,
    fig5_dataset,
    fig6_dataset,
    rows_to_csv,
    run_protocol,
    sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_ABORT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wmqkd", description=__doc__)
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--seed", metavar="U64", type=int, help="master seed override")
    parser.add_argument("--format", choices=("csv", "report"), default="report",
                        help="run/attack output format")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="execute one protocol run")
    sub.add_parser("attack", help="execute one adversarial run (attack strategy required)")
    p_sweep = sub.add_parser("sweep", help="sweep one config axis, emit CSV")
    p_sweep.add_argument("--axis", required=True, help="dotted config path, e.g. pointer.g_over_sigma")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--mode", choices=("analytic", "monte_carlo"), default="analytic")
    p_fig = sub.add_parser("figures", help="regenerate a reference figure dataset")
    p_fig.add_argument("--which", required=True, choices=("fig3", "fig5", "fig6"))
    p_verify = sub.add_parser("verify", help="run WM verification on a signal-log file")
    p_verify.add_argument("logfile", help="signal-log interchange file")
    return parser


def _bind_values(argv: list[str]) -> list[str]:
    """Pass `--values LIST` as `--values=LIST`: argparse reads a bare -0.2,0,0.1 as an option."""
    args = iter(argv)
    return [f"{arg}={next(args, '')}" if arg == "--values" else arg for arg in args]


def _load_config(args):
    cfg = parse_config(args.config) if args.config else parse_config_text(DEFAULT_CONFIG)
    return config_with_seed(cfg, args.seed)


def _emit_run(result, out_dir: str, fmt: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "report":
        path = os.path.join(out_dir, "run_report.txt")
        with open(path, "w", newline="\n") as fh:
            fh.write(result.report.to_text())
            for name in ("sifted_key_length", "ground_truth_sifted_error", "key_rate", "undetected_attack"):
                fh.write(f"run.{name} = {text_value(getattr(result, name))}\n")
    else:
        path = os.path.join(out_dir, "run_summary.csv")
        header = ["qber", "abort", "delta_x", "delta_z", "delta_b",
                  "sifted_key_length", "ground_truth_sifted_error", "key_rate"]
        write_csv(path, header, [[
            result.qber, result.abort, result.report.rates.delta_x,
            result.report.rates.delta_z, result.report.rates.delta_b,
            result.sifted_key_length, result.ground_truth_sifted_error, result.key_rate,
        ]])
    print(f"wrote {path}")
    print(f"qber = {result.qber:.6g}  abort = {result.abort}  key_rate = {result.key_rate:.6g}")


def _cmd_run(args, require_attack: bool) -> int:
    cfg = _load_config(args)
    if require_attack and cfg.attack.strategy == "none":
        raise UsageError("the attack subcommand needs attack.strategy set in the config")
    result = run_protocol(cfg)
    _emit_run(result, args.out, args.format)
    return EXIT_ABORT if result.abort else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values list: {exc}") from exc
    if not values:
        raise UsageError("--values is empty")
    rows = sweep(cfg, args.axis, values, mode=args.mode)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    rows_to_csv(path, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    header, rows = {"fig3": fig3_dataset, "fig5": fig5_dataset, "fig6": fig6_dataset}[args.which]()
    path = os.path.join(args.out, f"{args.which}.csv")
    write_csv(path, header, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    try:
        log = read_signal_log(args.logfile)
    except (OSError, EstimationError) as exc:
        raise UsageError(f"cannot read signal log {args.logfile}: {exc}") from exc
    report = build_report(log, cfg.resolved_thresholds())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "verify_report.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write(report.to_text())
    print(f"wrote {path}")
    for name, ok in report.verdicts.as_dict().items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.verdicts.all_pass else EXIT_ABORT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
        if args.command == "run":
            return _cmd_run(args, require_attack=False)
        if args.command == "attack":
            return _cmd_run(args, require_attack=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
