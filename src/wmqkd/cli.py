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
from dataclasses import replace

from .config import ConfigError, DEFAULT_CONFIG, parse_config, parse_config_text
from .estimation import EstimationError, build_report, csv_text, read_signal_log, text_table
from .harness import fig3_dataset, fig5_dataset, fig6_dataset, run_protocol, sweep

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
    return cfg if args.seed is None else replace(cfg, master_seed=args.seed)


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


# the run's table keys that run_summary.csv writes, each under its last dotted segment
_CSV_KEYS = ("qber", "abort", "estimate.delta_x", "estimate.delta_z", "estimate.delta_b",
             "run.sifted_key_length", "run.ground_truth_sifted_error", "run.key_rate")


def _cmd_run(args, cfg) -> int:
    """run, and attack, which needs an attack strategy in the config."""
    if args.command == "attack" and cfg.attack.strategy == "none":
        raise UsageError("the attack subcommand needs attack.strategy set in the config")
    result = run_protocol(cfg)
    table = dict(result.items())
    if args.format == "report":
        _write(args.out, "run_report.txt", text_table(table.items()))
    else:
        header = [key.rpartition(".")[2] for key in _CSV_KEYS]
        _write(args.out, "run_summary.csv", csv_text(header, [[table[key] for key in _CSV_KEYS]]))
    print(f"qber = {result.qber:.6g}  abort = {result.abort}  key_rate = {result.key_rate:.6g}")
    return EXIT_ABORT if result.abort else EXIT_OK


def _cmd_sweep(args, cfg) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values list: {exc}") from exc
    if not values:
        raise UsageError("--values is empty")
    rows = sweep(cfg, args.axis, values, mode=args.mode)
    _write(args.out, "sweep.csv", csv_text(rows[0].keys(), [row.values() for row in rows]))
    return EXIT_OK


def _cmd_figures(args, cfg) -> int:
    dataset = {"fig3": fig3_dataset, "fig5": fig5_dataset, "fig6": fig6_dataset}[args.which]
    _write(args.out, f"{args.which}.csv", csv_text(*dataset()))
    return EXIT_OK


def _cmd_verify(args, cfg) -> int:
    try:
        log = read_signal_log(args.logfile)
    except (OSError, EstimationError) as exc:
        raise UsageError(f"cannot read signal log {args.logfile}: {exc}") from exc
    report = build_report(log, cfg.resolved_thresholds())
    _write(args.out, "verify_report.txt", report.to_text())
    for name, ok in report.verdicts.as_dict().items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if report.verdicts.all_pass else EXIT_ABORT


_COMMANDS = {"run": _cmd_run, "attack": _cmd_run, "sweep": _cmd_sweep, "figures": _cmd_figures,
             "verify": _cmd_verify}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args, _load_config(args))
    except (UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
