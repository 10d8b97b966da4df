"""Command-line front end for the experiment harness.

Exit codes: 0 when every trial succeeded, 2 when the run finished but some
trial was infeasible, 1 for fatal errors (bad arguments, unreadable input).
The JSON report goes to --out when given, otherwise to stdout; the text table
is echoed to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import ALGORITHMS, ExperimentConfig, run_experiment


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """One option per ExperimentConfig field, with the field's default."""
    p = _Parser(
        prog="fair-kmeans",
        description="Individually fair k-means experiments on CSV datasets.",
    )
    p.set_defaults(
        **{
            f.name: f.default
            for f in dataclasses.fields(ExperimentConfig)
            if f.default is not dataclasses.MISSING
        }
    )
    p.add_argument(
        "--input",
        dest="input_path",
        metavar="INPUT",
        required=True,
        help="CSV file of numeric coordinates",
    )
    p.add_argument("--columns", help="comma-separated column indices to use (default: all)")
    p.add_argument("--header", action="store_true", help="skip the first non-blank CSV row")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="scale every dimension to zero mean and unit std before anything else",
    )
    p.add_argument("--sample", type=int, help="subsample to this many points")
    p.add_argument("--k", type=int, help="number of centers (default %(default)s)")
    p.add_argument("--gamma", type=float, help="anchor zone factor (default %(default)s)")
    p.add_argument("--iterations", type=int, help="local-search steps (default %(default)s)")
    p.add_argument(
        "--flloyd-iters",
        type=int,
        help="fair Lloyd refinement rounds after the search (default %(default)s, 0 disables)",
    )
    p.add_argument(
        "--delta-mode",
        metavar="{exact,sampled:<m>}",
        help="radius computation; default: exact up to 50k points, sampled:1000 above",
    )
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--trials", type=int, help="independent repetitions (default %(default)s)")
    p.add_argument("--seed", type=int, help="base seed; trial i uses seed+i")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument(
        "--eval-on-full",
        action="store_true",
        help="with --sample: solve on the sample but score on the full dataset",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    columns = None
    if args.columns:
        try:
            columns = [int(c) for c in args.columns.split(",") if c.strip() != ""]
        except ValueError:
            print(f"fair-kmeans: error: bad --columns value {args.columns!r}", file=sys.stderr)
            return 1

    cfg = ExperimentConfig(**{**vars(args), "columns": columns})
    try:
        report = run_experiment(cfg)
    except (OSError, ValueError) as exc:
        print(f"fair-kmeans: error: {exc}", file=sys.stderr)
        return 1

    print(report.text_table(), file=sys.stderr)
    if args.out is None:
        print(report.to_json())
    return 0 if report.feasible_trials == len(report.trials) else 2


if __name__ == "__main__":
    raise SystemExit(main())
