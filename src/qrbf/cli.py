"""Command-line front end.

Subcommands: gen-data, fit, evaluate, verify-bounds, sweep.  Settings
come from a JSON config file; flags override it.  QRBF_SEED supplies the
default seed when neither the config nor --seed sets one.  A run that a
pipeline stage refuses prints "error: [stage: <stage>] <cause>" on one
line of stderr and exits 2, at stage "config" for a config file, key,
--set item, pipeline or seed that cannot be used.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config, harness, interpolation


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _base_config(args) -> dict:
    with harness._stage("config"):
        cfg = config.load_config(args.config) if args.config else {}
        if getattr(args, "pipeline", None):
            cfg["pipeline"] = args.pipeline
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        if getattr(args, "epsilon", None) is not None:
            cfg["epsilon"] = args.epsilon
        if getattr(args, "out", None):
            cfg["output"] = args.out
        for item in getattr(args, "set", None) or ():
            if "=" not in item:
                raise ValueError(f"--set expects path=value, got {item!r}")
            path, _, raw = item.partition("=")
            config.set_by_path(cfg, path, _parse_value(raw))
        if getattr(args, "query_file", None):
            config.set_by_path(cfg, "queries.file", args.query_file)
    return cfg


def _cmd_gen_data(args) -> int:
    with harness._stage("config"):
        seed = config.resolve_seed(args.seed)
    ds = interpolation.gen_data(args.m, args.d, args.box, seed, args.target)
    interpolation.save_dataset(ds, args.out)
    print(f"wrote {ds.m} sites in dimension {ds.d} to {args.out} (seed {seed})")
    return 0


def _cmd_fit(args) -> int:
    cfg = _base_config(args)
    result = harness.run_pipeline(cfg)
    print(json.dumps(result.summary, indent=2, sort_keys=True, default=str))
    for label, path in result.files.items():
        print(f"{label}: {path}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    result = harness.run_pipeline(_base_config(args))
    fields = result.query_fields
    print(",".join(fields))
    for row in result.query_rows:
        print(",".join(harness._fmt(row.get(name)) for name in fields))
    return 0


def _cmd_verify_bounds(args) -> int:
    result = harness.verify_bounds(args.suite, seed=args.seed, out_dir=args.out)
    print(
        f"suite {result.suite}: {len(result.rows)} rows, "
        f"{result.n_failed} failed -> {'ok' if result.ok else 'FAIL'}"
    )
    for label, path in result.files.items():
        print(f"{label}: {path}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_sweep(args) -> int:
    cfg = _base_config(args)
    values = [_parse_value(v) for v in args.values.split(",")]
    rows, path = harness.sweep(cfg, args.param, values, out_dir=args.out)
    for row in rows:
        print(
            f"{args.param}={row['value']}: max_abs_err={row['max_abs_err']} "
            f"fidelity={row['fidelity']}"
        )
    if path:
        print(f"sweep: {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrbf",
        description="RBF interpolation lab: classical solves and simulated quantum pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dataset = config.default_config()["dataset"]
    p = sub.add_parser("gen-data", help="generate a random dataset CSV")
    p.add_argument("--m", type=int, default=dataset["m"])
    p.add_argument("--d", type=int, default=dataset["d"])
    p.add_argument("--box", type=float, nargs=2, default=dataset["box"], metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--target", choices=sorted(interpolation.TARGETS), default=dataset["target"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--pipeline", choices=config.PIPELINES)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--epsilon", type=float, default=None)
    common.add_argument("--out", help="output directory")
    common.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config entry by dot path, e.g. --set inversion.mode=quantized",
    )

    p = sub.add_parser("fit", parents=[common], help="run a pipeline end to end")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate at query points from a CSV")
    p.add_argument("--query-file", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("verify-bounds", help="run a bound-verification suite")
    p.add_argument("--suite", required=True, choices=sorted(harness.SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("sweep", parents=[common], help="rerun a pipeline over parameter values")
    p.add_argument("--param", required=True, help="dot path, e.g. compact.ae_bits")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a pipeline stage's error is one line on stderr and exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except harness._StageError as exc:
        print("error: " + str(exc).replace("\n", " "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
