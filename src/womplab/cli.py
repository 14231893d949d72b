"""Command-line front end.

Exit codes: 0 on success, 1 when the experiment ran but its target
condition did not hold (no certifiable point set, failed verification),
2 on configuration or usage errors and on unusable input or output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import CRITERIA, run_all
from .experiments import (ConfigError, dump_config, parse_config,
                          run_check_disc, run_find_points, run_fooling,
                          run_rate_sweep, run_recover)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="womplab",
        description="Sampling discretization and weak greedy recovery "
                    "experiments for sparse trigonometric polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="INI file overriding the defaults")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--dump-config", action="store_true",
                       help="print the merged config and exit")
        if name == "verify":
            p.add_argument("--list", action="store_true",
                           help="list the acceptance checks and exit")
            p.add_argument("--criteria",
                           help="comma-separated criterion numbers (default all)")
    return parser


def _cmd_verify(cfg, args) -> int:
    if args.list:
        for num, name, _ in CRITERIA:
            print(f"{num}  {name}")
        return 0
    numbers = None
    chosen = args.criteria
    if chosen and chosen != "all":
        try:
            numbers = [int(tok) for tok in chosen.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"cannot parse criteria list {chosen!r}") from None

    def show(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{res.number}] {res.name}: {mark} ({res.seconds:.1f}s)  {res.detail}")

    try:
        results = run_all(numbers, progress=show)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = cfg["common"]["out"]
    os.makedirs(out, exist_ok=True)
    payload = {
        "passed": all(r.passed for r in results),
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "seconds": round(r.seconds, 2), "detail": r.detail}
                     for r in results],
    }
    with open(os.path.join(out, "verify.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed; "
          f"report in {os.path.join(out, 'verify.json')}")
    return 0 if payload["passed"] else 1


def _cmd_find_points(cfg, args) -> int:
    found, reports = run_find_points(cfg)
    for rep in reports:
        print(f"m={rep.m}: holds={rep.holds} c_low={rep.c_low:.4f} "
              f"c_high={rep.c_high:.4f}")
    if found is None:
        print("no certifiable point set within the cap")
        return 1
    print(f"certified point set with m={found.m} written to "
          f"{os.path.join(cfg['common']['out'], 'points.txt')}")
    return 0


def _cmd_check_disc(cfg, args) -> int:
    rep = run_check_disc(cfg)
    print(f"m={rep.m} N={rep.size} u={rep.u} p={rep.p:g} mode={rep.mode}: "
          f"holds={rep.holds} c_low={rep.c_low:.6f} c_high={rep.c_high:.6f}")
    if rep.worst_support:
        print(f"extremal support: {rep.worst_support}")
    return 0 if rep.holds else 1


def _cmd_recover(cfg, args) -> int:
    rep = run_recover(cfg)
    for warning in (rep.cert_warning, rep.sigma_warning):
        if warning:
            print(f"warning: {warning}")
    print(f"m={rep.m} v={rep.v} u={rep.u} p={rep.p:g}: "
          f"error={rep.error_lp_mu:.6g}")
    if rep.exact_recovery:
        print("exact recovery (reference error at rounding level)")
    elif rep.ratio_pipeline is not None:
        print(f"sigma_ref={rep.sigma_ref:.6g} ratio={rep.ratio_pipeline:.4f}")
    return 0


def _cmd_rate_sweep(cfg, args) -> int:
    cells, fits = run_rate_sweep(cfg)
    refused = {c["v"]: c["report"].cert_warning for c in cells
               if cfg["rate-sweep"]["certify"] and c["report"].certificate is None}
    for v, reason in refused.items():
        print(f"warning: v={v}: {reason}")
    for p, fit in sorted(fits.items()):
        print(f"p={p:g}: slope={fit.slope:.4f} target={fit.target_exponent:g} "
              f"over v={list(fit.v_values)}")
    print(f"tables in {cfg['common']['out']}")
    return 0


def _cmd_fooling(cfg, args) -> int:
    records = run_fooling(cfg)
    worst = max(r.instance.vanishing_defect for r in records)
    print(f"{len(records)} instances; worst vanishing defect {worst:.3e}")
    fooled = sum(r.recovery_fooled for r in records)
    print(f"recovery hit the lower bound in {fooled}/{len(records)} runs")
    print(f"tables in {cfg['common']['out']}")
    return 0


# Each subcommand's help line and handler, in --help order.
COMMANDS = {
    "find-points": ("double m until a two-sided certificate holds", _cmd_find_points),
    "check-disc": ("certify one point set for u-sparse discretization", _cmd_check_disc),
    "recover": ("run the sampling recovery pipeline once", _cmd_recover),
    "rate-sweep": ("error decay rates over sparsity budgets", _cmd_rate_sweep),
    "fooling": ("adversarial lower-bound instances on a box ladder", _cmd_fooling),
    "verify": ("run the built-in acceptance checks", _cmd_verify),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, {"seed": args.seed, "out": args.out})
        if args.dump_config:
            print(dump_config(cfg))
            return 0
        # refuse an output path that is empty, a file or below a file before
        # anything runs: os.mkdir fails on it as os.makedirs would, creating nothing
        head = out = cfg["common"]["out"]
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if not out or (head and not os.path.isdir(head)):
            os.mkdir(out)
        return COMMANDS[args.command][1](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
