"""Command-line front end.

Subcommands wrap the library one-to-one: simulate (trajectory CSV),
certificate (JSON), region (bounding-curve CSV), verify (invariance
check, JSON report), reconstruct (error-curve CSV) and sweep (figure
tables).  Data goes to stdout or --out; diagnostics go to stderr so
outputs stay pipe-safe.  main maps each error class to an exit code,
as the README's table lists them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from .certificates import (
    VARIANT_EQ5,
    VARIANT_REMARK,
    thm1_certificate,
    thm2_certificate,
    unchecked_certificate,
)
from .errors import (
    DegenerateConfigurationError,
    DivergenceError,
    InfeasibleError,
    InsufficientDataError,
    InvalidInputError,
    NoSolutionError,
    ResourceError,
    _check_array_len,
)
from .filters import design_filter
from .invariance import verify_invariance
from .modulator import SchemeParams, run
from .pipeline import error_curve, gen_signal, order_fit
from .region import RegionSpec
from .serialize import write_csv, write_json, write_region_csv, write_trajectory_csv
from .sweeps import DEFAULT_SEED, SweepConfig, run_fig1, run_fig2, run_fig3, run_fig4

__all__ = ["main"]

_VARIANTS = {"remark": VARIANT_REMARK, "eq5": VARIANT_EQ5}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures map to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(flag_value):
    if flag_value is not None:
        seed, source = int(flag_value), "--seed"
    else:
        env = os.environ.get("SD_LAB_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "SD_LAB_SEED"
        except ValueError:
            raise InvalidInputError(
                f"SD_LAB_SEED must be an integer, got {env!r}"
            ) from None
    if seed < 0:
        raise InvalidInputError(f"{source} must be nonnegative, got {seed}")
    return seed


def _out(args):
    """Where a handler writes: stdout for no --out or "-", else the path."""
    return sys.stdout if args.out in (None, "-") else args.out


def _add_seed_out(p):
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: SD_LAB_SEED or %d)" % DEFAULT_SEED)
    p.add_argument("--out", default=None,
                   help="output file (default: stdout)")


def _add_certificate_args(p):
    """The flags _certificate reads."""
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="quantizer-error slack; selects the general certificate")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="remark")


def build_parser() -> _Parser:
    top = _Parser(prog="sdlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("simulate", help="run the modulator, write a trajectory")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta", type=float, required=True,
                   help="input bound; constant mode feeds f = beta")
    p.add_argument("--input", choices=("constant", "random"), default="constant")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trilevel", action="store_true",
                   help="use the three-level quantizer with a zero band")
    p.add_argument("--deadband", type=float, default=None,
                   help="half-width of the trilevel zero band (default 0.5)")
    _add_seed_out(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("certificate", help="compute a stability certificate")
    _add_certificate_args(p)
    p.add_argument("--gamma", type=float, default=None,
                   help="coupling override for the general certificate")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_certificate)

    p = sub.add_parser("region", help="export the invariant-region curves")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--points", type=int, default=513)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_region)

    p = sub.add_parser("verify", help="sample the region and check invariance")
    _add_certificate_args(p)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--deltas", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--workers", type=int, default=None)
    _add_seed_out(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reconstruct",
                       help="measure reconstruction error over sampling rates")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--components", type=int, default=8)
    p.add_argument("--rates", default="32,64,128,256",
                   help="comma-separated oversampling rates")
    p.add_argument("--lambda1", type=float, default=None, help="default 1")
    p.add_argument("--lambda2", type=float, default=None, help="default 1")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--chaotic", action="store_true",
                   help="couple the gains to the rate: lambda1 = lambda2 = 1 + 1/T")
    p.add_argument("--rolloff", default="bump")
    p.add_argument("--T0", type=float, default=2.0)
    p.add_argument("--trunc-tol", type=float, default=1e-8)
    _add_seed_out(p)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("sweep", help="run a figure sweep, write its CSV table")
    p.add_argument("fig", choices=("fig1", "fig2", "fig3", "fig4"))
    p.add_argument("--lambda-min", type=float, default=1.0)
    p.add_argument("--lambda-max", type=float, default=1.12)
    p.add_argument("--grid-step", type=float, default=0.005)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="remark")
    p.add_argument("--alpha-cap", type=float, default=0.99)
    p.add_argument("--input", choices=("constant", "random"), default="constant")
    p.add_argument("--max-iters", type=int, default=1_000_000)
    p.add_argument("--divergence-bound", type=float, default=1000.0)
    p.add_argument("--bisect-tol", type=float, default=1e-3)
    p.add_argument("--workers", type=int, default=None)
    _add_seed_out(p)
    p.set_defaults(handler=cmd_sweep)

    return top


def cmd_simulate(args) -> int:
    if args.deadband is not None and not args.trilevel:
        raise InvalidInputError("--deadband applies only with --trilevel")
    band = 0.5 if args.deadband is None else args.deadband
    params = SchemeParams(args.lambda1, args.lambda2, args.gamma,
                          band if args.trilevel else 0.0)
    if not (0.0 <= args.beta < 1.0):
        raise InvalidInputError(f"beta must lie in [0, 1), got {args.beta!r}")
    if args.steps < 1:
        raise InvalidInputError("steps must be positive")
    seed = _resolve_seed(args.seed)  # validated even where unused
    if args.input == "constant":
        source = args.beta
    else:
        source = np.random.default_rng(seed).uniform(
            -args.beta, args.beta, _check_array_len(args.steps, "steps"))
    try:
        traj = run(params, source, args.steps)
    except DivergenceError as e:  # main reports it and exits 4
        if e.trajectory is not None:
            write_trajectory_csv(_out(args), e.trajectory)
        raise
    write_trajectory_csv(_out(args), traj)
    return 0


def _certificate(args):
    """thm1 without --epsilon, thm2 with it; a flag the choice ignores is
    refused (--variant shapes only thm1, --gamma only thm2)."""
    gamma = getattr(args, "gamma", None)  # only `certificate` has --gamma
    if args.epsilon is None:
        if gamma is not None:
            raise InvalidInputError("--gamma applies only with --epsilon")
        return thm1_certificate(args.alpha, args.lam,
                                variant=_VARIANTS[args.variant])
    if args.variant != "remark":
        raise InvalidInputError("--variant eq5 does not apply with --epsilon: "
                                "the general certificate is remark-derived")
    return thm2_certificate(args.alpha, args.lam, args.epsilon,
                            gamma_choice=gamma)


def cmd_certificate(args) -> int:
    write_json(_out(args), _certificate(args).to_json_dict())
    return 0


def cmd_region(args) -> int:
    spec = RegionSpec(alpha=args.alpha, C=args.C)
    write_region_csv(_out(args), spec, n_points=args.points)
    return 0


def cmd_verify(args) -> int:
    try:
        cert, note = _certificate(args), None
    except InfeasibleError as e:
        cert = unchecked_certificate(args.alpha, args.lam, epsilon=args.epsilon,
                                     variant=_VARIANTS[args.variant])
        note = f"no certificate ({e.bound} bound fails)"
    report = verify_invariance(cert, n_points=args.points, keep=100,
                               n_deltas=args.deltas,
                               seed=_resolve_seed(args.seed),
                               workers=args.workers, tol=args.tol)
    if note:  # only once the check has run: it may refuse its arguments
        print(f"{note}: checking the nominal region anyway", file=sys.stderr)
    write_json(_out(args), report.to_json_dict())
    print(f"checked {report.n_checked} transitions: "
          f"{report.n_violations} violations", file=sys.stderr)
    return 0 if report.ok else 2


def cmd_reconstruct(args) -> int:
    gains = (args.lambda1, args.lambda2)
    if args.chaotic and gains != (None, None):
        raise InvalidInputError("--lambda1 and --lambda2 do not apply with "
                                "--chaotic, which sets both gains to 1 + 1/T")
    try:
        rates = [float(s) for s in args.rates.split(",") if s.strip()]
    except ValueError:
        raise InvalidInputError(f"bad --rates value {args.rates!r}") from None
    if not rates:
        raise InvalidInputError("need at least one sampling rate")
    filt = design_filter(T0=args.T0, trunc_tol=args.trunc_tol,
                         rolloff=args.rolloff)
    signal = gen_signal(_resolve_seed(args.seed), args.components, args.beta)
    if args.chaotic:
        def params(T):
            return SchemeParams(1.0 + 1.0 / T, 1.0 + 1.0 / T, args.gamma)
    else:
        params = SchemeParams(*(1.0 if g is None else g for g in gains), args.gamma)
    rows = error_curve(signal, params, rates, filt)
    write_csv(_out(args), rows)
    try:
        slope = order_fit(rows)
        print(f"order fit: slope {slope:.4f} over {len(rows)} rates",
              file=sys.stderr)
    except InsufficientDataError:
        print("order fit: skipped (needs 3 usable rates)", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    if not (args.grid_step > 0.0 and math.isfinite(args.lambda_max)
            and args.lambda_max >= args.lambda_min >= 1.0):
        raise InvalidInputError("need finite 1 <= lambda-min <= lambda-max "
                                "and a positive grid-step")
    span = (args.lambda_max - args.lambda_min) / args.grid_step
    _check_array_len(span, f"lambda points at grid-step {args.grid_step!r}")
    cfg = SweepConfig(
        lambda_grid=np.linspace(args.lambda_min, args.lambda_max,
                                int(round(span)) + 1),
        input_mode="constant" if args.input == "constant" else "random-uniform",
        max_iters=args.max_iters,
        divergence_bound=args.divergence_bound,
        bisect_tol=args.bisect_tol,
        seed=_resolve_seed(args.seed),
        variant=_VARIANTS[args.variant],
        alpha_cap=args.alpha_cap,
        workers=args.workers,
    )
    run_fig = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3,
               "fig4": run_fig4}[args.fig]
    write_csv(_out(args), run_fig(cfg))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help and friends
        code = e.code
        return int(code) if isinstance(code, int) else 0
    try:
        with warnings.catch_warnings():  # the filters stay as they are
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.handler(args)
    except BrokenPipeError:
        # the reader is gone: keep the interpreter's final flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as e:  # after BrokenPipeError, one of its subclasses
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvalidInputError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 1
    except InsufficientDataError as e:
        print(f"insufficient data: {e}", file=sys.stderr)
        return 1
    except (InfeasibleError, ResourceError, NoSolutionError,
            DegenerateConfigurationError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"divergence at step {e.step}: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"infeasible: out of memory: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
