"""Command-line driver: instance generation, single solves, benchmark plans.

Exit codes: 0 success, 2 invariant violation (bench only: descent audit,
weight admissibility, unconverged L) or unusable input, 3 solver abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .bench import InvariantViolation, parse_plan, render_table, run_benchmark
from .instances import generate_instance, load_instance, save_instance
from .linalg import lmax_gram
from .regularizers import parse_reg
from .solvers import SOLVERS, SolveResult, SolverConfig, merit, solve, stationarity_residual


def _file_id(path: str):
    # an existing file by its inode, which every hard link to it shares; a new one by its name
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_out_paths(*paths: str | None, inputs: tuple[str, ...] = ()) -> None:
    # before any work, and without creating a file, so a run that fails later leaves none;
    # an output that is an input or another output (by any name or link) would overwrite it
    taken = dict.fromkeys(map(_file_id, inputs), "an input")
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise ValueError(f"output path {path!r} is a directory")
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
            raise ValueError(f"output path {path!r}: {parent!r} is not a writable directory")
        if (key := _file_id(path)) in taken:
            raise ValueError(f"output path {path!r} names {taken[key]}")
        taken[key] = "another output"


def _cmd_gen(args: argparse.Namespace) -> int:
    out = args.out or f"instance-m{args.m}-n{args.n}-s{args.s}-seed{args.seed}.dcin"
    _check_out_paths(out)
    inst = generate_instance(args.m, args.n, args.s, noise_scale=args.noise, seed=args.seed)
    save_instance(inst, out)
    print(out)
    return 0


def _write_trace(path: str, res: SolveResult, L: float) -> None:
    # row t carries x^t's objective and merit, the step into x^t, and the
    # extrapolation weight used at t (which produced x^{t+1}); gist has no E or beta
    steps = [0.0, *res.step_norm_trace.tolist()]
    betas = None if res.beta_trace is None else res.beta_trace.tolist()
    merits = None if betas is None else merit(res, L).tolist()
    with open(path, "w") as fh:
        fh.write("t,F,E,step_norm,beta\n")
        for t, F in enumerate(res.objective_trace.tolist()):
            e_cell = repr(merits[t]) if merits is not None else ""
            s_cell = repr(steps[t]) if t >= 1 else ""
            b_cell = repr(betas[t]) if betas is not None and t < res.iterations else ""
            fh.write(f"{t},{F!r},{e_cell},{s_cell},{b_cell}\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    # every option is checked before the container is read and L is computed
    spec = parse_reg(args.reg)
    cfg = SolverConfig(
        algorithm=args.solver,
        tol=args.tol,
        max_iter=args.max_iter,
        restart_period=args.restart,
        adaptive_restart=not args.no_adaptive,
    )
    _check_out_paths(args.trace, inputs=(args.instance,))
    inst = load_instance(args.instance)
    est = lmax_gram(inst.A)
    if not est.converged:
        print("warning: lmax_gram did not converge; using best estimate", file=sys.stderr)
    res = solve(inst, spec, dataclasses.replace(cfg, L_override=est.value))
    fval = float(res.objective_trace[-1])
    residual = stationarity_residual(inst, spec, res.x_final, est.value)
    print(f"{res.iterations},{res.status},{fval:.4e},{residual:.4e}")
    if args.trace:
        _write_trace(args.trace, res, est.value)
    if res.status == "aborted":
        print(f"solver aborted: {res.message}", file=sys.stderr)
        return 3
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    with open(args.plan) as fh:
        plan = parse_plan(fh.read())
    _check_out_paths(args.out_csv, args.out_md, inputs=(args.plan,))
    try:
        records = run_benchmark(plan)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    with open(args.out_csv, "w") as fh:
        fh.write(render_table(records, "csv") + "\n")
    print(args.out_csv)
    if args.out_md:
        with open(args.out_md, "w") as fh:
            fh.write(render_table(records, "markdown") + "\n")
        print(args.out_md)
    rc = 0
    for rec in records:
        if rec.status == "aborted":
            print(
                f"solver abort: {rec.solver} on ({rec.m},{rec.n},{rec.s}) "
                f"lam {rec.lam:g} rep {rec.replicate}: {rec.message}",
                file=sys.stderr,
            )
            rc = 3
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcopt",
        description="DC-regularized least squares: generate instances, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a problem-instance container")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--s", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--noise", type=float, default=0.01)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="run one solver on a stored instance")
    slv.add_argument("--instance", required=True)
    slv.add_argument("--reg", required=True, help="e.g. l1-l2:lambda=5e-4 or log:lambda=1e-3,eps=0.5")
    slv.add_argument("--solver", required=True, choices=SOLVERS)
    slv.add_argument("--tol", type=float, default=SolverConfig.tol)
    slv.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    slv.add_argument("--restart", type=int, default=SolverConfig.restart_period,
                     help="fixed restart period; 0 disables (outside the convergence theorem)")
    slv.add_argument("--no-adaptive", action="store_true")
    slv.add_argument("--trace", default=None, help="write per-iteration t,F,E,step_norm,beta CSV")
    slv.set_defaults(func=_cmd_solve)

    ben = sub.add_parser("bench", help="run a benchmark plan")
    ben.add_argument("--plan", required=True)
    ben.add_argument("--out-csv", required=True)
    ben.add_argument("--out-md", default=None)
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed plan/reg/container or unreadable path: usage-level failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
