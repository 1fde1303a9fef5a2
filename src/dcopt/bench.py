"""Benchmark plans, the instance-grid runner, and table rendering.

A plan names a grid of (m, n, s) cells, a regularizer without its weight
(such as 'log:eps=0.5'), a list of weights, solvers, and a replicate count.
Instances are seeded by a stable hash of (master_seed, m, n, s, replicate),
so they are shared across weights within a cell and adding a weight never
reshuffles them. Every l1-l2 weight is checked against its instance's bound
before L is computed, and every run with a beta trace (pdca_e, pdca) is
audited against the descent inequality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .instances import generate_instance, l12_lambda_bound
from .linalg import (_check_cell, _check_seed, _is_count, _read_items, _read_value, combine_seed,
                     lmax_gram)
from .regularizers import parse_reg
from .solvers import SOLVERS, SolverConfig, check_descent, solve, stationarity_residual


class InvariantViolation(RuntimeError):
    """A benchmark run violated a checked invariant."""


@dataclass(frozen=True)
class BenchmarkPlan:
    grid: tuple[tuple[int, int, int], ...]
    lambdas: tuple[float, ...]
    reg: str
    solvers: tuple[str, ...] = SOLVERS
    instances_per_cell: int = 30
    master_seed: int = 0

    def __post_init__(self):
        if not self.grid:
            raise ValueError("plan grid must be nonempty")
        for m, n, s in self.grid:
            _check_cell(m, n, s)
        if not self.lambdas:
            raise ValueError("plan needs at least one lambda")
        if not _is_count(self.instances_per_cell):
            raise ValueError("instances_per_cell must be an integer >= 1")
        _check_seed(self.master_seed, "master_seed")
        for name in self.solvers:
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
        if not self.solvers:
            raise ValueError("plan needs at least one solver")
        # fail fast on a malformed reg or a bad weight
        for lam in self.lambdas:
            parse_reg(self.reg, lam)
        # a numpy cell or weight would print as np.int64(...) or np.float64(...)
        object.__setattr__(self, "grid", tuple((int(m), int(n), int(s)) for m, n, s in self.grid))
        object.__setattr__(self, "lambdas", tuple(map(float, self.lambdas)))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        for what, entries in (("grid cell", self.grid), ("lambda", self.lambdas),
                              ("solver", self.solvers)):
            if len(set(entries)) < len(entries):
                raise ValueError(f"plan repeats a {what}")


_PLAN_KEYS = ("grid", "lambdas", "reg", "solvers", "instances", "seed")


def _cell(tok: str) -> tuple[int, int, int]:
    m, n, s = map(int, tok.lower().split("x"))  # ValueError unless three integers
    return m, n, s


def parse_plan(text: str) -> BenchmarkPlan:
    """Parse the flat plan format: 'key = value' lines and '#' comments.

    grid, lambdas and solvers are lists separated by commas, semicolons or whitespace.
    """
    lines = (raw.split("#", 1)[0] for raw in text.splitlines())
    kv = _read_items(filter(str.strip, lines), _PLAN_KEYS, "plan")
    grid, lambdas, solvers = (kv[key].replace(",", " ").replace(";", " ").split()
                              for key in ("grid", "lambdas", "solvers"))
    return BenchmarkPlan(
        grid=[_read_value("plan", "grid", tok, _cell, "of the form MxNxS") for tok in grid],
        lambdas=[_read_value("plan", "lambdas", tok, float, "a number") for tok in lambdas],
        reg=kv["reg"],
        solvers=solvers,
        instances_per_cell=_read_value("plan", "instances", kv["instances"], int, "an integer"),
        master_seed=_read_value("plan", "seed", kv["seed"], int, "an integer"),
    )


@dataclass(frozen=True)
class RunRecord:
    m: int
    n: int
    s: int
    lam: float
    replicate: int
    seed: int
    solver: str
    iterations: int
    status: str
    fval: float
    residual: float
    wall_seconds: float
    t_lmax: float
    lambda_bound: float | None
    message: str = ""


@dataclass(frozen=True)
class CellStats:
    iter_mean: float
    cap_fraction: float
    cpu_mean: float
    fval_mean: float


@dataclass(frozen=True)
class CellRow:
    m: int
    n: int
    s: int
    lam: float
    t_lmax_mean: float
    stats: dict[str, CellStats]


def cell_rows(records: list[RunRecord]) -> list[CellRow]:
    """Per-(cell, lambda) means over the records, in the order first seen.

    Sums run in record order. t_lmax is averaged over a cell's replicates.
    """
    runs: dict[tuple, dict[str, list[RunRecord]]] = {}
    lmax: dict[tuple, dict[int, float]] = {}
    for r in records:
        runs.setdefault((r.m, r.n, r.s, r.lam), {}).setdefault(r.solver, []).append(r)
        lmax.setdefault((r.m, r.n, r.s), {})[r.replicate] = r.t_lmax
    rows = []
    for (m, n, s, lam), by_solver in runs.items():
        per_rep = lmax[(m, n, s)]
        stats = {
            name: CellStats(
                iter_mean=sum(r.iterations for r in rs) / len(rs),
                cap_fraction=sum(r.status == "iteration_cap" for r in rs) / len(rs),
                cpu_mean=sum(r.wall_seconds for r in rs) / len(rs),
                fval_mean=sum(r.fval for r in rs) / len(rs),
            )
            for name, rs in by_solver.items()
        }
        rows.append(CellRow(m, n, s, lam, sum(per_rep.values()) / len(per_rep), stats))
    return rows


def replicate_seed(master_seed: int, m: int, n: int, s: int, replicate: int) -> int:
    """Stable instance seed; independent of the weight by construction."""
    _check_seed(master_seed, "master seed")
    _check_seed(replicate, "replicate")
    _check_cell(m, n, s)
    return combine_seed(master_seed, m, n, s, replicate)


def _run_cell_replicate(
    plan: BenchmarkPlan, cell: tuple[int, int, int], replicate: int
) -> list[RunRecord]:
    m, n, s = cell
    seed = replicate_seed(plan.master_seed, m, n, s, replicate)
    inst = generate_instance(m, n, s, noise_scale=0.01, seed=seed)
    specs = [parse_reg(plan.reg, lam) for lam in plan.lambdas]
    bound = l12_lambda_bound(inst) if specs[0].name == "l1-l2" else None
    for lam in plan.lambdas:
        if bound is not None and not lam < bound:
            raise InvariantViolation(f"inadmissible weight: lam={lam:g} vs bound {bound:.6g} "
                                     f"on cell {cell} rep {replicate}")

    t0 = time.perf_counter()
    est = lmax_gram(inst.A)
    t_lmax = time.perf_counter() - t0
    if not est.converged:
        raise InvariantViolation(f"lmax_gram failed to converge on cell {cell} rep {replicate}")
    L = est.value

    records: list[RunRecord] = []
    for lam, spec in zip(plan.lambdas, specs):
        for solver_name in plan.solvers:
            cfg = SolverConfig(algorithm=solver_name, L_override=L)
            res = solve(inst, spec, cfg)
            if res.beta_trace is not None:
                audit = check_descent(res, L)
                if audit.violations > 0:
                    raise InvariantViolation(
                        f"descent inequality violated {audit.violations} times "
                        f"(max shortfall {audit.max_violation:.3e}) by {solver_name} "
                        f"on cell {cell} rep {replicate} lam {lam:g}"
                    )
            records.append(
                RunRecord(
                    m=m,
                    n=n,
                    s=s,
                    lam=lam,
                    replicate=replicate,
                    seed=seed,
                    solver=solver_name,
                    iterations=res.iterations,
                    status=res.status,
                    fval=float(res.objective_trace[-1]),
                    residual=stationarity_residual(inst, spec, res.x_final, L),
                    wall_seconds=res.wall_seconds,
                    t_lmax=t_lmax,
                    lambda_bound=bound,
                    message=res.message,
                )
            )
    return records


def run_benchmark(plan: BenchmarkPlan) -> list[RunRecord]:
    """Run every (cell, replicate, lambda, solver) combination, in plan order.

    Instances and their L are computed once per (cell, replicate) and shared
    across lambdas and solvers; solver wall times therefore never include the
    L computation, which is reported separately as t_lmax. An inadmissible
    l1-l2 weight, an unconverged L or a descent-audit failure raises
    InvariantViolation at its (cell, replicate); only aborted solves are
    flagged on the records, and the CLI surfaces them.
    """
    return [rec for cell in plan.grid for rep in range(plan.instances_per_cell)
            for rec in _run_cell_replicate(plan, cell, rep)]


# after n, m, s, lambda, t_lmax: one column per (prefix, solver), blank where a solver did not run
_COLUMNS = (
    ("iter", lambda st: "max" if st.cap_fraction == 1.0 else f"{st.iter_mean:.0f}"),
    ("cpu", lambda st: f"{st.cpu_mean:.3f}"),
    ("fval", lambda st: f"{st.fval_mean:.4e}"),
)
_HEADER = ["n", "m", "s", "lambda", "t_lmax"] + [
    f"{col}_{name.replace('_', '')}" for col, _ in _COLUMNS for name in SOLVERS]


def _row_cells(row: CellRow) -> list[str]:
    return [str(row.n), str(row.m), str(row.s), repr(float(row.lam)), f"{row.t_lmax_mean:.3f}"] + [
        cell(row.stats[name]) if name in row.stats else ""
        for _, cell in _COLUMNS for name in SOLVERS]


def render_table(records: list[RunRecord], fmt: str = "csv") -> str:
    """Render the per-cell table of the records as csv or markdown (same columns)."""
    rows = cell_rows(records)
    if not rows:
        raise ValueError("cannot render an empty table")
    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines.extend(",".join(_row_cells(row)) for row in rows)
        return "\n".join(lines)
    if fmt == "markdown":
        lines = ["| " + " | ".join(_HEADER) + " |", "|" + "---|" * len(_HEADER)]
        lines.extend("| " + " | ".join(_row_cells(row)) + " |" for row in rows)
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def nontiming_fingerprint(records: list[RunRecord]) -> str:
    """Canonical text of everything except wall-clock columns: one line per record.

    Two runs of the same plan with the same master seed must produce equal
    fingerprints; floats are rendered with repr for exact round-tripping. The
    table's per-cell means are functions of these fields, so they are not repeated.
    """
    return "\n".join(
        f"rec,{r.m},{r.n},{r.s},{r.lam!r},{r.replicate},{r.seed},{r.solver},"
        f"{r.iterations},{r.status},{r.fval!r},{r.residual!r},{r.lambda_bound!r},{r.message}"
        for r in sorted(records, key=lambda r: (r.m, r.n, r.s, r.lam, r.replicate, r.solver)))
