"""Acceptance gate: nine end-to-end checks, one printed PASS/FAIL line each.

Runs the assembled toolkit the way a user would and verifies the headline
behaviors: descent certificates on seeded runs, the two desk-scale benchmark
tables landing in their expected bands, prox exactness against the grid
oracle, gradient and subgradient analytics, the power-iteration eigenvalue
against an independent dense route, the extrapolation schedule's range, the
stationarity of converged iterates, and bit-for-bit reproducibility, whose
fingerprint is also pinned to its recorded digest.

Criteria 2, 3, 8, and 9 share two benchmark tables built once per session;
together they dominate the suite's runtime (several minutes).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from dcopt.bench import BenchmarkPlan, cell_rows, nontiming_fingerprint, run_benchmark
from dcopt.instances import generate_instance, l12_lambda_bound
from dcopt.linalg import lmax_gram
from dcopt.regularizers import (
    L1MinusL2,
    LogPenalty,
    MCP,
    SCAD,
    TransformedL1,
    full_prox,
    p2_subgrad,
)
from dcopt.solvers import ExtrapolationState, SolverConfig, check_descent, next_beta, solve

from oracles import (
    fd_gradient,
    jacobi_lmax,
    prox_objective,
    prox_oracle,
    smooth_eval,
    textbook_p2_lipschitz,
)

DESK_CELL = (720, 2560, 80)
DESK_REPS = 10
TOL = 1e-5


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def table_l12():
    plan = BenchmarkPlan(
        grid=[DESK_CELL],
        lambdas=[5e-4],
        reg="l1-l2",
        instances_per_cell=DESK_REPS,
        master_seed=0,
    )
    return plan, run_benchmark(plan)


@pytest.fixture(scope="module")
def table_log():
    plan = BenchmarkPlan(
        grid=[DESK_CELL],
        lambdas=[1e-3],
        reg="log:eps=0.5",
        instances_per_cell=DESK_REPS,
        master_seed=0,
    )
    return plan, run_benchmark(plan)


def test_criterion_1_descent_certificates():
    """30 seeded runs per solver across all five regularizers: zero descent
    violations, under 30 seconds."""
    sizes = [(40, 100, 5), (70, 200, 8), (100, 300, 10)]
    specs = [
        L1MinusL2(1e-3),
        LogPenalty(1e-3, 0.5),
        MCP(1e-3, 5.0),
        SCAD(1e-3, 3.7),
        TransformedL1(1e-3, 1.0),
    ]
    start = time.perf_counter()
    runs = violations = 0
    for m, n, s in sizes:
        for seed in (0, 1):
            inst = generate_instance(m, n, s, seed=seed)
            L = lmax_gram(inst.A).value
            for spec in specs:
                for algorithm in ("pdca_e", "pdca"):
                    res = solve(inst, spec, SolverConfig(algorithm=algorithm, L_override=L))
                    report = check_descent(res, L)
                    runs += 1
                    violations += report.violations
    wall = time.perf_counter() - start
    ok = violations == 0 and runs == 60 and wall < 30.0
    _report(1, ok, f"{runs} runs, {violations} descent violations, {wall:.1f}s")


def test_criterion_2_l1l2_desk_table(table_l12):
    """Hard l1-l2 cell: plain DCA caps, extrapolation cuts iterations hard,
    and the objective ordering pdca_e <= gist <= pdca holds on the means."""
    _, records = table_l12
    row = cell_rows(records)[0]
    gist, pdca_e, pdca = row.stats["gist"], row.stats["pdca_e"], row.stats["pdca"]
    checks = [
        ("pdca cap>=0.9", pdca.cap_fraction >= 0.9),
        ("pdca_e iters in [640,1280]", 640.0 <= pdca_e.iter_mean <= 1280.0),
        ("gist slower than pdca_e", gist.iter_mean > pdca_e.iter_mean),
        ("fval order", pdca_e.fval_mean <= gist.fval_mean <= pdca.fval_mean),
        ("pdca_e fval in [2.5e-2,3.5e-2]", 2.5e-2 <= pdca_e.fval_mean <= 3.5e-2),
    ]
    failed = [name for name, good in checks if not good]
    detail = (
        f"cap={pdca.cap_fraction:.2f}, iters pdca_e={pdca_e.iter_mean:.1f} "
        f"gist={gist.iter_mean:.1f}, fvals {pdca_e.fval_mean:.4e} <= "
        f"{gist.fval_mean:.4e} <= {pdca.fval_mean:.4e}"
    )
    _report(2, not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_3_log_desk_table(table_log):
    """Log-penalty cell: every plain-DCA run terminates before the cap, the
    iteration means sit in their bands, and all three solvers agree on F."""
    _, records = table_log
    row = cell_rows(records)[0]
    gist, pdca_e, pdca = row.stats["gist"], row.stats["pdca_e"], row.stats["pdca"]
    fvals = [gist.fval_mean, pdca_e.fval_mean, pdca.fval_mean]
    rel_spread = max(
        abs(a - b) / max(abs(a), abs(b)) for a in fvals for b in fvals
    )
    checks = [
        ("pdca terminates before cap", pdca.cap_fraction == 0.0),
        ("pdca iters in [3600,5000]", 3600.0 <= pdca.iter_mean <= 5000.0),
        ("pdca_e iters in [280,520]", 280.0 <= pdca_e.iter_mean <= 520.0),
        ("fval rel spread <= 5e-4", rel_spread <= 5e-4),
    ]
    failed = [name for name, good in checks if not good]
    detail = (
        f"pdca cap={pdca.cap_fraction:.2f} iters={pdca.iter_mean:.1f}, "
        f"pdca_e iters={pdca_e.iter_mean:.1f}, fval spread={rel_spread:.2e}"
    )
    _report(3, not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_prox_vs_oracle():
    """full_prox never loses to the refined grid oracle by more than 1e-6:
    1000 scalar cases per family plus 200 coupled 2-D l1-l2 cases, <60 s."""
    rng = np.random.default_rng(0xACCE97)
    start = time.perf_counter()

    def sample_spec(family: str):
        lam = 10.0 ** rng.uniform(-4, 0)
        if family == "l1-l2":
            return L1MinusL2(lam)
        if family == "log":
            return LogPenalty(lam, rng.uniform(0.1, 2.0))
        if family == "mcp":
            return MCP(lam, rng.uniform(1.2, 8.0))
        if family == "scad":
            return SCAD(lam, rng.uniform(2.2, 8.0))
        return TransformedL1(lam, rng.uniform(0.3, 5.0))

    worst = -np.inf
    cases = 0
    for family in ("l1-l2", "log", "mcp", "scad", "tl1"):
        for _ in range(1000):
            spec = sample_spec(family)
            z = rng.normal(0.0, 2.0, size=1)
            L_t = 10.0 ** rng.uniform(-0.7, 1.3)
            ours = prox_objective(spec, z, L_t, full_prox(spec, z, L_t))
            ref = prox_objective(spec, z, L_t, prox_oracle(spec, z, L_t)[0])
            worst = max(worst, ours - ref)
            cases += 1
    for _ in range(200):
        spec = sample_spec("l1-l2")
        z = rng.normal(0.0, 2.0, size=2)
        L_t = 10.0 ** rng.uniform(-0.7, 1.3)
        ours = prox_objective(spec, z, L_t, full_prox(spec, z, L_t))
        ref = prox_objective(spec, z, L_t, prox_oracle(spec, z, L_t)[0])
        worst = max(worst, ours - ref)
        cases += 1
    wall = time.perf_counter() - start
    ok = worst <= 1e-6 and wall < 60.0
    _report(4, ok, f"{cases} cases, worst objective excess {worst:.2e}, {wall:.1f}s")


def test_criterion_5_gradient_and_lipschitz():
    """Analytic gradient matches central differences to 1e-6 relative on 100
    cases; every smooth P2 subgradient is Lipschitz within 1e-10 slack."""
    rng = np.random.default_rng(0x5E0501)
    worst_rel = 0.0
    for i in range(10):
        inst = generate_instance(15 + i, 30 + 2 * i, 4, seed=100 + i)
        for _ in range(10):
            x = rng.normal(0.0, 1.0, size=inst.n)
            grad = smooth_eval(inst, x).gradient
            fd = fd_gradient(lambda v: smooth_eval(inst, v).value, x)
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
            worst_rel = max(worst_rel, rel)

    smooth_specs = [
        LogPenalty(0.9, 0.4),
        MCP(0.7, 2.5),
        SCAD(0.6, 3.5),
        TransformedL1(0.5, 1.2),
    ]
    worst_excess = -np.inf
    for spec in smooth_specs:
        lip = textbook_p2_lipschitz(spec)
        for _ in range(1000):
            x = rng.normal(0.0, 3.0, size=5)
            y = x + rng.normal(0.0, rng.choice([1e-3, 0.3, 3.0]), size=5)
            lhs = np.linalg.norm(p2_subgrad(spec, x) - p2_subgrad(spec, y))
            worst_excess = max(worst_excess, lhs - lip * np.linalg.norm(x - y))
    ok = worst_rel <= 1e-6 and worst_excess <= 1e-10
    _report(
        5,
        ok,
        f"gradient rel err {worst_rel:.2e} (100 cases), "
        f"Lipschitz excess {worst_excess:.2e} (4000 pairs)",
    )


def test_criterion_6_lmax_vs_dense_eigensolver():
    """Power iteration agrees with an independent Jacobi eigensolver to 1e-8
    relative on 50 random matrices up to 30x20, under 10 seconds."""
    rng = np.random.default_rng(0x7AC0B1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 31))
        n = int(rng.integers(1, 21))
        A = rng.normal(0.0, 1.0, size=(m, n)) * 10.0 ** rng.uniform(-2, 2)
        est = lmax_gram(A)
        ref = jacobi_lmax(A)
        assert est.converged
        worst = max(worst, abs(est.value - ref) / ref)
    wall = time.perf_counter() - start
    ok = worst <= 1e-8 and wall < 10.0
    _report(6, ok, f"50 matrices, worst rel diff {worst:.2e}, {wall:.1f}s")


def test_criterion_7_beta_schedule_range():
    """10^4 schedule steps under the fixed period plus random adaptive
    triggers: every beta in [0, 1), strictly bounded away from 1, and exactly
    zero on the step after any restart."""
    rng = np.random.default_rng(0xBE7A)
    state = ExtrapolationState()
    betas = []
    reset_betas = []
    for _ in range(10_000):
        trigger = bool(rng.random() < 0.02)
        resetting = trigger or state.iterations_since_restart == 200
        beta, state = next_beta(state, 200, trigger)
        betas.append(beta)
        if resetting:
            reset_betas.append(beta)
    arr = np.asarray(betas)
    ok = (
        float(arr.min()) >= 0.0
        and float(arr.max()) < 1.0
        and len(reset_betas) > 40
        and all(b == 0.0 for b in reset_betas)
    )
    _report(
        7,
        ok,
        f"10000 steps, beta in [{arr.min():.3f}, {arr.max():.6f}], "
        f"{len(reset_betas)} resets all exactly 0",
    )


def test_criterion_8_stationarity_and_weight_bounds(table_l12, table_log):
    """Converged pdca_e/gist benchmark runs sit within 10x tol of first-order
    stationarity, and every l1-l2 instance admits its lambda."""
    records = table_l12[1] + table_log[1]
    checked = 0
    worst = 0.0
    for rec in records:
        if rec.solver in ("pdca_e", "gist") and rec.status == "converged":
            checked += 1
            worst = max(worst, rec.residual)
    l12 = table_l12[1]
    admissible = all(r.admissible and r.lambda_bound > r.lam for r in l12)
    ok = checked > 0 and worst <= 10.0 * TOL and admissible
    _report(
        8,
        ok,
        f"{checked} converged runs, worst residual {worst:.2e} "
        f"(bound {10.0 * TOL:.0e}), lambda admissible on {len(l12)} records",
    )


def test_criterion_9_bitwise_reproducibility(table_l12):
    """Re-running the l1-l2 desk plan reproduces every non-timing output
    bit for bit."""
    plan, records = table_l12
    again = run_benchmark(plan)
    first, second = nontiming_fingerprint(records), nontiming_fingerprint(again)
    ok = first == second
    digest = hashlib.sha256(first.encode()).hexdigest()[:16]
    _report(9, ok, f"fingerprint sha256:{digest} {'==' if ok else '!='} rerun")


# sha256 prefix of the l1-l2 desk plan's fingerprint under the pinned numpy build
# and SIMD dispatch; criterion 9 alone would pass on any bits that rerun the same
_L12_DESK_FINGERPRINT = "3cfa3702199cdaef"


def test_criterion_9_fingerprint_is_pinned(table_l12, pinned_bits):
    """The l1-l2 desk plan reproduces the recorded fingerprint, not only its own rerun."""
    digest = hashlib.sha256(nontiming_fingerprint(table_l12[1]).encode()).hexdigest()[:16]
    assert digest == _L12_DESK_FINGERPRINT
