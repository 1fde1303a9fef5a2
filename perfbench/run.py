#!/usr/bin/env python3
"""dcopt benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-l1l2 --seed 0 --seconds 40 --trace 0

The process runs units of the chosen workload one after another, with BLAS
pinned to one thread, until the next unit would overrun ``--seconds`` (at
least one unit; two when tracing). Every unit drives the public ``dcopt`` API
in the README quick-start order and times each call with ``perf_counter``.
Every output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (checks) and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
regularizer and Gaussian-sampling calls are wrapped in spans, every other unit
runs untraced to measure the overhead, and the metrics are the per-layer ones.
The exit code is 1 when a check fails and 2 when ``dcopt`` cannot be imported
from ``src/`` next to this directory or BENCHMARK.json disagrees with the
metrics defined here. See README.md here for the workloads and
what each per-layer metric is expected to move.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: the benchmark is the single-threaded
# baseline, and a thread pool would make gemv times depend on the machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_dcopt():
    """Import dcopt from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dcopt
    except ImportError as exc:
        _die(f"cannot import dcopt from {ROOT / 'src'}: {exc}")
    if (ROOT / "src") not in Path(dcopt.__file__).resolve().parents:
        _die(f"dcopt resolved to {dcopt.__file__}, outside this checkout")
    return dcopt


dcopt = _import_dcopt()
import numpy as np  # noqa: E402

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

DESK_CELL = (720, 2560, 80)  # desk-l1l2.plan / desk-log.plan
IO_CELL = (2160, 7680, 240)  # third cell of full-grid-l1l2.plan
NOISE = 0.01  # the noise scale bench._run_cell_replicate uses
PDCA_FAMILY = ("pdca_e", "pdca")
CONVERGED_RESIDUAL_MAX = 1e-4  # 10x the default step tolerance, as the README states


@dataclasses.dataclass(frozen=True)
class Workload:
    cell: tuple[int, int, int]
    reg: str | None  # None: the instance data path, no solve
    solvers: tuple[str, ...]


WORKLOADS = {
    "desk-l1l2": Workload(DESK_CELL, "l1-l2:lambda=5e-4", ("gist", "pdca_e", "pdca")),
    "desk-tl1": Workload(DESK_CELL, "tl1:lambda=1e-3,a=1", ("gist", "pdca_e")),
    "instance-io": Workload(IO_CELL, None, ()),
}
ALL_SOLVERS = ("gist", "pdca_e", "pdca")

# ---------------------------------------------------------------------------
# metrics; BENCHMARK.json must list exactly these names and units
# ---------------------------------------------------------------------------

END_TO_END = {"unit_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

REG_CALLS = {  # regularizer functions each solver calls through dcopt.solvers
    "gist": ("full_prox", "reg_value"),
    "pdca_e": ("p1_prox", "p2_subgrad", "reg_value"),
    "pdca": ("p1_prox", "p2_subgrad", "reg_value"),
}

PER_LAYER = {
    "linalg.lmax_gram.s": "s",
    "linalg.lmax_gram.iters": "count",
    "linalg.lmax_gram.rel_gap": "1",
    "linalg.gemv.us": "us",
    "linalg.gemv_t.us": "us",
    "linalg.gemv.gbps": "GB/s",
    "linalg.gemv_t.gbps": "GB/s",
    "linalg.gauss_vector.s": "s",
    "instances.generate_instance.s": "s",
    "instances.generate_instance.peak_x_A": "1",
    "instances.save_instance.s": "s",
    "instances.save_instance.mb": "MiB",
    "instances.load_instance.s": "s",
    "instances.load_instance.peak_x_A": "1",
    "instances.l12_lambda_bound.s": "s",
    "instances.objective.s": "s",
}
for _algo in ALL_SOLVERS:
    PER_LAYER.update({
        f"solvers.{_algo}.s": "s",
        f"solvers.{_algo}.iters": "count",
        f"solvers.{_algo}.self_s": "s",
        f"solvers.{_algo}.us_per_iter": "us",
        f"solvers.{_algo}.gemv_count": "count",
        f"solvers.{_algo}.gemv_share": "1",
    })
    for _fn in REG_CALLS[_algo]:
        PER_LAYER[f"regularizers.{_fn}.{_algo}.calls"] = "count"
        PER_LAYER[f"regularizers.{_fn}.{_algo}.s"] = "s"
PER_LAYER.update({
    "solvers.gist.trials_per_iter": "1",
    "diagnostics.check_descent.s": "s",
    "diagnostics.check_descent.violations": "count",
    "diagnostics.stationarity_residual.s": "s",
    "trace.overhead_frac": "1",
})

# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a call the unit makes directly
    unit: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one run, kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.unit = -1

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.unit)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "unit": s.unit}) + "\n")


# Calls wrapped in a traced unit, as the calling module resolves them: the
# regularizer functions inside dcopt.solvers and gauss_vector inside
# dcopt.instances. A name the module no longer has is left alone.
_WRAPPED = (
    (dcopt.solvers, "p1_prox", "regularizers.p1_prox"),
    (dcopt.solvers, "p2_subgrad", "regularizers.p2_subgrad"),
    (dcopt.solvers, "reg_value", "regularizers.reg_value"),
    (dcopt.solvers, "full_prox", "regularizers.full_prox"),
    (dcopt.instances, "gauss_vector", "linalg.gauss_vector"),
)


@contextmanager
def inner_spans(tracer: Tracer):
    present = [(mod, attr, name, getattr(mod, attr)) for mod, attr, name in _WRAPPED
               if hasattr(mod, attr)]
    try:
        for mod, attr, name, fn in present:
            setattr(mod, attr, tracer.wrap(name, fn))
        yield
    finally:
        for mod, attr, _, fn in present:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def instance_seed(workload: Workload, seed: int) -> int:
    m, n, s = workload.cell
    if workload.reg is None:
        # Generation, the container round trip and the bound cost the same for
        # every instance of a cell, so the workload seed is the plan's master seed.
        return dcopt.replicate_seed(seed, m, n, s, 0)
    # Solver and power-iteration counts differ between instances by up to 2.5x,
    # which would swamp any code change; the desk workloads always solve the
    # desk plans' own first replicate and let the seed act through row_signs.
    return dcopt.replicate_seed(0, m, n, s, 0)


def row_signs(inst, seed: int):
    """The desk instance with rows of (A, b) negated by a seeded +-1 pattern.

    Negating row i of A and b negates every A @ x entry and residual entry
    exactly and leaves every A.T @ r, ||r||^2 and column norm bit-identical,
    so each seed gives other input bytes but the same arithmetic and the same
    results. Seed 0 keeps every sign, so it is the plan's instance itself.
    """
    signs = np.ones(inst.m)
    if seed != 0:
        signs[dcopt.RandomSource(seed, 0).raw(inst.m) & np.uint64(1) == 1] = -1.0
    return dataclasses.replace(inst, A=signs[:, None] * inst.A, b=signs * inst.b)


@dataclasses.dataclass
class UnitResult:
    wall: float
    setup: float
    traced: bool
    records: dict  # what the reference and the results hash compare
    violations: int = 0
    container_mib: float = 0.0  # size of the container an instance-io unit wrote


def desk_unit(w: Workload, seed: int, tracer: Tracer, check: Checks, ref: dict):
    m, n, s = w.cell
    spec = dcopt.parse_reg(w.reg)
    t0 = perf_counter()
    inst = tracer.call("instances.generate_instance", dcopt.generate_instance,
                       m, n, s, noise_scale=NOISE, seed=instance_seed(w, seed))
    t_prep = perf_counter()
    inst = row_signs(inst, seed)
    prep = perf_counter() - t_prep
    est = tracer.call("linalg.lmax_gram", dcopt.lmax_gram, inst.A)
    L = est.value
    setup = perf_counter() - t0 - prep
    out = UnitResult(0.0, setup, False, {"L": repr(L), "lmax_iters": est.iterations})
    for algo in w.solvers:
        res = tracer.call(f"solvers.{algo}", dcopt.solve, inst, spec,
                          dcopt.SolverConfig(algorithm=algo, L_override=L))
        if algo in PDCA_FAMILY:
            audit = tracer.call("diagnostics.check_descent", dcopt.check_descent, res, L)
            out.violations += audit.violations
            check(audit.violations == 0, f"{algo}: {audit.violations} descent violations")
        fval = tracer.call("instances.objective", dcopt.objective, inst, spec, res.x_final)
        resid = tracer.call("diagnostics.stationarity_residual", dcopt.stationarity_residual,
                            inst, spec, res.x_final, L)
        check(res.status != "aborted", f"{algo}: aborted ({res.message})")
        if res.status == "converged":
            check(resid <= CONVERGED_RESIDUAL_MAX, f"{algo}: residual {resid!r} on a converged run")
        out.records[algo] = {"iterations": res.iterations, "status": res.status, "fval": repr(fval)}
    out.wall = perf_counter() - t0 - prep
    check(est.converged, "lmax_gram did not converge")
    for key, want in ref.items():
        check(out.records.get(key) == want,
              f"{key}: got {out.records.get(key)!r}, reference {want!r}")
    return out, inst


def io_unit(w: Workload, seed: int, tracer: Tracer, check: Checks, ref: dict):
    m, n, s = w.cell
    path = WORK / f"io-{os.getpid()}.dcin"
    try:
        t0 = perf_counter()
        inst = tracer.call("instances.generate_instance", dcopt.generate_instance,
                           m, n, s, noise_scale=NOISE, seed=instance_seed(w, seed))
        tracer.call("instances.save_instance", dcopt.save_instance, inst, str(path))
        loaded = tracer.call("instances.load_instance", dcopt.load_instance, str(path))
        bound = tracer.call("instances.l12_lambda_bound", dcopt.l12_lambda_bound, loaded)
        wall = perf_counter() - t0
        size = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    check(size == 48 + 8 * (m * n + m + n + s), f"container is {size} bytes")
    same = all(np.array_equal(getattr(inst, f), getattr(loaded, f))
               for f in ("A", "b", "ground_truth", "support"))
    check(same and (inst.seed, inst.noise_scale) == (loaded.seed, loaded.noise_scale),
          "loaded instance differs from the generated one")
    records = {"lambda_bound": repr(bound)}
    if seed == 0:
        check(records == ref, f"got {records!r}, reference {ref!r}")
    return UnitResult(wall, wall, False, records, container_mib=size / 2**20), inst


def run_unit(w, seed, tracer, check, ref, traced: bool):
    """One unit; returns its UnitResult and the instance it used."""
    tracer.unit += 1
    with inner_spans(tracer) if traced else nullcontext():
        out, inst = (io_unit if w.reg is None else desk_unit)(w, seed, tracer, check, ref)
    out.traced = traced
    return out, inst


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def gemv_us(A) -> tuple[float, float]:
    """Median microseconds of A @ x and A.T @ y on the unit's A."""
    m, n = A.shape
    x = np.linspace(-1.0, 1.0, n)
    y = np.linspace(-1.0, 1.0, m)
    times = {}
    for name, fn in (("gemv", lambda: A @ x), ("gemv_t", lambda: A.T @ y)):
        samples = []
        t_end = perf_counter() + 0.3
        while len(samples) < 7 or perf_counter() < t_end:
            t = perf_counter()
            fn()
            samples.append(perf_counter() - t)
        times[name] = statistics.median(samples) * 1e6
    return times["gemv"], times["gemv_t"]


def peak_x_A(op: str, arg: str) -> float:
    """RSS growth of one generate_instance/load_instance call over the bytes of A,
    measured in a fresh process."""
    out = subprocess.run([sys.executable, str(HERE / "probe_rss.py"), op, arg],
                         capture_output=True, text=True, timeout=170, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["growth_bytes"] / probe["a_bytes"]


def unit_layers(tracer: Tracer, u: UnitResult, unit_id: int, gemv: tuple[float, float]) -> dict:
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.unit == unit_id]
    total: dict[str, float] = {}
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    for i, s in spans:
        key = s.name
        if s.name.startswith("regularizers."):
            key = f"{s.name}.{tracer.spans[s.parent].name.split('.')[1]}"
        total[key] = total.get(key, 0.0) + s.dur
        calls[key] = calls.get(key, 0) + 1
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    v = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    for name in ("linalg.lmax_gram", "linalg.gauss_vector", "instances.generate_instance",
                 "instances.save_instance", "instances.load_instance",
                 "instances.l12_lambda_bound", "instances.objective",
                 "diagnostics.check_descent", "diagnostics.stationarity_residual"):
        v[f"{name}.s"] = total.get(name, 0.0)
    v["linalg.lmax_gram.iters"] = u.records.get("lmax_iters", 0)
    v["diagnostics.check_descent.violations"] = u.violations
    for algo in (a for a in ALL_SOLVERS if a in u.records):
        iters = u.records[algo]["iterations"]
        idx, span = next((i, s) for i, s in spans if s.name == f"solvers.{algo}")
        v[f"solvers.{algo}.s"] = span.dur
        v[f"solvers.{algo}.iters"] = iters
        v[f"solvers.{algo}.self_s"] = span.dur - child_time.get(idx, 0.0)
        v[f"solvers.{algo}.us_per_iter"] = span.dur / iters * 1e6
        for fn in REG_CALLS[algo]:
            v[f"regularizers.{fn}.{algo}.calls"] = calls.get(f"regularizers.{fn}.{algo}", 0)
            v[f"regularizers.{fn}.{algo}.s"] = total.get(f"regularizers.{fn}.{algo}", 0.0)
        # gemv counts follow from the solver loops, they are not counted:
        # pdca family one A.T @ and one A @ per iteration; gist one A.T @ per
        # iteration and one A @ per backtracking trial (one full_prox call each)
        if algo == "gist":
            trials = calls.get("regularizers.full_prox.gist", 0)
            fwd, tr = trials, iters
            v["solvers.gist.trials_per_iter"] = trials / iters
        else:
            fwd, tr = iters, iters
        v[f"solvers.{algo}.gemv_count"] = fwd + tr
        v[f"solvers.{algo}.gemv_share"] = (fwd * gemv[0] + tr * gemv[1]) * 1e-6 / span.dur
    return v


def layer_metrics(w: Workload, tracer: Tracer, units: list[UnitResult], inst) -> dict:
    last = units[-1]
    A = inst.A
    m, n = A.shape
    gemv = gemv_us(A)
    per_unit = [unit_layers(tracer, u, i, gemv) for i, u in enumerate(units) if u.traced]
    v = {name: statistics.median(pu[name] for pu in per_unit) for name in PER_LAYER}
    v["linalg.gemv.us"], v["linalg.gemv_t.us"] = gemv
    v["linalg.gemv.gbps"] = 8 * m * n / (gemv[0] * 1e-6) / 1e9
    v["linalg.gemv_t.gbps"] = 8 * m * n / (gemv[1] * 1e-6) / 1e9
    if w.reg is not None:
        lam_dense = float(np.linalg.eigvalsh(A @ A.T)[-1])
        v["linalg.lmax_gram.rel_gap"] = (float(last.records["L"]) - lam_dense) / lam_dense
    v["instances.save_instance.mb"] = last.container_mib
    v["instances.generate_instance.peak_x_A"] = peak_x_A(
        "generate", "x".join(map(str, (*w.cell, inst.seed))))
    path = WORK / f"probe-{os.getpid()}.dcin"
    try:
        dcopt.save_instance(inst, str(path))
        v["instances.load_instance.peak_x_A"] = peak_x_A("load", str(path))
    finally:
        path.unlink(missing_ok=True)
    walls = {t: statistics.median(u.wall for u in units if u.traced == t) for t in (False, True)}
    v["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return v


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = "none"  # a checkout without .git, or without git installed
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "seed": seed,
    }


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            _die(f"BENCHMARK.json {key} does not match run.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_benchmark_json()
    w = WORKLOADS[args.workload]
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    WORK.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed)), flush=True)

    tracer = Tracer()
    check = Checks()
    units: list[UnitResult] = []
    min_units = 2 if args.trace else 1
    t_run = perf_counter()
    while True:
        inst = None  # the last unit's instance must not add to this unit's peak RSS
        # with tracing, odd units are traced and even ones measure the overhead
        u, inst = run_unit(w, args.seed, tracer, check, ref, traced=bool(args.trace and len(units) % 2))
        units.append(u)
        print(f"unit {len(units) - 1} traced={int(u.traced)} unit_s={u.wall:.4f} "
              f"setup_s={u.setup:.4f} results {json.dumps(u.records)}", flush=True)
        typical = statistics.median(x.wall for x in units)
        if len(units) >= min_units and perf_counter() - t_run + typical > args.seconds:
            break

    digests = {json.dumps(u.records, sort_keys=True) for u in units}
    check(len(digests) == 1, "units of one run gave different results")
    results_hash = hashlib.sha256(min(digests).encode()).hexdigest()[:16]
    print(f"results_hash {results_hash} units {len(units)}", flush=True)

    if args.trace:
        metrics = layer_metrics(w, tracer, units, inst)
        units_of = PER_LAYER
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "unit_s": statistics.median(u.wall for u in units),
            "setup_s": statistics.median(u.setup for u in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value!r} {units_of[name]}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
