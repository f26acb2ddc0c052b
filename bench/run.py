"""phdsel benchmark: one workload per invocation, checked answers, one JSON
result line.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads (closed loop, one client):

* ``study`` / ``study_wide_cuts``: blocks of ``run_experiment``; one
  operation is one replication.
* ``cli``: fresh-interpreter ``python -m phdsel.cli select`` calls; one
  operation is one call.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics: throughput, p90 latency per operation, set-up time and peak RSS.
The median latency goes to the record file only: on a shared 2-vCPU host
the CPU speed drifts in phases of seconds, so the per-run median jumps
between phase modes (spread 0.30 over ten seeds on ``study``), while the
mean behind ``ops_per_s`` and the p90 stay within their bounds.

``--trace 1`` runs a fixed set of the same operations alternately untraced
and under the span recorder (``spans.py``) and reports the per-layer
metrics.  Every run also runs the correctness gate (``gate.py``);
any failure counts in ``failed`` and makes ``correct`` false.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the full record (environment, sample counts, exact counts, errors) is
written to ``.bench_results/<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark drives the package from a single process
# and must not use more threads than the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import gate
import spans
import workloads as wl

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
PROBE_REPEATS = 5
TRACE_BLOCKS = 4
MIN_TRACE_PASSES = 3
WORKER_REPEATS = 3
CHILD_TIMEOUT_S = 60
RUN_CAP_S = 150  # hard stop for the timed loop, well inside the 180 s limit

SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
import phdsel
part = phdsel.parse_cuts(sys.argv[1]) if sys.argv[1] else phdsel.default_partition()
phdsel.poisson_model(part), phdsel.geometric_model(part)
if sys.argv[2] == "cli":
    import phdsel.cli
    phdsel.cli.build_parser()
else:
    phdsel.ExperimentConfig(pi=float(sys.argv[2]), sizes=(20, 300), reps=5,
                            h_values=(0.5,), seed=1, partition=part)
print(time.perf_counter() - t0)
"""

PROBE_CHILD = r"""
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import phdsel.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = phdsel.cli.main(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "main_ms": 1e3 * (t2 - t1), "code": code}))
"""


class Result:
    """Operations attempted and failed, error messages, metrics, details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.details: dict = {}

    def record(self, ops: int, errors: list[str]) -> None:
        """``ops`` operations whose checks produced ``errors``; any error
        fails all of them."""
        self.attempted += ops
        if errors:
            self.failed += ops
            self.errors.extend(errors)

    def attempt(self, ops: int, where: str, fn, *args, **kwargs):
        """Call ``fn``; an exception fails ``ops`` operations and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must report, not crash
            self.record(ops, [f"{where}: {type(exc).__name__}: {exc}"])
            return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on ``args``; a child that outlives
    CHILD_TIMEOUT_S is killed, reaped and reported as exit code -9."""
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, -9, "", f"timed out after {CHILD_TIMEOUT_S} s")
    return time.perf_counter() - t0, proc


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def in_process_cli(ph_cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ph_cli.main(argv)
    return code, out.getvalue()


def select_argv(path: str, extra: list[str]) -> list[str]:
    return ["select", "--data", path, "--model1", "poisson", "--model2", "geometric",
            "--h", "0.5", *extra]


# ---------------------------------------------------------------- set-up

def measure_setup(res: Result, cuts_arg: str, mode: str) -> None:
    """Median over fresh interpreters of import plus building the models and
    the config (or the CLI parser), up to the first timed operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        _, proc = run_child(["-c", SETUP_CHILD, cuts_arg, mode])
        if proc.returncode != 0:
            res.record(1, [f"setup child failed: {proc.stderr.strip()[-300:]}"])
            continue
        times.append(float(proc.stdout.strip()))
    if times:
        res.metrics["setup_s"] = (statistics.median(times), "s")
        res.details["setup_samples_s"] = times


def cli_probes(res: Result, argv: list[str]) -> dict[str, float]:
    """Interpreter start, ``import phdsel.cli`` and ``main`` of a fresh
    ``select`` call, each the median of PROBE_REPEATS children."""
    starts, imports, mains = [], [], []
    for _ in range(PROBE_REPEATS):
        wall, proc = run_child(["-c", "pass"])
        starts.append(1e3 * wall)
        _, proc = run_child(["-c", PROBE_CHILD, *argv])
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res.record(1, [f"cli probe failed: {proc.stderr.strip()[-300:]}"])
            continue
        res.record(1, [] if probe["code"] == 0 else [f"cli probe exit {probe['code']}"])
        imports.append(probe["import_ms"])
        mains.append(probe["main_ms"])
    out = {"cli.interp_start_ms": statistics.median(starts)}
    if imports:  # a failed probe is already recorded; leave the metric out
        out.update({"cli.import_ms": statistics.median(imports),
                    "cli.main_ms": statistics.median(mains)})
    return out


# ---------------------------------------------------------------- gates

def check_study_canonical(ph, res: Result, name: str, shape: wl.Study, golden: dict) -> None:
    cfg = shape.canonical(ph)
    ops = cfg.reps * len(cfg.sizes)
    rows = res.attempt(ops, "canonical block", ph.run_experiment, cfg)
    if rows is not None:
        res.record(ops,
                   gate.compare_rows([gate.row_dict(r) for r in rows], golden[name]["rows"],
                                     f"{name} canonical"))


def check_study_blocks(ph, res: Result, shape: wl.Study, blocks: list) -> None:
    """Invariants on every timed row, plus a replay of the first block
    through the public per-replication API with the dense-grid oracle."""
    bounds = {"poisson": ph.poisson_model().bounds[0],
              "geometric": ph.geometric_model().bounds[0]}
    for i, (cfg, rows) in enumerate(blocks):
        errors = []
        for r in rows:
            errors += gate.check_row_invariants(gate.row_dict(r), cfg.pi, shape.h, cfg.sizes,
                                                cfg.reps, bounds, f"block {i}")
        if i == 0:
            replayed, replay_errors = gate.replay_block(ph, cfg, check_oracle=1)
            errors += replay_errors
            errors += gate.compare_rows([gate.row_dict(r) for r in rows], replayed,
                                        "block 0 vs replay")
        res.record(cfg.reps * len(cfg.sizes), errors)


def count_signature(summary: dict) -> dict:
    """The exact counts of a traced pass; they must repeat exactly."""
    keys = ("ops", "fits", "fit_evaluations", "fit_nonconverged", "fit_at_bound",
            "selects", "select_degenerate", "cell_prob_in_asymptotics")
    sig = {k: summary[k] for k in keys}
    sig["calls"] = {name: v["calls"] for name, v in sorted(summary["names"].items())}
    return sig


def check_counts_repeat(res: Result, sigs: list[dict]) -> None:
    res.details["counts"] = sigs[0]
    bad = [i for i, s in enumerate(sigs[1:], 1) if s != sigs[0]]
    res.record(1, [f"exact counts of traced pass {i} differ from pass 0" for i in bad])


# ---------------------------------------------------------------- layers

def layer_metrics(main: dict, probe: dict | None) -> dict[str, float]:
    """Per-layer metrics from one traced pass.  ``probe`` supplies the
    layers the workload's own operations never reach."""

    def src(name):
        return main if main["names"].get(name) or probe is None else probe

    def per_call(name, scale, field="total"):
        s = src(name)
        entry = s["names"].get(name)
        return scale * entry[field] / entry["calls"] if entry else 0.0

    def share(summary, layer):
        return summary["layer_self"].get(layer, 0.0) / summary["wall"]

    def calls(name):
        entry = main["names"].get(name)
        return entry["calls"] if entry else 0

    fits, selects = main["fits"] or 1, main["selects"] or 1  # 0 when a layer is gone
    sim = main if "simulate" in main["layer_self"] or probe is None else probe
    return {
        "cells.bin_us": per_call("cells.bin", 1e6),
        "models.cell_prob_us": per_call("models.cell_prob", 1e6),
        "models.cell_prob_calls_per_rep": calls("models.cell_prob") / main["ops"],
        "models.cell_prob_share":
            main["names"].get("models.cell_prob", {"self": 0.0})["self"] / main["wall"],
        "models.sample_mixture_us": per_call("models.sample_mixture", 1e6),
        "divergence.phd_us": per_call("divergence.phd", 1e6),
        "divergence.phd_calls_per_rep": calls("divergence.phd") / main["ops"],
        "divergence.share": share(main, "divergence"),
        "fit.fit_ms": 1e3 * main["fit_time"] / fits,
        "fit.evals_per_fit": main["fit_evaluations"] / fits,
        "fit.nonconverged_ratio": main["fit_nonconverged"] / fits,
        "fit.at_bound_ratio": main["fit_at_bound"] / fits,
        "fit.self_share": share(main, "fit"),
        "asymptotics.lambda_star_ms": per_call("asymptotics.lambda_star", 1e3),
        "asymptotics.cell_prob_calls_per_select": main["cell_prob_in_asymptotics"] / selects,
        "asymptotics.share": share(main, "asymptotics"),
        "inference.select_ms": per_call("inference.select", 1e3),
        "inference.self_ms": per_call("inference.select", 1e3, "self"),
        "inference.degenerate_ratio": main["select_degenerate"] / selects,
        "quantiles.normal_quantile_us": per_call("quantiles.normal_quantile", 1e6),
        "simulate.substream_us": per_call("simulate.substream", 1e6),
        "simulate.self_share": share(sim, "simulate"),
    }


PER_LAYER_UNITS = {"_us": "us", "_ms": "ms", "share": "ratio", "_ratio": "ratio",
                   "_speedup": "ratio", "_per_rep": "count", "_per_select": "count",
                   "_per_fit": "count"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


def report_layers(res: Result, passes: list[dict], extra: dict[str, float]) -> None:
    merged = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    merged.update(extra)
    for name, value in merged.items():
        res.metrics[name] = (value, unit_of(name))
    res.details["traced_passes"] = len(passes)


def traced_passes(res: Result, seconds: float, one_pass, ops: int,
                  root: str | None = None) -> tuple[list, list, list]:
    """Alternate untraced and traced runs of ``one_pass`` (``ops`` fixed
    operations) until ``seconds`` have passed, at least MIN_TRACE_PASSES
    times.  With ``root``, each traced pass is one span of that name."""
    plain, wrapped, summaries = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(summaries) < MIN_TRACE_PASSES:
        t0 = time.perf_counter()
        one_pass()
        plain.append(time.perf_counter() - t0)
        rec = spans.Recorder()
        t0 = time.perf_counter()
        with rec:
            span = rec.open(root) if root else None
            try:
                one_pass()
            finally:
                if span is not None:
                    rec.close(span)
        wrapped.append(time.perf_counter() - t0)
        summaries.append(spans.summarize(rec.spans, ops))
        if time.perf_counter() - start > RUN_CAP_S:
            break
    check_counts_repeat(res, [count_signature(s) for s in summaries])
    res.details["trace_wall_s"] = {"untraced": plain, "traced": wrapped}
    return plain, wrapped, summaries


def count_twice(res: Result, one_pass, ops: int) -> None:
    """Untraced runs still record the exact counts: two traced passes of a
    small fixed set of operations, after the timed phase."""
    sigs = []
    for _ in range(2):
        rec = spans.Recorder()
        with rec:
            one_pass()
        sigs.append(count_signature(spans.summarize(rec.spans, ops)))
    check_counts_repeat(res, sigs)


def workers2_speedup(ph, res: Result, cfg) -> float:
    """One block at max_workers=1 against 2 (no more threads than cores);
    the rows must be bit-identical."""
    one, two = [], []
    rows1 = rows2 = None
    for _ in range(WORKER_REPEATS):
        t0 = time.perf_counter()
        rows1 = ph.run_experiment(cfg, max_workers=1)
        one.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        rows2 = ph.run_experiment(cfg, max_workers=min(2, os.cpu_count() or 1))
        two.append(time.perf_counter() - t0)
    res.record(1, [] if rows1 == rows2 else ["rows differ between 1 and 2 workers"])
    res.details["workers_s"] = {"1": one, "2": two}
    return statistics.median(one) / statistics.median(two)


# ---------------------------------------------------------------- study

def run_study(ph, res: Result, name: str, args, golden: dict) -> None:
    import numpy as np

    shape = wl.STUDIES[name]
    cuts_arg = ",".join(map(str, shape.cuts)) if shape.cuts else ""
    if not args.trace:
        measure_setup(res, cuts_arg, str(shape.pi))
    check_study_canonical(ph, res, name, shape, golden)
    seeds = wl.block_seeds(args.seed)
    ops_per_block = shape.reps * len(shape.sizes)

    if args.trace:
        cfgs = [shape.config(ph, next(seeds)) for _ in range(TRACE_BLOCKS)]
        reference = [ph.run_experiment(c) for c in cfgs]
        ops = ops_per_block * len(cfgs)

        def one_pass():
            rows = [ph.run_experiment(c) for c in cfgs]
            res.record(ops, [] if rows == reference else ["pass rows differ from reference"])

        plain, wrapped, summaries = traced_passes(res, args.seconds, one_pass, ops)
        extra = {"simulate.workers2_speedup": workers2_speedup(
                     ph, res, shape.config(ph, next(seeds), reps=2 * shape.reps)),
                 "trace.overhead_ratio": statistics.median(wrapped) / statistics.median(plain)}
        path = wl.write_data(os.path.join(args.work, "probe.txt"),
                             wl.mixture_data(shape.pi, wl.CLI_N, np.random.default_rng(next(seeds))))
        extra.update(cli_probes(res, select_argv(path, shape.cli_args())))
        report_layers(res, [layer_metrics(s, None) for s in summaries], extra)
        return

    blocks, per_rep_ms, busy = [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        cfg = shape.config(ph, next(seeds))
        t0 = time.perf_counter()
        rows = res.attempt(ops_per_block, f"block {len(blocks)}", ph.run_experiment, cfg)
        dt = time.perf_counter() - t0
        if rows is None:
            continue
        busy += dt
        blocks.append((cfg, rows))
        per_rep_ms.append(1e3 * dt / ops_per_block)
    check_study_blocks(ph, res, shape, blocks)

    canonical = shape.canonical(ph)
    count_twice(res, lambda: ph.run_experiment(canonical), canonical.reps * len(canonical.sizes))

    res.metrics["ops_per_s"] = (len(blocks) * ops_per_block / busy, "1/s")
    res.metrics["op_ms_p90"] = (p90(per_rep_ms), "ms")
    res.metrics["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_SELF), "MB")
    res.details["samples"] = {"blocks": len(blocks), "reps_per_block": ops_per_block,
                              "op_ms_p50": statistics.median(per_rep_ms),
                              "per_rep_ms": per_rep_ms}


# ---------------------------------------------------------------- cli

def run_cli(ph, res: Result, args, golden: dict) -> None:
    import numpy as np
    import phdsel.cli as ph_cli

    if not args.trace:
        measure_setup(res, "", "cli")
    canonical = wl.write_data(os.path.join(args.work, "canonical.txt"),
                              np.random.default_rng(wl.CLI_CANONICAL_SEED).poisson(4.0, wl.CLI_N))
    _, proc = run_child(["-m", "phdsel.cli", *select_argv(canonical, [])])
    try:
        fields = gate.parse_kv(proc.stdout)
        errors = (gate.compare_select(fields, golden["cli"]["select"], "canonical select")
                  + gate.check_decision(fields, ph.decide, "canonical select"))
    except ValueError as exc:
        errors = [f"canonical select: {exc}; stderr {proc.stderr.strip()[-300:]}"]
    res.record(1, errors)

    eq_ms = []
    for _ in range(1 if args.trace else 3):
        wall, proc = run_child(["-m", "phdsel.cli", "equidistance", "--h", "0.5"])
        try:
            pi_star = float(gate.parse_kv(proc.stdout)["pi_star"])
            errors = gate.check_pi_star(pi_star, golden["pi_star"])
        except (KeyError, ValueError) as exc:
            errors = [f"equidistance output: {exc}; stderr {proc.stderr.strip()[-300:]}"]
        res.record(1, errors)
        eq_ms.append(1e3 * wall)
    res.details["cli_equidistance_ms"] = eq_ms

    rng = np.random.default_rng(args.seed)
    files = [wl.write_data(os.path.join(args.work, f"data{i}.txt"),
                           wl.mixture_data(1.0, wl.CLI_N, rng)) for i in range(wl.CLI_FILES)]
    expected = []
    for path in files:
        code, out = in_process_cli(ph_cli, select_argv(path, []))
        expected.append(gate.parse_kv(out) if code == 0 else {})
        res.record(1, [] if code == 0 else [f"in-process select exit {code}"])

    def select_pass():
        for path, want in zip(files, expected):
            code, out = in_process_cli(ph_cli, select_argv(path, []))
            got = gate.parse_kv(out) if code == 0 else {}
            res.record(1, [] if got == want else ["in-process select output differs"])

    if args.trace:
        probe_cfg = wl.CLI_STUDY.config(ph, int(rng.integers(0, 2**31 - 1)))
        plain, wrapped, summaries = traced_passes(res, args.seconds, select_pass, len(files),
                                                  root="cli.main")
        probes = []
        for _ in range(MIN_TRACE_PASSES):
            rec = spans.Recorder()
            with rec:
                ph.run_experiment(probe_cfg)
            probes.append(spans.summarize(rec.spans, probe_cfg.reps * len(probe_cfg.sizes)))
        extra = {"simulate.workers2_speedup": workers2_speedup(
                     ph, res, wl.CLI_STUDY.config(ph, probe_cfg.seed, reps=5 * wl.CLI_STUDY.reps)),
                 "trace.overhead_ratio": statistics.median(wrapped) / statistics.median(plain)}
        extra.update(cli_probes(res, select_argv(files[0], [])))
        report_layers(res, [layer_metrics(s, probes[i % len(probes)])
                            for i, s in enumerate(summaries)], extra)
        return

    walls, busy = [], 0.0
    start = time.perf_counter()
    while ((time.perf_counter() - start < args.seconds or len(walls) < wl.CLI_MIN_CALLS)
           and time.perf_counter() - start < RUN_CAP_S):
        i = len(walls) % len(files)
        wall, proc = run_child(["-m", "phdsel.cli", *select_argv(files[i], [])])
        walls.append(1e3 * wall)
        busy += wall
        try:
            fields = gate.parse_kv(proc.stdout)
            errors = [] if fields == expected[i] else [f"call {len(walls)}: output differs"]
            errors += gate.check_decision(fields, ph.decide, f"call {len(walls)}")
        except ValueError as exc:
            errors = [f"call {len(walls)}: {exc}"]
        if proc.returncode != 0:
            errors.append(f"call {len(walls)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        res.record(1, errors)

    count_twice(res, select_pass, len(files))

    res.metrics["ops_per_s"] = (len(walls) / busy, "1/s")
    res.metrics["op_ms_p90"] = (p90(walls), "ms")
    res.metrics["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    res.details["samples"] = {"calls": len(walls), "op_ms_p50": statistics.median(walls),
                              "call_ms": walls}


# ---------------------------------------------------------------- entry point

def commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside
    a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit(),
            "machine": platform.machine()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "phdsel", "__init__.py")):
        print(f"bench: no src/phdsel under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import phdsel as ph
    import phdsel.cli  # noqa: F401  (its bindings must exist before tracing)
    if not os.path.abspath(ph.__file__).startswith(SRC + os.sep):
        print(f"bench: imported phdsel from {ph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(gate.golden_path(), encoding="utf-8") as fh:
        golden = json.load(fh)

    res = Result()
    load_start = os.getloadavg()
    args.work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(args.work, exist_ok=True)
    try:
        if args.workload == "cli":
            run_cli(ph, res, args, golden)
        else:
            run_study(ph, res, args.workload, args, golden)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(args.work))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": wl.WHY[args.workload],
        "environment": {**environment(np), "loadavg_start": load_start,
                        "loadavg_end": os.getloadavg()},
        "attempted": res.attempted, "failed": res.failed,
        "error_rate": res.failed / max(res.attempted, 1),
        "errors": res.errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
        **res.details,
    }
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in res.metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for err in res.errors[:10]:
        print(f"FAILED CHECK: {err}")
    print(f"record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": res.failed == 0 and res.attempted > 0,
                      "attempted": max(res.attempted, 1), "failed": res.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
