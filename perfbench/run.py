"""vcflr benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload study-regular --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. Operations repeat in a closed loop for ``--seconds``
seconds, and at least the workload's fixed number of operations run. Every
operation's output is checked. Lines starting with ``#`` describe the run
(environment, per-operation fingerprints, stage breakdown); the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. ``--setup-only`` builds the workload's inputs and exits; the
benchmark times three such processes for ``setup_s``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy is first imported: the small LAPACK calls
# gain nothing from a second thread and become sensitive to neighbours.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
# No new operation starts once the run has used this long and the fixed
# operations are done, so a run ends well inside three minutes.
HARD_STOP_S = 140.0
# A run is flagged as contended when other processes kept this many cores
# busy on average while it ran (machine-wide busy time minus this run's own).
CONTENDED_CORES = 0.25

END_TO_END = (
    ("setup_s", "s"), ("op_s", "s"), ("fit_vc_s", "s"), ("fit_global_s", "s"),
    ("predict_p50_ms", "ms"),
    ("mispe_vc", "mispe"), ("mispe_global", "mispe"),
    ("ok_frac", "frac"), ("peak_rss_mb", "MB"),
)

# (metric, tracer.Stats attribute, traced function), read per operation
SPAN_METRICS = (
    ("select_binwidth_s", "incl", "select_binwidth"),
    ("select_bandwidth_calls", "calls", "select_bandwidth"),
    ("select_bandwidth_self_s", "self_", "select_bandwidth"),
    ("select_truncation_calls", "calls", "select_truncation"),
    ("select_truncation_self_s", "self_", "select_truncation"),
    ("cv_smoother_bandwidth_calls", "calls", "cv_smoother_bandwidth"),
    ("cv_smoother_bandwidth_s", "incl", "cv_smoother_bandwidth"),
    ("cv_failures", "errors", "cv_smoother_bandwidth"),
    ("observation_covariance_calls", "calls", "observation_covariance"),
    ("observation_covariance_s", "incl", "observation_covariance"),
    ("blup_scores_calls", "calls", "blup_scores"),
    ("blup_scores_s", "incl", "blup_scores"),
    ("fit_bin_calls", "calls", "fit_bin"),
    ("fit_bin_s", "incl", "fit_bin"),
    ("estimate_mean_s", "incl", "estimate_mean"),
    ("smooth_covariance_s", "incl", "smooth_covariance"),
    ("smooth_cross_covariance_s", "incl", "smooth_cross_covariance"),
    ("estimate_sigma2_s", "incl", "estimate_sigma2"),
    ("eigendecompose_s", "incl", "eigendecompose"),
    ("local_linear_2d_at_calls", "calls", "local_linear_2d_at"),
    ("local_linear_2d_at_s", "incl", "local_linear_2d_at"),
    ("local_linear_1d_at_calls", "calls", "local_linear_1d_at"),
    ("local_linear_1d_at_s", "incl", "local_linear_1d_at"),
    ("lp_weights_calls", "calls", "lp_weights"),
    ("lp_weights_s", "incl", "lp_weights"),
    ("widen_until_fit_calls", "calls", "widen_until_fit"),
    ("fit_calls", "calls", "fit"),
    ("fit_self_s", "self_", "fit"),
    ("predict_calls", "calls", "predict"),
    ("predict_self_s", "self_", "predict"),
    ("refine_calls", "calls", "refine"),
    ("refine_s", "incl", "refine"),
    ("bilinear_calls", "calls", "bilinear"),
    ("bilinear_s", "incl", "bilinear"),
    ("kernel_eval_calls", "calls", "kernel_eval"),
    ("load_csv_s", "incl", "load_csv"),
    ("partition_calls", "calls", "partition"),
    ("partition_s", "incl", "partition"),
    ("save_model_s", "incl", "save_model"),
    ("load_model_s", "incl", "load_model"),
    ("mispe_s", "incl", "mispe"),
    ("predict_dataset_s", "incl", "predict_dataset"),
)
WARNING_KINDS = ("skipped_truncation", "skipped_bincount", "excluded_subjects", "other")
PER_LAYER_UNITS = {"calls": "count", "errors": "count", "incl": "s", "self_": "s"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    names = [(n, PER_LAYER_UNITS[kind]) for n, kind, _ in SPAN_METRICS]
    names += [("widen_retries", "count"), ("fit_bin_useful_ratio", "ratio"),
              ("model_bytes", "bytes"), ("generate_s", "s"),
              ("traced_op_s", "s"), ("fit_vc_traced_s", "s"), ("predict_tail_ms", "ms")]
    names += [(f"warn_{k}", "count") for k in WARNING_KINDS]
    return names


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_library():
    """Import vcflr from this checkout's src directory, never from elsewhere."""
    sys.path.insert(0, SRC)
    import vcflr

    if os.path.dirname(os.path.dirname(os.path.abspath(vcflr.__file__))) != SRC:
        raise ImportError(f"vcflr imported from {vcflr.__file__}, not from {SRC}")


def busy_cpu_s():
    """Busy CPU seconds of the whole machine, all cores, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return (user + nice + system + irq + softirq + steal) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def contention(start, env) -> None:
    """Record load after the run and how busy the rest of the machine was."""
    wall0, busy0, own0 = start
    env["load1_after"] = os.getloadavg()[0]
    busy1 = busy_cpu_s()
    if busy0 is None or busy1 is None:
        env["other_cores"] = None
        env["contended"] = None
        return
    other = ((busy1 - busy0) - (own_cpu_s() - own0)) / (time.perf_counter() - wall0)
    env["other_cores"] = round(other, 3)
    env["contended"] = other > CONTENDED_CORES


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "load1_before": os.getloadavg()[0],
    }


def time_setup_processes(args) -> list:
    """Wall time of fresh processes that import and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.decode()[-2000:]}")
    return samples


def percentile(samples, pct: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(samples), pct))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def layer_metrics(fixed, setup_stats, walls, tail_ms) -> dict:
    """Per-operation means over the fixed operations, plus set-up figures."""
    n = len(fixed)
    values = {}
    for name, kind, span in SPAN_METRICS:
        values[name] = sum(getattr(r.stats, kind)[span] for r in fixed) / n
    values["widen_retries"] = sum(r.stats.retries for r in fixed) / n
    fitted = sum(r.stats.calls["fit_bin"] for r in fixed)
    values["fit_bin_useful_ratio"] = sum(r.returned_bins for r in fixed) / fitted
    values["model_bytes"] = sum(r.model_bytes for r in fixed) / n
    values["generate_s"] = setup_stats.incl["generate"]
    values["traced_op_s"] = statistics.median(walls)
    values["fit_vc_traced_s"] = sum(r.stats.incl["stage.fit_vc"] for r in fixed) / n
    values["predict_tail_ms"] = tail_ms
    for k in WARNING_KINDS:
        values[f"warn_{k}"] = sum(r.warnings[k] for r in fixed) / n
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def fit_breakdown(results) -> str:
    """Self time per traced function inside the varying-coefficient fit."""
    totals = {}
    for r in results:
        for name, t in r.stats.by_stage.get("stage.fit_vc", {}).items():
            totals[name] = totals.get(name, 0.0) + t
    n = len(results)
    parts = sorted(((t / n, name) for name, t in totals.items()), reverse=True)
    return " ".join(f"{name}={t:.4f}" for t, name in parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
        import tracer as tracer_mod
        import workloads
    except ImportError as err:
        print(f"cannot import the library from {SRC}: {err}", file=sys.stderr)
        return 3
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        if args.setup_only:
            workloads.setup(wl.name, args.seed, workdir)
            return 0
        return measure(args, wl, tracer_mod, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, tracer_mod, workloads, workdir) -> int:
    start = (time.perf_counter(), busy_cpu_s(), own_cpu_s())
    env = environment()
    setup_samples = time_setup_processes(args)

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    state = workloads.setup(wl.name, args.seed, workdir)
    setup_stats = tracer.take() if tracer else None
    # The generated inputs are long-lived: keep them out of the collector's
    # way, so its passes inside an operation walk the library's objects only.
    gc.collect()
    gc.freeze()

    latencies = state["latencies"]
    results, errors = [], []
    attempted = 0
    loop_start = time.perf_counter()
    longest = 0.0
    while True:
        now = time.perf_counter()
        near_limit = attempted > 0 and now - T_START + longest >= HARD_STOP_S
        if near_limit or (attempted >= wl.fixed_ops and now - loop_start >= args.seconds):
            break
        attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            results.append(workloads.run_op(wl.name, state, attempted - 1, tracer))
        except Exception as err:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            errors.append(f"op {attempted - 1}: {type(err).__name__}: {err}")
        longest = max(longest, time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()

    contention(start, env)
    print(f"# env {json.dumps(env)}")
    for r in results:
        print(f"# op {r.index} wall={r.wall:.4f} "
              f"fingerprint={json.dumps(r.fingerprint)} "
              f"warnings={json.dumps(dict(r.warnings))}")
    for e in errors:
        print(f"# failed {e}")
    failed = len(errors)
    fixed = [r for r in results if r.index < wl.fixed_ops]
    if not fixed:
        print("no operation succeeded", file=sys.stderr)
        return 1
    if attempted < wl.fixed_ops:
        print(f"# stopped at the time limit after {attempted} of {wl.fixed_ops} fixed operations")
    walls = [r.wall for r in results]
    print(f"# samples ops={len(results)} fixed_ops={len(fixed)} "
          f"predict_latencies={len(latencies)} tail=p{wl.tail_pct:g} "
          f"setup_samples={json.dumps([round(s, 4) for s in setup_samples])}")

    if args.trace:
        first = fixed[0].stats
        print(f"# op {fixed[0].index} counts "
              f"observation_covariance={first.calls['observation_covariance']} "
              f"fit_bin={first.calls['fit_bin']} lp_weights={first.calls['lp_weights']} "
              f"fit={first.calls['fit']}")
        print(f"# fit_vc self-time breakdown per op: {fit_breakdown(fixed)}")
        # The tail moved by a third between runs of one commit, too much for a
        # bound, so it is reported here; it includes the tracer's cost.
        tail_ms = 1e3 * percentile(latencies, wl.tail_pct)
        metrics = layer_metrics(fixed, setup_stats, walls, tail_ms)
    else:
        def med(stage):
            return statistics.median(r.stages[stage] for r in results)

        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s": statistics.median(walls),
            "fit_vc_s": med("fit_vc"),
            "fit_global_s": med("fit_global"),
            "predict_p50_ms": 1e3 * percentile(latencies, 50.0),
            "mispe_vc": statistics.fmean(r.fingerprint["mispe_vc"] for r in fixed),
            "mispe_global": statistics.fmean(r.fingerprint["mispe_global"] for r in fixed),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
