"""Layered benchmark of the svlibor pricer, calibrator and simulator.

Run one workload (what the metrics in BENCHMARK.json are measured on):

    python3 perfbench/run.py --workload calib_sweep --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run builds its inputs from --seed, runs the workload's job repeatedly
for about --seconds seconds, checks every job's outputs, and prints each
metric with its unit.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  A traced run also writes its spans to perfbench/out/.  See
perfbench/README.md for the workloads and what each metric means.
"""

import os
import sys
import time

# Set before numpy is imported: one BLAS/OpenMP thread, so the pools do not
# compete with the Monte Carlo worker threads.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")
for _name in PINNED_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC_FILE = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))
MAX_CORES = 2  # a run uses at most this many cores
SETUP_PROBES = 4  # extra set-ups in fresh interpreters, for the median
CHILD_TIMEOUT = 175.0


def pin_cores() -> int:
    """Restrict this process to at most MAX_CORES of its allowed CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:MAX_CORES])
    return len(os.sched_getaffinity(0))


def machine(nproc: int, mc_threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "mc_threads": mc_threads,
            "thread_env": {k: os.environ.get(k)
                           for k in (*PINNED_ENV, "SVLIBOR_THREADS")}}


def set_up(name: str, seed: int, mc_threads: int):
    """Import the package, load the fixtures and build the workload inputs."""
    import workloads
    market = workloads.load_market()
    cls = workloads.WORKLOADS[name]
    if name == "mc_terminal":
        return cls(market, seed, mc_threads)
    return cls(market, seed)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter (see --setup-probe)."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def measure(wl, seconds: float, jobs: list):
    """Run untraced jobs until the next would pass ``seconds``; at least one."""
    start = time.perf_counter()
    while True:
        r = len(jobs)
        t0 = time.perf_counter()
        result = wl.run(r)
        jobs.append((r, time.perf_counter() - t0, result))
        spent = time.perf_counter() - start
        if spent + statistics.median(j[1] for j in jobs) > seconds:
            return


def judge(wl, jobs: list):
    """Check every job; jobs on the same input must agree bitwise."""
    verdicts, first = [], {}
    for r, _, result in jobs:
        v = wl.check(r, result)
        key = r % getattr(wl, "SETS", 1)
        if first.setdefault(key, v.outputs) != v.outputs:
            v.failed = v.attempted
            v.notes.append(f"job {r} differs from an earlier job on the "
                           "same input")
        verdicts.append(v)
    return verdicts


def end_to_end(wl, jobs, setup_s: float) -> dict:
    """Medians over the run's jobs, so one stalled job does not move them."""
    return {
        "setup_s": setup_s,
        "job_s": statistics.median(t for _, t, _ in jobs),
        "work_per_s": statistics.median(wl.work(result) / t
                                        for _, t, result in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def issue_view(name: str, e2e: dict, verdicts) -> dict:
    """The workload's own names for its headline figures (printed only)."""
    view = {}
    if name == "calib_sweep":
        view["calib_s"] = (e2e["job_s"], "s")
        view["calib_rel_err"] = (statistics.median(
            v.extra["refit_rel_err"] for v in verdicts
            if "refit_rel_err" in v.extra), "1")
        view["calib_evals_per_s"] = (e2e["work_per_s"], "1/s")
    elif name == "fourier_surface":
        view["fourier_prices_per_s"] = (e2e["work_per_s"], "1/s")
    else:
        view["mc_path_steps_per_s"] = (e2e["work_per_s"], "1/s")
    attempted = sum(v.attempted for v in verdicts)
    view["failed_frac"] = (sum(v.failed for v in verdicts) / attempted, "1")
    return view


def traced_run(name, seed, seconds, mc_threads):
    """Untraced/traced job pairs on input 0, then per-layer metrics."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        wl = set_up(name, seed, mc_threads)
    tracer.uninstall()

    jobs, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = wl.run(0)
        untraced.append(time.perf_counter() - t0)
        jobs.append((0, untraced[-1], result))
        tracer.install()
        try:
            with tracer.span("bench.job") as span:
                result = wl.run(0)
        finally:
            tracer.uninstall()
        traced.append(span.seconds)
        jobs.append((0, traced[-1], result))
        spent = time.perf_counter() - start
        if spent + statistics.median(untraced) + statistics.median(traced) \
                > seconds:
            break
    probes = {}
    if hasattr(wl, "probe"):
        tracer.install()
        try:
            for threads in (1, 2):
                with tracer.span(f"bench.probe_t{threads}"):
                    probes["path_steps"] = wl.probe(threads)
        finally:
            tracer.uninstall()
    verdicts = judge(wl, jobs)
    metrics = tracing.layer_metrics(tracer.spans, wl, untraced, traced,
                                    probes, verdicts)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
    return wl, jobs, verdicts, metrics


def run_one(args) -> int:
    nproc = pin_cores()
    mc_threads = min(2, nproc)
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        wl, jobs, verdicts, metrics = traced_run(
            args.workload, args.seed, args.seconds, mc_threads)
    else:
        t0 = time.perf_counter()
        wl = set_up(args.workload, args.seed, mc_threads)
        setups = [time.perf_counter() - t0]
        setups += [setup_probe(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]
        jobs = []
        measure(wl, args.seconds, jobs)
        verdicts = judge(wl, jobs)
        metrics = end_to_end(wl, jobs, statistics.median(setups))

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    info = machine(nproc, mc_threads)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": info, "jobs": len(jobs),
              "job_seconds": [t for _, t, _ in jobs],
              "job_work": [wl.work(result) for _, _, result in jobs],
              "inputs": wl.inputs_digest(),
              "outputs": hashlib.sha256(",".join(sorted(
                  {v.outputs for v in verdicts})).encode()).hexdigest()[:16],
              "failures": [n for v in verdicts for n in v.notes]}
    print(f"# machine {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} inputs={record['inputs']} "
          f"outputs={record['outputs']}")
    for note in record["failures"]:
        print(f"# FAILED {note}")
    if not args.trace:
        for key, (value, unit) in issue_view(args.workload, metrics,
                                             verdicts).items():
            print(f"  {key:<44} {value:>16.6g} {unit}")
    result = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<46} {value:>16.6g} {m['unit']}")
    record["metrics"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    names = [w["name"] for w in spec()["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited with "
                                 f"{proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace}")
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for key, value in last["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed, 1)
        print(time.perf_counter() - t0)
        return 0
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
