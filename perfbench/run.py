"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload attack|decode|keygen --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from the
checkout's `src/`. With `--trace 0` the last stdout line carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a separate
traced run. The line before it is a report with the machine, sample
counts, the workload's metrics under their descriptive names, and the
failures. See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
BLAS_THREADS = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["attack", "decode", "keygen"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time one set-up and print it (used for the setup_s median)")
    ap.add_argument("--record-digests", action="store_true",
                    help="write the default-seed artifact digests to perfbench/digests.json")
    return ap.parse_args(argv)


def prepare_environment():
    """Refuse the opt-in fast path, pin BLAS threads, find the program."""
    if "AGMC_FAST_RREF" in os.environ:
        sys.exit("perfbench: AGMC_FAST_RREF is set; the benchmark measures the default path only")
    nproc = len(os.sched_getaffinity(0))
    # one BLAS thread: on a shared 2-vCPU machine a second thread made
    # timings bimodal (keygen n=343: 328 ms or ~500 ms, depending on whether
    # the other vCPU was free), while one thread stayed within a few percent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "agmceliece" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'agmceliece'}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import agmceliece

    if Path(agmceliece.__file__).resolve().parent != (SRC / "agmceliece").resolve():
        sys.exit(f"perfbench: imported agmceliece from {agmceliece.__file__}, not from {SRC}")
    return nproc


def machine(nproc: int) -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    # the OpenBLAS numpy loaded reports its own thread count and core type
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                break
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": info,
    }


def timed_setup(workload, seed, ledger):
    t0 = time.perf_counter()
    state = workload.setup(seed, ledger)
    return state, time.perf_counter() - t0


def setup_probe(workload_name: str, seed: int) -> tuple[float | None, str]:
    """One cold set-up in a fresh interpreter; returns (seconds, error)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return None, "set-up probe timed out"
    if proc.returncode != 0:
        return None, f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]), ""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, args, ledger):
    from workloads import end_to_end

    state, first = timed_setup(workload, args.seed, ledger)
    start = time.perf_counter()
    i = 0
    while True:
        workload.round(state, i, ledger)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    setups = [first]
    for _ in range(SETUP_REPEATS - 1):
        secs, err = setup_probe(workload.name, args.seed)
        ledger.verify("setup_probe", err or None)
        if secs is not None:
            setups.append(secs)
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    metrics.update(end_to_end(workload, ledger.samples))
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    result = {k: {"value": v, "unit": units.get(k, "ms")} for k, v in metrics.items()}
    extra = {"rounds": i, "setup_samples_s": setups,
             "named": {k: {"value": v, "unit": u, "samples": c}
                       for k, (v, u, c) in workload.named(ledger.samples).items()}}
    return result, extra


def run_traced(workload, args, ledger):
    """Alternate untraced and traced executions of one fixed round."""
    from layertrace import Tracer

    tracer = Tracer()
    ledger.untraced = tracer.paused
    state, _ = timed_setup(workload, args.seed, ledger)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    for i in itertools.count():
        # alternate which side goes first so drift does not bias the overhead
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            before = ledger.timed_s
            if not traced_side:
                workload.traced_round(state, ledger)
                plain.append(ledger.timed_s - before)
                continue
            with tracer.installed():
                tracer.begin()
                workload.traced_round(state, ledger)
            traced.append(ledger.timed_s - before)
            layers.append(tracer.summary())
        if time.perf_counter() - start >= args.seconds:
            break
    base, with_trace = statistics.median(plain), statistics.median(traced)
    result = {}
    for key in layers[0]:
        # median_low keeps exact counts integral; they repeat in every execution
        value = statistics.median_low(x[key] for x in layers)
        result[key] = {"value": value, "unit": unit_of(key)}
    result["trace.overhead_pct"] = {"value": 100.0 * (with_trace - base) / base, "unit": "%"}
    out_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.dump(out_path, {"workload": workload.name, "seed": args.seed})
    extra = {"executions": len(layers), "untraced_s": plain, "traced_s": traced,
             "overhead_s": with_trace - base, "missing_targets": tracer.missing,
             "spans_file": str(out_path.relative_to(ROOT))}
    return result, extra


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("useful_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = prepare_environment()
    from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, Ledger, check_digests

    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        ledger = Ledger()
        _, secs = timed_setup(workload, args.seed, ledger)
        if ledger.failed:
            print("\n".join(ledger.failures), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": secs}))
        return 0

    if args.record_digests:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        for kind, by_label in workload.artifacts(heavy=True).items():
            recorded.setdefault(kind, {}).update(by_label)
        recorded["seed"] = DEFAULT_SEED
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"recorded digests for {workload.name} in {DIGESTS}", file=sys.stderr)
        return 0

    ledger = Ledger()
    t_start = time.perf_counter()
    if args.trace:
        metrics, extra = run_traced(workload, args, ledger)
    else:
        metrics, extra = run_untraced(workload, args, ledger)
    # artifacts stay byte-identical: the cheap default-seed artifacts are
    # checked on every run, the n=125 transcript on runs at the default seed
    check_digests(ledger, workload.artifacts(heavy=args.seed == DEFAULT_SEED),
                  json.loads(DIGESTS.read_text()))

    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - t_start,
        "machine": machine(nproc),
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "samples": {k: len(v) for k, v in sorted(ledger.samples.items())},
        "failures": ledger.failures,
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
