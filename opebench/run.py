"""opelab benchmark: one workload, one process, one closed-loop client.

    python3 opebench/run.py --workload hkpv_mc --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run sets up, then times ops back to back for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs a fixed number of ops, set by ``--seconds``, once untraced and twice
traced, fails if the two traced passes disagree on any exact count, and
reports the per-layer metrics per op.  Every op's outputs
are gated against an independent oracle in both modes; a failed gate or an
``OpelabError`` counts the op as failed.

Context lines (versions, percentiles, gates, the full layer table) go to
stdout first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# Import time of the benchmark's modules in a fresh interpreter.
_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                 "import workloads; print(time.perf_counter() - t)")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb",
              "ok_op_ratio")
# name -> unit; "<span>.calls" and "<span>.self_ms" are read off the span table
PER_LAYER = {
    "measures.orthonormal_prefix.calls": "count",
    "measures.orthonormal_prefix.points": "count",
    "measures.orthonormal_prefix.self_ms": "ms",
    "measures.gauss_rule_scaled.calls": "count",
    "measures.gauss_rule_scaled.max_m": "count",
    "measures.gauss_rule_scaled.self_ms": "ms",
    "measures.gauss_rule.calls": "count",
    "measures.gauss_rule.self_ms": "ms",
    "linstat.exact_mean.self_ms": "ms",
    "linstat.exact_variance.self_ms": "ms",
    "linstat.log_mgf.self_ms": "ms",
    "linstat.exact_scaled_variance.self_ms": "ms",
    "linstat.rules_per_moment": "count",
    "sampler.sample_ope.self_ms": "ms",
    "sampler.proposed_points": "count",
    "sampler.accepted_points": "count",
    "sampler.accept_ratio": "ratio",
    "kernel.kernel_sum.calls": "count",
    "kernel.kernel_sum.self_ms": "ms",
    "kernel.kernel_tilde.calls": "count",
    "kernel.kernel_tilde.self_ms": "ms",
    "kernel.scaled_kernel.calls": "count",
    "kernel.scaled_kernel.self_ms": "ms",
    "asymptotics.universality_error.self_ms": "ms",
    "asymptotics.alpha_nevai_functional.self_ms": "ms",
    "asymptotics.nevai_integral.self_ms": "ms",
    "asymptotics.concentration_mass.self_ms": "ms",
    "asymptotics.totik_error.self_ms": "ms",
    "bounds.lemma32_check.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


class SpeedProbe:
    """Machine-speed probe: a fixed numpy-plus-Python kernel that never calls opelab.

    On a shared host the same op runs up to ~2x slower for seconds to
    minutes at a time, while another tenant loads the core.  The probe slows
    by the same factor, so the end-to-end timings are reported at the
    probe's nominal speed: each measured time is multiplied by
    NOMINAL_S / (duration of the probes around it).  NOMINAL_S is a
    typical probe duration on the 2-vCPU Intel Xeon host the benchmark was
    defined on; it only fixes the unit.  Raw timings go to the context line.
    """

    NOMINAL_S = 2.5e-4
    EVERY_S = 0.05       # between probes, so they cost ~1.5 % of a run

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(-0.99, 0.99, 120)
        self.ends, self.durations = [], []

    def run(self) -> None:
        """Time the kernel three times; the fastest filters out interrupts."""
        np, x = self.np, self.x
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(2):
                p0, p1 = np.ones_like(x), x.copy()
                for _ in range(50):
                    p0, p1 = p1, 2.0 * x * p1 - p0
                sum(v * v for v in p1.tolist())
            best = min(best, time.perf_counter() - t0)
        self.ends.append(time.perf_counter())
        self.durations.append(best)

    def due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.run()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the last probe before start and the first after end."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_right(self.ends, end)
        near = [self.durations[k] for k in (before, after) if 0 <= k < len(self.ends)]
        return self.NOMINAL_S * len(near) / sum(near)


class Client:
    """Closed loop: the next op starts only after the previous one is gated."""

    def __init__(self, workload, error_type, probe=None):
        self.wl = workload
        self.error_type = error_type
        self.probe = probe
        self.spans = []          # (start, end) of each op
        self.latencies = []
        self.failed = 0
        self.gates = 0
        self.problems = []

    def one(self, i: int, tracer=None) -> None:
        """Run, time and gate op i; with a tracer, record spans of the op only."""
        inp = self.wl.inputs(i)
        if self.probe is not None:
            self.probe.due()
        if tracer is not None:
            tracer.op, tracer.on = i, True
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inp)
        except self.error_type as exc:
            self._fail(f"op {i}: {type(exc).__name__}: {exc}")
            return
        finally:
            t1 = time.perf_counter()
            self.spans.append((t0, t1))
            self.latencies.append(t1 - t0)
            if tracer is not None:
                tracer.on = False
        self.gates += 1
        problem = self.wl.gate(inp, out)
        if problem is not None:
            self._fail(f"op {i}: {problem}")

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)


def tail(latencies: list) -> tuple[str, float]:
    """Highest percentile with at least ten ops beyond it; the max below 20 ops."""
    import numpy as np

    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}", float(np.percentile(latencies, p))
    return "max", max(latencies)


def environment() -> dict:
    import glob
    import ctypes
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = int(fn())
                break
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor()}


def import_probes(count: int) -> list:
    """Import seconds in fresh interpreters with this process's environment."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "opebench"),
                               str(ROOT / "src")], capture_output=True, text=True,
                              check=True, timeout=120)
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_untraced(wl, client, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        client.one(i)
        i += 1
        if time.perf_counter() >= deadline:
            break
    probe = client.probe
    probe.run()
    raw = client.latencies
    lat = [dt * probe.scale(t0, t1) for dt, (t0, t1) in zip(raw, client.spans)]
    label, tail_s = tail(lat)
    _, raw_tail_s = tail(raw)
    return {"metrics": {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_op_ratio": (1.0 - client.failed / len(lat), "ratio"),
    }, "info": {"ops": len(lat), "tail_percentile": label,
                "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": 1e3 * statistics.median(raw),
                        "op_tail_ms": 1e3 * raw_tail_s},
                "probe_ms": {"count": len(probe.durations),
                             "p50": 1e3 * statistics.median(probe.durations),
                             "min": 1e3 * min(probe.durations),
                             "max": 1e3 * max(probe.durations)}}}


def run_traced(wl, client, seconds: float) -> dict:
    """Each op i runs untraced, then in traced pass 1, then in traced pass 2,
    so that slow phases of the machine hit all three alike."""
    import tracing

    nops = max(1, int(seconds * wl.trace_ops_per_s))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    logs = [tracing.SpanLog(), tracing.SpanLog()]
    for i in range(nops):
        client.one(i)
        for log in logs:
            tracer.log = log
            client.one(i, tracer)
    untraced = client.latencies[0::3]
    traced = [client.latencies[1::3], client.latencies[2::3]]
    passes = [dict(log.summary(), op_s=sum(lat)) for log, lat in zip(logs, traced)]
    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced[0] + traced[1])

    exact = [dict(s["calls"], moments=s["moments"],
                  **{k: v for k, v in s["counts"].items() if k != "bytes_written"})
             for s in passes]
    if exact[0] != exact[1]:
        diff = {k: (exact[0].get(k), exact[1].get(k))
                for k in set(exact[0]) | set(exact[1]) if exact[0].get(k) != exact[1].get(k)}
        raise SystemExit(f"exact counts differ between two traced passes: {diff}")

    first, second = passes
    calls, counts = first["calls"], first["counts"]
    self_ms = {k: 1e3 * (first["self_s"].get(k, 0.0) + second["self_s"].get(k, 0.0)) / 2
               for k in set(first["self_s"]) | set(second["self_s"])}
    proposed = counts.get("proposed_points", 0)
    derived = {
        "measures.orthonormal_prefix.points": counts.get("orthonormal_prefix.points", 0) / nops,
        "measures.gauss_rule_scaled.max_m": counts.get("gauss_rule_scaled.max_m", 0),
        "linstat.rules_per_moment": (counts.get("rule_requests", 0) / first["moments"]
                                     if first["moments"] else 0.0),
        "sampler.proposed_points": proposed / nops,
        "sampler.accepted_points": counts.get("accepted_points", 0) / nops,
        "sampler.accept_ratio": counts.get("accepted_points", 0) / proposed if proposed else 0.0,
        "cli.bytes_written": counts.get("bytes_written", 0) / nops,
        "trace.overhead_ratio": traced_p50 / untraced_p50,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            value = calls.get(span, 0) / nops if field == "calls" else self_ms.get(span, 0.0) / nops
        metrics[name] = (value, unit)

    op_ms = 1e3 * (first["op_s"] + second["op_s"]) / 2
    layers = [[span, {"calls_per_op": calls.get(span, 0) / nops,
                      "self_ms_per_op": self_ms.get(span, 0.0) / nops,
                      "self_share": self_ms.get(span, 0.0) / op_ms,
                      "total_share": first["total_s"].get(span, 0.0) / first["op_s"]}]
              for span in sorted(calls, key=lambda s: -self_ms.get(s, 0.0))]
    return {"metrics": metrics,
            "info": {"traced_ops_per_pass": nops, "untraced_p50_ms": 1e3 * untraced_p50,
                     "traced_p50_ms": 1e3 * traced_p50, "exact_counts": exact[0],
                     "layers": layers}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opelab" / "__init__.py").is_file():
        print(f"no opelab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or not 0 <= args.seed < 2**63:
        parser.error("--seconds must be positive and --seed a non-negative 63-bit integer")

    # Every workload is single-threaded: pin the BLAS/OpenMP pools before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    from opelab import OpelabError
    imports = [time.perf_counter() - t0]

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    probe.run()
    if not args.trace:
        imports += import_probes(SETUP_REPEATS - 1)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(ROOT, args.seed)
        wl.setup()
        setups.append(time.perf_counter() - t0)
        probe.run()

    client = Client(wl, OpelabError, None if args.trace else probe)
    if args.trace:
        result = run_traced(wl, client, args.seconds)
    else:
        result = run_untraced(wl, client, args.seconds)
        setup_raw = statistics.median(imports) + statistics.median(setups)
        scale = SpeedProbe.NOMINAL_S / statistics.median(probe.durations)
        result["metrics"]["setup_s"] = (setup_raw * scale, "s")
        result["info"]["raw"]["setup_s"] = setup_raw
    run_gates, run_problems = wl.finish()
    problems = client.problems + run_problems

    info = dict(result["info"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, import_s=imports,
                setup_construct_s=setups, op_gates=client.gates, run_gates=run_gates,
                problems=problems[:10], env=environment())
    print(json.dumps({"info": info}, sort_keys=True))
    for msg in problems[:10]:
        print(f"gate failure: {msg}", file=sys.stderr)
    metrics = {name: {"value": float(v), "unit": u}
               for name, (v, u) in result["metrics"].items()}
    order = END_TO_END if not args.trace else tuple(PER_LAYER)
    if set(metrics) != set(order):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(order))}")
    print(json.dumps({"correct": not problems and all(math.isfinite(m["value"])
                                                      for m in metrics.values()),
                      "attempted": len(client.latencies), "failed": client.failed,
                      "metrics": {k: metrics[k] for k in order}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
