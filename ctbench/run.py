"""The ctpow benchmark.

    python3 ctbench/run.py --workload {coeff39,walk2d,series39}
                           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
The loop is closed: one caller makes one call at a time.  Every call runs in
a fresh process (ctbench/cold.py), so each starts cold, with no cache left
from an earlier call, just as a command-line call would.  Calls are made
until `--seconds` have passed.  The benchmark computes each workload's
reference before the first call, outside the timed calls, and checks every
result against it exactly.

With --trace 0 the last line reports the end-to-end metrics, each the median
over the run's calls: solve_s, setup_s (also over a few processes that stop
after set-up), cpu_s, peak_rss_mib, and ok_frac, the share of calls that
returned the right value (failed_frac, its complement, is printed above it).  With --trace 1 the run alternates untraced calls with
traced ones and reports the per-layer metrics instead.  Traced calls use one
thread, because spans inside pool workers cannot be seen from outside.

Each run writes its record (revision, versions, core count, seed, load
average before and after, every call and its spans) to
ctbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 150  # no call starts after this; the run must end within 180 s
SETUP_PROBES = 8  # extra set-up-only processes, so setup_s is a steady median

E2E_KEYS = ("solve_s", "setup_s", "cpu_s", "peak_rss_mib")
# work counts of a traced call; they must repeat exactly from call to call
EXACT_KEYS = (
    "engine.calls", "engine.mults", "engine.split2_calls",
    "engine.base_invocations", "engine.pow_mod_calls", "engine.meter_peak",
    "interp.row_calls", "interp.rows_built", "interp.row_work",
    "rns.primes", "rns.bit_yield", "recurrence.tasks",
    "recurrence.fit_calls", "recurrence.fit_hits",
)
# self-time metrics that partition a traced call's wall time
SELF_KEYS = (
    "engine.self_s", "interp.row_s", "rns.select_primes_s",
    "rns.reconstruct_s", "recurrence.self_s", "laurent.normalize_s",
    "trace.other_s",
)
UNITS = {"_per_s": "1/s", "_s": "s", "_mib": "MiB", "_frac": "ratio",
         "_yield": "ratio"}


def unit(name: str) -> str:
    return next((u for sfx, u in UNITS.items() if name.endswith(sfx)), "count")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_cold(spec: dict, deadline: float) -> dict:
    """One call in a fresh process; a crash or timeout is a failed call."""
    spec = dict(spec, root=str(ROOT), spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "cold.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "timed out", "result": None}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}", "result": None}
    return json.loads(out.splitlines()[-1])


def median(ops, key):
    return statistics.median(op[key] for op in ops)


def end_to_end(ops: list[dict], setups: list[dict] = ()) -> dict:
    """Medians over the calls; set-up also over the set-up-only processes."""
    failed = sum(op["error"] is not None for op in ops)
    timed = [op for op in ops if "solve_s" in op] or [{k: 0.0 for k in E2E_KEYS}]
    metrics = {k: median(timed, k) for k in E2E_KEYS}
    metrics["setup_s"] = median(timed + [s for s in setups if "setup_s" in s],
                                "setup_s")
    metrics["ok_frac"] = 1 - failed / len(ops)
    metrics["failed_frac"] = failed / len(ops)
    return metrics


def per_layer(traced: list[dict], base: list[dict], timed: list[dict],
              threads: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced calls and the problems found."""
    layers = [op["layers"] for op in traced if "layers" in op]
    if not layers:
        return {}, ["no traced call succeeded"]
    problems = []
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if key in EXACT_KEYS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between calls: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    for m in layers:
        parts = sum(m[k] for k in SELF_KEYS)
        if abs(parts - m["trace.solve_s"]) > 1e-6 * m["trace.solve_s"]:
            problems.append(f"self times sum to {parts}, not "
                            f"{m['trace.solve_s']}")
    e2e = end_to_end(timed)
    metrics["recurrence.idle_frac"] = 1 - e2e["cpu_s"] / (threads * e2e["solve_s"])
    metrics["trace.overhead_frac"] = (median(traced, "solve_s")
                                      / median(base, "solve_s") - 1)
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ctpow" / "__init__.py").is_file():
        print(f"no ctpow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ctpow
    import numpy

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "revision": revision(ROOT),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc(), "loadavg_before": os.getloadavg(),
    }
    print("record", json.dumps(record))
    spec = workloads.inputs(args.workload, args.seed)
    ref = workloads.reference(ctpow, args.workload, spec)
    threads = nproc() if args.workload == "series39" else 1

    # (role, threads, traced): "timed" calls give the end-to-end metrics,
    # "base" calls the one-thread untraced time that tracing is compared to
    rounds = [("timed", threads, False)]
    if args.trace:
        rounds.append(("traced", 1, True))
        if threads != 1:
            rounds.append(("base", 1, False))

    ops = []
    deadline = STARTED + 170
    base_spec = {"workload": args.workload, "inputs": spec, "trace": False,
                 "setup_only": False}
    setups = [run_cold(dict(base_spec, threads=threads, setup_only=True),
                       deadline) for _ in range(SETUP_PROBES)]
    start = time.monotonic()
    n_rounds = 0
    while not n_rounds or time.monotonic() - start < args.seconds:
        if n_rounds and time.monotonic() - STARTED > BUDGET_S:
            break
        for role, n_threads, traced in rounds:
            op = run_cold(dict(base_spec, threads=n_threads, trace=traced),
                          deadline)
            if op["error"] is None:
                op["error"] = workloads.check(ctpow, args.workload, spec, ref,
                                              op["result"])
            op.update(role=role, threads=n_threads)
            ops.append(op)
            print(f"call {len(ops)} {role} threads={n_threads} "
                  + " ".join(f"{k}={op[k]:.4f}" for k in E2E_KEYS if k in op)
                  + f" {op['error'] or 'ok'}")
        n_rounds += 1

    by_role = {r: [op for op in ops if op["role"] == r] for r, _, _ in rounds}
    by_role.setdefault("base", by_role["timed"])
    failed = sum(op["error"] is not None for op in ops)
    print(f"{args.workload}: {len(ops)} calls, {failed} failed, "
          f"failed_frac={failed / len(ops)}")
    problems = [f"call {i + 1}: {op['error']}" for i, op in enumerate(ops)
                if op["error"] is not None]
    problems += [f"set-up probe: {op['error']}" for op in setups
                 if op["error"] is not None]
    if args.trace:
        metrics, found = per_layer(by_role["traced"], by_role["base"],
                                   by_role["timed"], threads)
        problems += found
        if "trace.solve_s" in metrics:
            total = metrics["trace.solve_s"]
            print("share of traced solve_s (traced calls run on one thread; "
                  "spans inside pool workers cannot be seen): "
                  + ", ".join(f"{k} {metrics[k] / total:.1%}"
                              for k in SELF_KEYS))
    else:
        metrics = end_to_end(ops, setups)
        del metrics["failed_frac"]
    for p in problems:
        print("problem:", p)

    record["loadavg_after"] = os.getloadavg()
    record["calls"] = ops
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print("record", json.dumps({"loadavg_after": record["loadavg_after"]}))

    print(json.dumps({
        "correct": not problems, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
