"""One operation in a fresh process, as a command-line call would run it.

    python3 ctbench/cold.py '<spec JSON>'

The spec names the checkout root, the workload, its inputs, the thread
count, whether to trace, whether to stop after set-up, and `spawned`: the
parent's time.monotonic() just before it started this process.
CLOCK_MONOTONIC is system-wide on Linux, so `setup_s` is the time from process
start to the first timed call (interpreter start, imports, building the
polynomial).

Prints one JSON line: setup_s, solve_s, cpu_s (user + system of this process
and its joined pool workers during the call), peak_rss_mib (the larger of
this process's peak and that of its largest worker), the result or the
error, and, when traced, the per-layer figures and the spans.
"""

import json
import os
import resource
import sys
import time


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import ctpow
    from ctpow import engine, interp, recurrence
    if os.path.dirname(os.path.dirname(os.path.abspath(ctpow.__file__))) != src:
        print(f"ctpow imported from {ctpow.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    workload, inputs = spec["workload"], spec["inputs"]
    h = workloads.polynomial(ctpow, inputs)
    rec = None
    if spec["trace"]:
        import tracing
        rec = tracing.Recorder()
        missing = tracing.install(rec, recurrence, interp, engine)
        if missing:
            print(f"not traced, not found in ctpow: {missing}", file=sys.stderr)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    setup_s = time.monotonic() - spec["spawned"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "error": None}))
        return 0
    t0 = time.perf_counter()
    error = None
    try:
        if rec is None:
            out = workloads.run(recurrence, workload, inputs, h, spec["threads"])
        else:
            out = rec.call("operation", "bench", workloads.run, recurrence,
                           workload, inputs, h, spec["threads"])
    except Exception as exc:  # a failed operation is reported, not fatal
        error = f"{type(exc).__name__}: {exc}"
    solve_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    report = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mib": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "error": error,
        "result": None if error else workloads.to_json(workload, out),
    }
    if rec is not None and error is None:
        report["layers"] = tracing.layer_metrics(rec)
        report["spans"] = [[sp.name, sp.layer, sp.start - t0, sp.end - t0,
                            sp.parent] for sp in rec.spans]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
