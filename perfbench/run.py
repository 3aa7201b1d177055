"""Run one benchmark workload: ``python3 perfbench/run.py --workload NAME``.

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced and a traced pass of ``--seconds / 2``
each on the same inputs and reports the per-layer metrics and the
tracing overhead. Human-readable lines go to stdout first; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` whose metric names are those ``BENCHMARK.json`` declares.
Full results, the Perfetto trace and the self-time table are written
under ``.perfbench/``. A wrong result prints ``"correct": false`` and
still exits 0; the run exits 2 when the program (``src/repro``) is
missing and 1 when a declared metric was not produced.

The command runs the benchmark in a child process and stays its
parent: as the Linux child subreaper it inherits every process the run
orphans (the multiprocessing resource tracker outlives its creator by
a moment), and it reaps them all, killing stragglers, before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Workload name -> module.
WORKLOADS = {
    "serve-open": "perfbench.serve_open",
    "rns-inproc": "perfbench.rns_inproc",
    "wide-batch": "perfbench.wide_batch",
}

#: Set in the child that runs the benchmark under the supervisor.
SUPERVISED_ENV = "PERFBENCH_SUPERVISED"
#: How long orphans of a finished run may take to exit before they are killed.
REAP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36

#: Extra set-ups measured in fresh processes; ``setup_s`` is the median
#: of these and the run's own set-up.
SETUP_PROBES = 4


def _probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=common.REPO_ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(module, args, workers):
    outcome = module.run(args.seed, args.seconds, workers)
    setups = [outcome.setup_s] + [
        _probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    outcome.samples["setup_s"] = setups
    values = dict(outcome.e2e, setup_s=common.median(setups))
    return outcome, values


def _measure_traced(module, args, workers):
    from perfbench import ceiling, layers, tracing
    from repro.obs import observing

    host = ceiling.measure()
    half = args.seconds / 2.0
    base = module.run(args.seed, half, workers)
    tracer = tracing.Tracer()
    with observing() as session:
        traced = module.run(args.seed, half, workers, tracer, session, host)
    layers.host_metrics(traced, host)
    traced.layer["bench.trace_overhead_frac"] = (
        base.e2e["work_per_s"] / traced.e2e["work_per_s"] - 1.0
    )
    layers.fill_bypassed(traced.layer, module.LAYERS)
    traced.samples["untraced_pass"] = {"e2e": base.e2e, "details": base.details}
    traced.attempted += base.attempted
    traced.failed += base.failed
    traced.wrong += base.wrong
    return traced, traced.layer


def _descendants() -> list:
    """Pids of every live descendant of this process (from ``/proc``)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command: state, ppid, ...
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _kill_all() -> None:
    for pid in _descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _reap_all(grace_s: float) -> None:
    """Wait for every child (orphans included); kill what outlives ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            _kill_all()
            deadline = float("inf")
        time.sleep(0.02)


def _supervise(argv) -> int:
    """Run the benchmark in a child; return its exit code once no process is left."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans are not inherited, only the child is waited for

    def stop(signum, _frame):
        _kill_all()
        _reap_all(0.0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=dict(os.environ, **{SUPERVISED_ENV: "1"}),
    )
    try:
        code = child.wait()
    finally:
        _reap_all(REAP_GRACE_S)
    return code


def main(argv=None) -> int:
    if os.environ.get(SUPERVISED_ENV) != "1":
        return _supervise(sys.argv[1:] if argv is None else list(argv))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not common.ensure_program():
        print(f"perfbench: program not found under {common.SRC_DIR}", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(WORKLOADS[args.workload])
    # pool workers = the CPUs this process may use
    workers = len(os.sched_getaffinity(0))
    if args.setup_probe:
        print(json.dumps({"setup_s": module.setup_probe(args.seed, workers)}))
        return 0

    trace = bool(args.trace)
    outcome, values = (_measure_traced if trace else _measure)(module, args, workers)
    declared = common.declared_metrics(trace)
    meta = common.provenance(args.seed, workers)
    tag = f"{args.workload}-seed{args.seed}-trace{int(trace)}"

    print(f"perfbench {args.workload}: seed {args.seed} (held-out seed "
          f"{common.HELD_OUT_SEED}), {meta['nproc']} CPUs, {workers} workers, "
          f"python {meta['python']}, numpy {meta['numpy']}, "
          f"sha {meta['git_sha'] or 'n/a'} src {meta['src_sha256'][:12]}")
    for name, value, unit, note in outcome.details:
        print(f"  {name:<24} {value:>14.4f} {unit:<6} {note}")
    error_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_frac':<24} {error_frac:>14.4f} {'frac':<6} "
          f"{outcome.failed} failed of {outcome.attempted} ({outcome.wrong} wrong)")
    files = {}
    if trace:
        print(f"  tracing overhead: {values['bench.trace_overhead_frac'] * 100:+.1f}% "
              f"(untraced vs traced throughput)")
        trace_path = common.write_json(common.OUT_DIR / f"trace-{tag}.json", outcome.trace)
        table_path = common.OUT_DIR / f"selftime-{tag}.txt"
        table_path.write_text(outcome.selftime_text + "\n")
        files = {"trace": str(trace_path), "selftime": str(table_path)}
        print(outcome.selftime_text)
        print(f"  trace: {trace_path} ({len(outcome.trace['traceEvents'])} events)")
    metrics = {}
    missing = []
    for spec in declared:
        if spec["name"] not in values:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        if not trace:
            print(f"  metric {spec['name']:<17} {values[spec['name']]:>14.4f} {spec['unit']}")
    common.write_json(common.OUT_DIR / "results" / f"{tag}.json", {
        "workload": args.workload,
        "provenance": meta,
        "seconds": args.seconds,
        "metrics": metrics,
        "details": outcome.details,
        "samples": outcome.samples,
        "selftime": outcome.selftime,
        "files": files,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong,
    })
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
