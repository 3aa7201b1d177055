"""Command-line interface.

Usage::

    python -m repro info
    python -m repro estimate --kernel ntt --backend mqx --cpu amd_epyc_9654 --logn 14
    python -m repro estimate --kernel blas --operation vector_mul --backend avx512
    python -m repro validate
    python -m repro mca [--microarch sunny_cove]
    python -m repro sol --vendor amd
    python -m repro par --workers 4 --logn 12 --batch 16
    python -m repro chaos --workers 2 --seed 0 --export chrome
    python -m repro timeline --workers 2 --min-lanes 2 --export chrome
    python -m repro experiments [--output EXPERIMENTS.md]
    python -m repro profile --experiment headline --export chrome
    python -m repro attrib --workers 2 --logn 10 --batch 8
    python -m repro perfgate --show-history
    python -m repro top --once
    python -m repro incidents --dir ci-obs --fail-empty
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.arith.primes import default_modulus
from repro.kernels import Backend, get_backend
from repro.machine.cpu import get_cpu, list_cpus


def _cmd_info(args: argparse.Namespace) -> int:
    q = default_modulus()
    print("backends:", ", ".join(Backend.available()))
    print("cpus:", ", ".join(list_cpus()))
    print(f"default modulus: {q} ({q.bit_length()} bits)")
    return 0


#: Backend names the ``estimate`` command accepts (ISA kernels plus the
#: two modeled baselines).
ESTIMATE_BACKENDS = ("scalar", "avx2", "avx512", "mqx", "gmp", "openfhe")


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.blas.ops import BLAS_OPERATIONS
    from repro.errors import ReproError
    from repro.perf.estimator import (
        estimate_baseline_blas,
        estimate_baseline_ntt,
        estimate_blas,
        estimate_ntt,
    )

    q = default_modulus()
    try:
        cpu = get_cpu(args.cpu)
        if args.kernel == "ntt":
            n = 1 << args.logn
            if args.backend in ("gmp", "openfhe"):
                est = estimate_baseline_ntt(args.backend, n, q, cpu)
            else:
                est = estimate_ntt(
                    n, q, get_backend(args.backend), cpu, args.algorithm
                )
            print(
                f"{args.backend} NTT n=2^{args.logn} on {cpu.name}: "
                f"{est.ns / 1000:.2f} us ({est.ns_per_butterfly:.2f} ns/butterfly, "
                f"{'compute' if est.compute_bound else 'memory'}-bound, "
                f"{est.memory_level})"
            )
        else:
            if args.backend in ("gmp", "openfhe"):
                est = estimate_baseline_blas(
                    args.backend, args.operation, args.length, q, cpu
                )
            else:
                est = estimate_blas(
                    args.operation, args.length, q, get_backend(args.backend), cpu
                )
            print(
                f"{args.backend} {args.operation} length {args.length} on "
                f"{cpu.name}: {est.ns_per_element:.2f} ns/element"
            )
    except (ReproError, KeyError) as exc:
        print(
            f"estimate: {exc} "
            f"(backends: {', '.join(ESTIMATE_BACKENDS)}; "
            f"cpus: {', '.join(list_cpus())}; "
            f"blas operations: {', '.join(BLAS_OPERATIONS)})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.pisa.validation import max_absolute_error, validate_pisa

    cases = validate_pisa()
    for case in cases:
        print(
            f"{case.cpu:18s} {case.target_intrinsic:24s} "
            f"epsilon = {case.relative_error_pct:+6.2f}%"
        )
    worst = max_absolute_error(cases)
    print(f"max |epsilon| = {worst:.2f}% (paper bound: 8%)")
    return 0 if worst < 8.0 else 1


def _cmd_mca(args: argparse.Namespace) -> int:
    from repro.experiments.listing4 import reports

    print(reports(microarch_name=args.microarch))
    return 0


def _cmd_sol(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.roofline.compare import (
        SOL_TARGETS,
        average_speedup,
        figure7_comparison,
    )

    try:
        rows = figure7_comparison(args.vendor)
    except (ReproError, KeyError):
        print(
            f"sol: unknown vendor {args.vendor!r} "
            f"(vendors: {', '.join(sorted(SOL_TARGETS))})",
            file=sys.stderr,
        )
        return 2
    for design in ("RPU", "FPMM", "MoMA", "OpenFHE (32-core)"):
        print(
            f"MQX-SOL vs {design:18s}: "
            f"{average_speedup(rows, design):10.2f}x"
        )
    return 0


def _cmd_par(args: argparse.Namespace) -> int:
    import random
    import time

    from repro.obs import observing
    from repro.obs.reader import MetricsView
    from repro.par import ParNtt, ParallelExecutor
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomialRing

    n = 1 << args.logn
    rng = random.Random(args.seed)
    with observing() as session:
        with ParallelExecutor(workers=args.workers) as pool:
            print(f"pool: {pool.workers} workers")
            basis = RnsBasis.generate(args.limbs, 62, 2 * n)
            ring = RnsPolynomialRing(
                n, basis, get_backend("mqx"), engine="parallel"
            )
            f = ring.encode([rng.randrange(basis.modulus) for _ in range(n)])
            g = ring.encode([rng.randrange(basis.modulus) for _ in range(n)])
            started = time.perf_counter()
            ring.mul(f, g)
            mul_s = time.perf_counter() - started
            print(
                f"rns mul   n=2^{args.logn}, {args.limbs} limbs fused: "
                f"{mul_s * 1e3:8.2f} ms"
            )

            q = basis.primes[0]
            plan = ParNtt(n, q, executor=pool)
            batch = [
                [rng.randrange(q) for _ in range(n)] for _ in range(args.batch)
            ]
            started = time.perf_counter()
            plan.forward(batch)
            ntt_s = time.perf_counter() - started
            print(
                f"ntt batch {args.batch} x 2^{args.logn} forward:       "
                f"{ntt_s * 1e3:8.2f} ms"
            )
        for name in (
            "par.shards.dispatched",
            "par.shards.completed",
            "par.retries",
            "par.fallbacks",
            "par.workers.restarted",
        ):
            print(f"{name}: {MetricsView(session.metrics).value(name):g}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resil.chaos import run_chaos

    return run_chaos(
        workers=args.workers or 2,
        seed=args.seed,
        logn=args.logn,
        batch=args.batch,
        limbs=args.limbs,
        crash=args.crash,
        hang=args.hang,
        corrupt=args.corrupt,
        slow=args.slow,
        task_timeout=args.task_timeout,
        audit=args.audit,
        rounds=args.rounds,
        export=args.export,
        output_dir=args.output_dir,
        incident_dir=args.incident_dir,
    )


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    return run_top(
        url=args.url,
        once=args.once,
        interval_s=args.interval,
        iterations=args.iterations,
        engine=args.engine,
        logn=args.logn,
        requests=args.requests,
        slo_p99_ms=args.slo_p99_ms,
    )


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.obs.flight import run_incidents

    return run_incidents(
        directory=args.dir, fail_empty=args.fail_empty
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import random
    import signal

    from repro.arith.primes import find_ntt_prime
    from repro.errors import ServeOverloadError
    from repro.obs import observing
    from repro.serve import ReproService, ServeConfig

    n = 1 << args.logn
    q = find_ntt_prime(60, 2 * n)
    rng = random.Random(args.seed)

    async def main() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-unix event loops
                pass
        service = ReproService(
            config=ServeConfig(
                engine=args.engine,
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1e3,
                max_queue_depth=args.queue_depth,
                workers=args.workers,
            )
        )
        await service.start()
        print(
            f"serving: engine={args.engine}, n=2^{args.logn}, "
            f"{args.rate:g} req/s synthetic load, max_batch={args.max_batch}, "
            f"window={args.max_wait_ms:g} ms — Ctrl-C drains and exits"
        )

        async def traffic() -> None:
            interval = 1.0 / args.rate if args.rate > 0 else 0.1
            pending = set()
            while not stop.is_set():
                payload = (
                    [rng.randrange(q) for _ in range(n)],
                    [rng.randrange(q) for _ in range(n)],
                )
                try:
                    task = loop.create_task(
                        service.submit("polymul", payload, n, q)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                except ServeOverloadError:
                    pass
                try:
                    await asyncio.wait_for(stop.wait(), timeout=interval)
                except asyncio.TimeoutError:
                    pass
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

        driver = loop.create_task(traffic())
        if args.duration is not None:
            loop.call_later(args.duration, stop.set)
        await stop.wait()
        print("shutting down: draining in-flight batches...")
        await driver
        await service.close(drain=True)
        stats = service.stats
        print(
            f"served {stats['completed']} ok, {stats['failed']} failed, "
            f"{stats['shed']} shed over {stats['batches']} batches "
            f"({stats['submitted']} submitted)"
        )
        return 0

    with observing():
        return asyncio.run(main())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_loadgen

    formats = [] if args.export == "none" else args.export.split("+")
    return run_loadgen(
        logn=args.logn,
        requests=args.requests,
        baseline_requests=args.baseline_requests,
        workers=args.workers,
        seed=args.seed,
        engine=args.engine,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        tenants=args.tenants,
        slo_p99_ms=args.slo_p99_ms,
        min_gain=args.min_gain,
        gate_tail=args.gate_tail,
        snapshot=args.snapshot,
        export_formats=formats,
        output_dir=args.output_dir,
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import run_timeline

    formats = [] if args.export == "none" else args.export.split("+")
    return run_timeline(
        workers=args.workers,
        logn=args.logn,
        batch=args.batch,
        limbs=args.limbs,
        rounds=args.rounds,
        seed=args.seed,
        crash=args.crash,
        export_formats=formats,
        output_dir=args.output_dir,
        min_lanes=args.min_lanes,
        overhead_gate=args.overhead_gate,
    )


def _cmd_codegen(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.codegen.c_emitter import generate_kernel_source
    from repro.codegen.mqx_header import generate_mqx_header

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    q = default_modulus()
    (out / "mqx.h").write_text(generate_mqx_header())
    written = ["mqx.h"]
    for backend_name in ("scalar", "avx2", "avx512", "mqx"):
        backend = get_backend(backend_name)
        for kernel in ("addmod", "submod", "mulmod", "butterfly"):
            source = generate_kernel_source(backend, kernel, q)
            name = f"{kernel}128_{backend_name}.c"
            (out / name).write_text(source)
            written.append(name)
    print(f"wrote {len(written)} files to {out}/: " + ", ".join(written[:5]) + ", ...")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    return runner_main(["runner", args.output])


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.profile import (
        available_experiments,
        export_profile,
        format_summary,
        profile_experiment,
        record_snapshot,
    )

    try:
        report = profile_experiment(args.experiment)
    except ObservabilityError:
        print(
            f"unknown experiment {args.experiment!r}; choose from: "
            + ", ".join(available_experiments()),
            file=sys.stderr,
        )
        return 2
    print(format_summary(report))

    formats = [] if args.export == "none" else args.export.split("+")
    for path in export_profile(report, args.output_dir, formats):
        print(f"wrote {path}")

    if not args.no_snapshot:
        diff = record_snapshot(
            report, snapshot_path=args.snapshot, threshold=args.threshold
        )
        print(f"recorded snapshot to {args.snapshot}")
        if diff is not None:
            print()
            print(diff.format())
    return 0


def _cmd_attrib(args: argparse.Namespace) -> int:
    from repro.obs.attrib import run_attrib

    return run_attrib(
        workers=args.workers,
        logn=args.logn,
        batch=args.batch,
        limbs=args.limbs,
        rounds=args.rounds,
        seed=args.seed,
        json_path=None if args.no_json else args.json,
        output_dir=args.output_dir,
        input_path=args.input,
    )


def _cmd_perfgate(args: argparse.Namespace) -> int:
    from repro.obs.trajectory import run_perfgate, run_selftest

    if args.selftest:
        return run_selftest()
    return run_perfgate(
        files=args.files,
        window=args.window,
        mad_k=args.mad_k,
        rel_floor=args.rel_floor,
        min_runs=args.min_runs,
        all_keys=args.all_keys,
        show_history=args.show_history,
        json_path=args.json,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Cryptographic-kernel reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list backends, CPUs, default modulus")

    est = sub.add_parser("estimate", help="model a kernel's runtime")
    est.add_argument("--kernel", choices=["ntt", "blas"], default="ntt")
    est.add_argument(
        "--backend",
        default="mqx",
        choices=["scalar", "avx2", "avx512", "mqx", "gmp", "openfhe"],
    )
    est.add_argument("--cpu", default="amd_epyc_9654", choices=list_cpus())
    est.add_argument("--logn", type=int, default=14)
    est.add_argument(
        "--algorithm", choices=["schoolbook", "karatsuba"], default="schoolbook"
    )
    est.add_argument("--operation", default="vector_mul")
    est.add_argument("--length", type=int, default=1024)

    sub.add_parser("validate", help="run the PISA validation (Table 6)")

    mca = sub.add_parser("mca", help="print Listing 4 MCA reports")
    mca.add_argument(
        "--microarch", default="sunny_cove", choices=["sunny_cove", "zen4"]
    )

    sol = sub.add_parser("sol", help="Figure 7 speed-of-light summary")
    sol.add_argument("--vendor", choices=["intel", "amd"], default="amd")

    par = sub.add_parser(
        "par",
        help="demo the sharded process-pool engine (engine='parallel')",
    )
    par.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores)"
    )
    par.add_argument("--logn", type=int, default=10)
    par.add_argument("--batch", type=int, default=8)
    par.add_argument("--limbs", type=int, default=4)
    par.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection gauntlet for the parallel engine "
        "(crashes, hangs, corruption; verifies bit-exact recovery)",
    )
    chaos.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--logn", type=int, default=8)
    chaos.add_argument("--batch", type=int, default=8)
    chaos.add_argument("--limbs", type=int, default=3)
    chaos.add_argument(
        "--crash", type=float, default=0.2, help="per-shard crash rate"
    )
    chaos.add_argument(
        "--hang", type=float, default=0.0,
        help="per-shard hang rate (each hang costs ~task-timeout seconds)",
    )
    chaos.add_argument(
        "--corrupt", type=float, default=0.2,
        help="per-shard payload-corruption rate",
    )
    chaos.add_argument(
        "--slow", type=float, default=0.15, help="per-shard straggler rate"
    )
    chaos.add_argument("--task-timeout", type=float, default=3.0)
    chaos.add_argument(
        "--audit", type=float, default=0.25,
        help="fraction of shards re-verified on the faithful engine",
    )
    chaos.add_argument(
        "--rounds", type=int, default=2, help="batches per scenario"
    )
    chaos.add_argument(
        "--export",
        default="none",
        choices=["none", "chrome", "jsonl", "chrome+jsonl"],
        help="export the gauntlet's merged trace (worker lanes included)",
    )
    chaos.add_argument(
        "--output-dir", default=".", help="directory for exported trace files"
    )
    chaos.add_argument(
        "--incident-dir",
        default=None,
        help="attach a flight recorder and require the breaker-trip "
        "scenario to dump an incident-*.json into this directory",
    )

    timeline = sub.add_parser(
        "timeline",
        help="run a parallel workload with cross-process telemetry and "
        "emit the merged per-worker timeline + utilization table",
    )
    timeline.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    timeline.add_argument("--logn", type=int, default=10)
    timeline.add_argument("--batch", type=int, default=8)
    timeline.add_argument("--limbs", type=int, default=4)
    timeline.add_argument(
        "--rounds", type=int, default=3, help="workload repetitions"
    )
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument(
        "--crash",
        type=int,
        default=0,
        help="crash the workers of the first N dispatched shards "
        "(their retries show up on a different lane)",
    )
    timeline.add_argument(
        "--export",
        default="chrome",
        choices=["none", "chrome", "jsonl", "chrome+jsonl"],
        help="merged trace export format(s)",
    )
    timeline.add_argument(
        "--output-dir", default=".", help="directory for exported trace files"
    )
    timeline.add_argument(
        "--min-lanes",
        type=int,
        default=0,
        help="fail unless the merged trace shows at least this many "
        "distinct worker lanes (CI smoke)",
    )
    timeline.add_argument(
        "--overhead-gate",
        type=float,
        default=None,
        help="fail if enabling telemetry slows the workload by more than "
        "this fraction (e.g. 0.10 for 10%%)",
    )

    attrib = sub.add_parser(
        "attrib",
        help="attribute a parallel batch's wall time to overhead "
        "categories and report measured vs ideal speedup",
    )
    attrib.add_argument(
        "--workers", type=int, default=2, help="pool size (default: 2)"
    )
    attrib.add_argument("--logn", type=int, default=10)
    attrib.add_argument("--batch", type=int, default=8)
    attrib.add_argument("--limbs", type=int, default=4)
    attrib.add_argument(
        "--rounds", type=int, default=2, help="workload repetitions"
    )
    attrib.add_argument("--seed", type=int, default=0)
    attrib.add_argument(
        "--input",
        default=None,
        help="attribute an existing JSONL session export instead of "
        "running a fresh batch",
    )
    attrib.add_argument(
        "--json",
        default="attrib.json",
        help="machine-readable report filename (under --output-dir)",
    )
    attrib.add_argument(
        "--no-json", action="store_true", help="skip the JSON report"
    )
    attrib.add_argument(
        "--output-dir", default=".", help="directory for the JSON report"
    )

    gate = sub.add_parser(
        "perfgate",
        help="noise-aware regression gate over the BENCH_*.json snapshot "
        "histories (median + MAD thresholds)",
    )
    gate.add_argument(
        "--files",
        nargs="+",
        default=[
            "BENCH_fast.json",
            "BENCH_par.json",
            "BENCH_pipeline.json",
            "BENCH_serve.json",
        ],
        help="snapshot files to gate (missing files are skipped)",
    )
    gate.add_argument(
        "--window", type=int, default=8,
        help="historical runs per key the baseline medians over",
    )
    gate.add_argument(
        "--mad-k", type=float, default=4.0,
        help="MAD multiplier for the regression threshold",
    )
    gate.add_argument(
        "--rel-floor", type=float, default=0.10,
        help="minimum relative tolerance even for noiseless histories",
    )
    gate.add_argument(
        "--min-runs", type=int, default=2,
        help="historical runs required before a key is gated",
    )
    gate.add_argument(
        "--all-keys",
        action="store_true",
        help="gate every key, not just lower-is-better unit suffixes",
    )
    gate.add_argument(
        "--show-history",
        action="store_true",
        help="print the unified snapshot trajectory (git SHA, timestamp, "
        "host) before gating",
    )
    gate.add_argument(
        "--json", default=None, help="write the gate report as JSON here"
    )
    gate.add_argument(
        "--selftest",
        action="store_true",
        help="record real timings in a scratch store, gate a rerun, then "
        "verify an injected 2x regression is flagged",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async batching service under synthetic traffic "
        "until SIGINT/SIGTERM (drains in-flight batches on shutdown)",
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument(
        "--engine", default="parallel",
        choices=["parallel", "fast", "faithful"],
    )
    serve.add_argument("--logn", type=int, default=8)
    serve.add_argument(
        "--rate", type=float, default=200.0,
        help="synthetic offered load, requests/s",
    )
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument(
        "--max-wait-ms", type=float, default=5.0,
        help="coalesce window (latency a sparse key pays to batch)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=1024,
        help="admitted-backlog cap before queue_full shedding",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until signalled)",
    )
    serve.add_argument("--seed", type=int, default=0)

    lg = sub.add_parser(
        "loadgen",
        help="deterministic serve-layer benchmark: p50/p99 per op, "
        "coalesce gain vs one-at-a-time, overload shed accounting",
    )
    lg.add_argument("--workers", type=int, default=2)
    lg.add_argument(
        "--engine", default="parallel",
        choices=["parallel", "fast", "faithful"],
    )
    lg.add_argument("--logn", type=int, default=8)
    lg.add_argument("--requests", type=int, default=192)
    lg.add_argument("--baseline-requests", type=int, default=48)
    lg.add_argument("--max-batch", type=int, default=32)
    lg.add_argument("--max-wait-ms", type=float, default=5.0)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument(
        "--min-gain", type=float, default=3.0,
        help="required batched-vs-baseline throughput ratio",
    )
    lg.add_argument(
        "--gate-tail", type=float, default=50.0,
        help="fail if batched p99 exceeds this multiple of p50",
    )
    lg.add_argument(
        "--tenants", type=int, default=4,
        help="synthetic tenants the batched phase rotates over",
    )
    lg.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="declare a p99 latency objective on the batched service "
        "(publishes serve.slo.* and arms the slo_burn trigger)",
    )
    lg.add_argument(
        "--snapshot", default=None,
        help="perf-snapshot history file (e.g. BENCH_serve.json)",
    )
    lg.add_argument(
        "--export", default="none", choices=["none", "chrome"],
        help="export the run's merged trace (worker lanes included)",
    )
    lg.add_argument("--output-dir", default=".")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over the serve layer (rps, per-op "
        "p50/p99 vs SLO, backlog, shed/degrade, breaker, slots, arena)",
    )
    top.add_argument(
        "--url", default=None,
        help="OpenMetrics endpoint to scrape (e.g. http://127.0.0.1:9100"
        "/metrics); omit with --once to self-drive a short burst",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit non-zero if a required "
        "panel is empty (CI smoke)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in live mode, seconds",
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop live mode after this many frames (default: Ctrl-C)",
    )
    top.add_argument(
        "--engine", default="fast",
        choices=["parallel", "fast", "faithful"],
        help="engine for the self-driven --once burst",
    )
    top.add_argument("--logn", type=int, default=6)
    top.add_argument(
        "--requests", type=int, default=96,
        help="requests in the self-driven --once burst",
    )
    top.add_argument(
        "--slo-p99-ms", type=float, default=250.0,
        help="SLO target the self-driven burst declares",
    )

    inc = sub.add_parser(
        "incidents",
        help="list and summarize flight-recorder incident dumps "
        "(incident-*.json)",
    )
    inc.add_argument(
        "--dir", default=".", help="directory holding incident-*.json"
    )
    inc.add_argument(
        "--fail-empty", action="store_true",
        help="exit non-zero when no incidents are found (CI assertion)",
    )

    exp = sub.add_parser("experiments", help="regenerate EXPERIMENTS.md")
    exp.add_argument("--output", default="EXPERIMENTS.md")

    gen = sub.add_parser(
        "codegen", help="emit C-with-intrinsics kernels + mqx.h (artifact)"
    )
    gen.add_argument("--output", default="generated")

    prof = sub.add_parser(
        "profile",
        help="run one experiment under the observability layer "
        "(spans + metrics + trace export + perf snapshot)",
    )
    prof.add_argument(
        "--experiment",
        default="headline",
        help="experiment key (e.g. headline, figure5a, table1; an unknown "
        "key prints the full list)",
    )
    prof.add_argument(
        "--export",
        default="none",
        choices=["none", "chrome", "jsonl", "chrome+jsonl"],
        help="trace export format(s); chrome output loads in "
        "chrome://tracing or ui.perfetto.dev",
    )
    prof.add_argument(
        "--output-dir", default=".", help="directory for exported trace files"
    )
    prof.add_argument(
        "--snapshot",
        default="BENCH_pipeline.json",
        help="perf-snapshot history file to record into and diff against",
    )
    prof.add_argument(
        "--no-snapshot",
        action="store_true",
        help="skip recording/diffing the perf snapshot",
    )
    prof.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative change flagged as a snapshot regression",
    )

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "codegen": _cmd_codegen,
    "estimate": _cmd_estimate,
    "validate": _cmd_validate,
    "mca": _cmd_mca,
    "sol": _cmd_sol,
    "par": _cmd_par,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "top": _cmd_top,
    "incidents": _cmd_incidents,
    "timeline": _cmd_timeline,
    "experiments": _cmd_experiments,
    "profile": _cmd_profile,
    "attrib": _cmd_attrib,
    "perfgate": _cmd_perfgate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
