"""Benchmark: fast (NumPy) engine vs the faithful scalar backend.

Measures wall-clock for the workloads the tentpole targets — a
4096-point forward NTT and the four 2^12-element BLAS operations — on
both engines, verifies the outputs are identical, records everything
(including the speedups) into ``BENCH_fast.json`` via the
``repro.obs.snapshot`` store, and fails if the NTT speedup drops below
the CI floor of 10x.

A second section races the fast engine's two arithmetic substrates —
the 52-bit redundant-limb r52 path against the double-word schoolbook
path — at a two-limb (100-bit) prime and again at 124 bits (three
limbs), with interleaved timing rounds (see ``_duel``) so background
load cannot skew the ratio; the two-limb r52 NTT speedup is gated at
``--min-r52-speedup`` (default 1.5x). The 124-bit rows are recorded,
not gated: they are the measurements behind the substrate rule in
:mod:`repro.fast.r52` (transforms always on r52, general-operand
products on r52 only through 102 bits). ``FastNtt`` has no dw stage
loop, so the NTT contender is :func:`_dw_forward`, kept here.

A third section duels the limb-split GEMM kernel (which serves 51–62-bit
moduli) against the r52 stage loop on the negacyclic n = 4096 product at
51, 56 and 60 bits; the 60-bit row is gated at ``--min-gemm-speedup``
(default 2x), the others are recorded. Plans at those widths route to
GEMM, so the r52 contender is :func:`_r52_polymul`, driving
:class:`~repro.fast.r52.R52Ntt` directly.

Runs two ways:

* ``python benchmarks/bench_fast.py [--snapshot PATH] [--min-speedup X]``
  — the CI smoke (exits non-zero below the floor);
* ``pytest benchmarks/bench_fast.py`` — the same checks as a test.

The faithful side is timed with a *reduced* iteration count (it is the
~6-second interpreted path the fast engine exists to replace); the fast
side takes the best of several rounds, matching the paper's
best-of-rounds convention for wall-clock numbers.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from repro.arith.primes import find_ntt_prime
from repro.blas.ops import BLAS_OPERATIONS, BlasPlan
from repro.kernels import get_backend
from repro.ntt.simd import SimdNtt
from repro.obs.snapshot import SnapshotStore

#: Default snapshot file for fast-engine numbers, at the repo root.
DEFAULT_SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_fast.json"

#: CI floor for the 4096-point NTT fast/faithful speedup.
MIN_NTT_SPEEDUP = 10.0

#: CI floor for the r52-vs-schoolbook 4096-point NTT speedup.
MIN_R52_NTT_SPEEDUP = 1.5

NTT_N = 4096
BLAS_N = 1 << 12

#: CI floor for the GEMM-vs-r52 negacyclic n = 4096 product speedup.
MIN_GEMM_SPEEDUP = 2.0

#: Modulus width of the gated GEMM duel (the benchmark workloads' primes).
GEMM_BITS = 60

#: Every width the GEMM duel runs at: the bottom of the GEMM range, its
#: middle and the gated width.
GEMM_DUEL_BITS = (51, 56, GEMM_BITS)

#: Modulus width for the gated r52 section: a two-limb prime, where
#: ``auto`` picks r52 for every op (the headline 124-bit prime above is
#: a three-limb width, duelled separately under the ``_124`` keys).
R52_BITS = 100


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _duel(fn_a, fn_b, rounds: int):
    """Best-of timing for two contenders with *interleaved* rounds.

    Alternating A/B inside every round exposes both sides to the same
    machine-load window, so the recorded ratio is robust against the
    background noise that sequential best-of runs can fold entirely
    into one contender.
    """
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(rounds):
        start = time.perf_counter()
        out_a = fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        out_b = fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b, out_a, out_b


def run(fast_rounds: int = 3) -> dict:
    """Time both engines on the target workloads; return the value dict."""
    q = find_ntt_prime(124, 1 << 20)
    rng = random.Random(2025)
    backend = get_backend("scalar")
    values = {}

    # --- 4096-point forward NTT --------------------------------------
    data = [rng.randrange(q) for _ in range(NTT_N)]
    faithful_plan = SimdNtt(NTT_N, q, backend)
    fast_plan = SimdNtt(NTT_N, q, backend, engine="fast")
    fast_plan.forward(data)  # warm the twiddle caches before timing
    fast_s, fast_out = _best_of(lambda: fast_plan.forward(data), fast_rounds)
    faithful_s, faithful_out = _best_of(
        lambda: faithful_plan.forward(data), 1
    )
    if fast_out != faithful_out:
        raise AssertionError("fast and faithful NTT outputs differ")
    values["fast.ntt4096.fast_s"] = fast_s
    values["fast.ntt4096.faithful_s"] = faithful_s
    values["fast.ntt4096.speedup"] = faithful_s / fast_s

    # --- the four 2^12-element BLAS operations -----------------------
    # Two fast timings per op: the list API (pays Python int <-> limb
    # conversion at the call boundary) and the array-resident path
    # (operands already packed as limb arrays, as the RNS pipeline holds
    # them between operations — this is the engine's amortized cost).
    from repro.fast.limbs import limbs_from_ints, limbs_to_ints

    x = [rng.randrange(q) for _ in range(BLAS_N)]
    y = [rng.randrange(q) for _ in range(BLAS_N)]
    a = rng.randrange(q)
    xa, ya = limbs_from_ints(x), limbs_from_ints(y)
    faithful_blas = BlasPlan(q, backend)
    fast_blas = BlasPlan(q, backend, engine="fast")
    resident = fast_blas.fast_plan
    for op in BLAS_OPERATIONS:
        if op == "axpy":
            fast_fn = lambda: fast_blas.axpy(a, x, y)
            resident_fn = lambda: resident.axpy(a, xa, ya)
            faithful_fn = lambda: faithful_blas.axpy(a, x, y)
        else:
            fast_fn = lambda: getattr(fast_blas, op)(x, y)
            resident_fn = lambda: getattr(resident, op)(xa, ya)
            faithful_fn = lambda: getattr(faithful_blas, op)(x, y)
        fast_s, fast_out = _best_of(fast_fn, fast_rounds)
        resident_s, resident_out = _best_of(resident_fn, fast_rounds)
        faithful_s, faithful_out = _best_of(faithful_fn, 1)
        if fast_out != faithful_out:
            raise AssertionError(f"fast and faithful {op} outputs differ")
        if limbs_to_ints(resident_out) != faithful_out:
            raise AssertionError(f"resident and faithful {op} outputs differ")
        values[f"fast.blas4096.{op}.fast_s"] = fast_s
        values[f"fast.blas4096.{op}.resident_s"] = resident_s
        values[f"fast.blas4096.{op}.faithful_s"] = faithful_s
        values[f"fast.blas4096.{op}.speedup"] = faithful_s / fast_s
        values[f"fast.blas4096.{op}.resident_speedup"] = faithful_s / resident_s

    values.update(run_r52(fast_rounds=max(fast_rounds, 5)))
    for bits in GEMM_DUEL_BITS:
        values.update(run_gemm(bits, fast_rounds=max(fast_rounds, 5)))
    return values


def _r52_polymul(plan, stages, twist, untwist, f, g):
    """Negacyclic product on the r52 stage loop (the GEMM duel's contender).

    The chain :data:`~repro.fast.chain.NEGACYCLIC_MUL_STEPS` as the r52
    runner executes it: twist, forward stages, pointwise Barrett product,
    bit-reversed inverse stages, ``1/n`` and untwist, all on resident
    limb planes between one split and one join.
    """
    r = stages.mod
    bitrev = plan._bitrev
    n_inv = r.shoup(int(plan.table.n_inverse))
    spectra = [
        stages.run_stages(r.mulmod_shoup(r.from_dw(x), twist), False)
        for x in (f, g)
    ]
    prod = r.mulmod(*spectra)
    prod = stages.run_stages([p[..., bitrev] for p in prod], True)
    prod = r.mulmod_shoup([p[..., bitrev] for p in prod], n_inv)
    return r.to_dw(r.mulmod_shoup(prod, untwist))


def run_gemm(bits: int = GEMM_BITS, fast_rounds: int = 5) -> dict:
    """Duel the GEMM kernel against the r52 stage loop (n = 4096, ``bits``).

    Both contenders take and return resident double-word limb arrays;
    the outputs are cross-checked bit-exact before the timings count.
    """
    from repro.fast.limbs import limbs_from_ints
    from repro.fast.ntt import FastNegacyclic
    from repro.fast.r52 import R52Ntt

    q = find_ntt_prime(bits, 2 * NTT_N)
    rng = random.Random(2027)
    f, g = (
        limbs_from_ints([rng.randrange(q) for _ in range(NTT_N)])
        for _ in range(2)
    )
    neg = FastNegacyclic(NTT_N, q)
    if neg.mode != "gemm":
        raise AssertionError(f"{bits}-bit plan routed to {neg.mode}")
    plan = neg.plan
    r = plan.mod.r52
    stages = R52Ntt(plan.table, r)
    twist = r.shoup_vector([pow(neg.psi, i, q) for i in range(NTT_N)])
    psi_inv = pow(neg.psi, -1, q)
    untwist = r.shoup_vector([pow(psi_inv, i, q) for i in range(NTT_N)])
    # Warm both contenders' tables before timing.
    _r52_polymul(plan, stages, twist, untwist, f, g)
    neg.multiply(f, g)
    r52_s, gemm_s, r52_out, gemm_out = _duel(
        lambda: _r52_polymul(plan, stages, twist, untwist, f, g),
        lambda: neg.multiply(f, g),
        fast_rounds,
    )
    if (r52_out != gemm_out).any():
        raise AssertionError("GEMM and r52 negacyclic products differ")
    key = f"fast.gemm.polymul{NTT_N}_{bits}"
    return {
        f"{key}.r52_s": r52_s,
        f"{key}.gemm_s": gemm_s,
        f"{key}.speedup": r52_s / gemm_s,
    }


def run_r52(fast_rounds: int = 5) -> dict:
    """Time the r52 substrate against the dw schoolbook path.

    Both contenders are the *fast engine* — this section measures what
    the redundant-limb substrate buys over the existing double-word
    arithmetic on the 4096-point NTT, resident point-wise multiply and
    resident ``axpy``, at a two-limb width (``fast.r52.*``) and at the
    top of the three-limb range (``fast.r52.*_124``), where transforms
    still run on r52 but ``auto`` BLAS is dw. Every pair is cross-checked
    bit-exact before the timings are recorded.
    """
    values = _substrate_duels(R52_BITS, "", fast_rounds)
    values.update(_substrate_duels(124, "_124", fast_rounds))
    return values


def _dw_forward(mod, stage_twiddles, bitrev, data):
    """Forward NTT (natural order) on the double-word substrate.

    The NTT duel's contender: the Pease dataflow of
    :class:`repro.fast.r52.R52Ntt`, with one ``mulmod``/``addmod``/
    ``submod`` triple of the dw :class:`~repro.fast.modular.FastModulus`
    per stage and the same operand range check ``FastNtt.forward`` does.
    """
    import numpy as np

    mod.check_reduced(data)
    half = data.shape[-2] // 2
    x = data
    for tw in stage_twiddles:
        top = x[..., :half, :]
        t = mod.mulmod(x[..., half:, :], tw)
        x = np.empty_like(x)
        x[..., 0::2, :] = mod.addmod(top, t)
        x[..., 1::2, :] = mod.submod(top, t)
    return x[..., bitrev, :]


def _substrate_duels(bits: int, suffix: str, fast_rounds: int) -> dict:
    """dw-vs-r52 duels at one modulus width; keys carry ``suffix``."""
    from repro.fast.blas import FastBlasPlan
    from repro.fast.limbs import limbs_from_ints, r52_join, r52_split
    from repro.fast.modular import FastModulus
    from repro.fast.ntt import FastNtt

    q = find_ntt_prime(bits, 1 << 20)
    rng = random.Random(2026)
    ntt_key = f"fast.r52.ntt4096{suffix}"
    blas_key = f"fast.r52.blas4096{suffix}"
    values = {}

    # --- 4096-point forward NTT (Harvey-lazy stages on r52) ----------
    data = limbs_from_ints([rng.randrange(q) for _ in range(NTT_N)])
    ntt = FastNtt(NTT_N, q)
    mod_dw = FastModulus.get(q, "dw")
    stage_tw = [
        limbs_from_ints(ntt.table.pease_stage_twiddles(stage))
        for stage in range(ntt.table.stages)
    ]
    ntt.forward(data)  # warm the Shoup caches before timing
    dw_s, r52_s, dw_out, r52_out = _duel(
        lambda: _dw_forward(mod_dw, stage_tw, ntt._bitrev, data),
        lambda: ntt.forward(data),
        fast_rounds,
    )
    if (dw_out != r52_out).any():
        raise AssertionError(f"dw and r52 NTT outputs differ at {bits} bits")
    values[f"{ntt_key}.dw_s"] = dw_s
    values[f"{ntt_key}.r52_s"] = r52_s
    values[f"{ntt_key}.speedup"] = dw_s / r52_s

    x = limbs_from_ints([rng.randrange(q) for _ in range(BLAS_N)])
    y = limbs_from_ints([rng.randrange(q) for _ in range(BLAS_N)])
    a = rng.randrange(q)
    mod_r52 = FastModulus.get(q, "r52")
    sub = mod_r52.r52

    # --- resident vector_mul: each substrate on its native layout ----
    # The dw side's resident form is the (..., 2) limb array; the r52
    # side's resident form is its 52-bit planes (what the NTT holds
    # between stages). The repack cost a mixed pipeline would pay at
    # the boundary is recorded separately as ``boundary_s``.
    xp, yp = r52_split(x, sub.limbs), r52_split(y, sub.limbs)
    dw_s, r52_s, dw_out, r52_out = _duel(
        lambda: mod_dw.mulmod(x, y), lambda: sub.mulmod(xp, yp), fast_rounds
    )
    if (dw_out != r52_join(r52_out)).any():
        raise AssertionError(
            f"dw and r52 vector_mul outputs differ at {bits} bits"
        )
    boundary_s, _ = _best_of(lambda: mod_r52.mulmod(x, y), fast_rounds)
    values[f"{blas_key}.vector_mul.dw_s"] = dw_s
    values[f"{blas_key}.vector_mul.r52_s"] = r52_s
    values[f"{blas_key}.vector_mul.boundary_s"] = boundary_s
    values[f"{blas_key}.vector_mul.speedup"] = dw_s / r52_s

    # --- resident axpy (runtime Shoup constant on the r52 side) ------
    plan_dw = FastBlasPlan(q, mode="dw")
    plan_r52 = FastBlasPlan(q, mode="r52")
    dw_s, r52_s, dw_out, r52_out = _duel(
        lambda: plan_dw.axpy(a, x, y), lambda: plan_r52.axpy(a, x, y),
        fast_rounds,
    )
    if (dw_out != r52_out).any():
        raise AssertionError(f"dw and r52 axpy outputs differ at {bits} bits")
    values[f"{blas_key}.axpy.dw_s"] = dw_s
    values[f"{blas_key}.axpy.r52_s"] = r52_s
    values[f"{blas_key}.axpy.speedup"] = dw_s / r52_s
    return values


def record(values: dict, snapshot_path=DEFAULT_SNAPSHOT) -> None:
    """Append the measurements to the fast-engine snapshot history."""
    SnapshotStore(snapshot_path).record(values, label="bench_fast")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", type=Path, default=DEFAULT_SNAPSHOT)
    parser.add_argument("--min-speedup", type=float, default=MIN_NTT_SPEEDUP)
    parser.add_argument(
        "--min-r52-speedup", type=float, default=MIN_R52_NTT_SPEEDUP,
        help="floor for the r52-vs-schoolbook 4096-point NTT speedup",
    )
    parser.add_argument(
        "--min-gemm-speedup", type=float, default=MIN_GEMM_SPEEDUP,
        help="floor for the GEMM-vs-r52 negacyclic n=4096 product speedup",
    )
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    values = run(fast_rounds=args.rounds)
    record(values, args.snapshot)

    ntt_speedup = values["fast.ntt4096.speedup"]
    print(f"4096-point NTT: faithful {values['fast.ntt4096.faithful_s']:.3f}s"
          f"  fast {values['fast.ntt4096.fast_s'] * 1e3:.2f}ms"
          f"  speedup {ntt_speedup:.0f}x")
    for op in BLAS_OPERATIONS:
        print(f"{BLAS_N}-element {op}: "
              f"faithful {values[f'fast.blas4096.{op}.faithful_s'] * 1e3:.1f}ms"
              f"  fast {values[f'fast.blas4096.{op}.fast_s'] * 1e6:.0f}us"
              f" ({values[f'fast.blas4096.{op}.speedup']:.0f}x)"
              f"  resident {values[f'fast.blas4096.{op}.resident_s'] * 1e6:.0f}us"
              f" ({values[f'fast.blas4096.{op}.resident_speedup']:.0f}x)")
    r52_ntt = values["fast.r52.ntt4096.speedup"]
    for bits, suffix in ((R52_BITS, ""), (124, "_124")):
        print(f"r52 vs dw @ {bits}-bit prime: "
              f"ntt4096 {values[f'fast.r52.ntt4096{suffix}.speedup']:.2f}x"
              f"  vector_mul "
              f"{values[f'fast.r52.blas4096{suffix}.vector_mul.speedup']:.2f}x"
              f"  axpy {values[f'fast.r52.blas4096{suffix}.axpy.speedup']:.2f}x")
    for bits in GEMM_DUEL_BITS:
        key = f"fast.gemm.polymul{NTT_N}_{bits}"
        gated = " (gated)" if bits == GEMM_BITS else ""
        print(f"GEMM vs r52 @ {bits}-bit prime: negacyclic n={NTT_N} product "
              f"r52 {values[f'{key}.r52_s'] * 1e3:.2f}ms"
              f"  gemm {values[f'{key}.gemm_s'] * 1e3:.2f}ms"
              f"  {values[f'{key}.speedup']:.2f}x{gated}")
    gemm = values[f"fast.gemm.polymul{NTT_N}_{GEMM_BITS}.speedup"]
    print(f"snapshot recorded to {args.snapshot}")

    if ntt_speedup < args.min_speedup:
        print(f"FAIL: NTT speedup {ntt_speedup:.1f}x is below the "
              f"{args.min_speedup:.0f}x floor", file=sys.stderr)
        return 1
    if r52_ntt < args.min_r52_speedup:
        print(f"FAIL: r52 NTT speedup {r52_ntt:.2f}x is below the "
              f"{args.min_r52_speedup:.1f}x floor", file=sys.stderr)
        return 1
    if gemm < args.min_gemm_speedup:
        print(f"FAIL: GEMM product speedup {gemm:.2f}x is below the "
              f"{args.min_gemm_speedup:.1f}x floor", file=sys.stderr)
        return 1
    return 0


def test_fast_engine_speedup(tmp_path):
    """Pytest form of the CI gate (isolated snapshot file)."""
    values = run(fast_rounds=3)
    record(values, tmp_path / "BENCH_fast.json")
    assert values["fast.ntt4096.speedup"] >= MIN_NTT_SPEEDUP
    for op in BLAS_OPERATIONS:
        assert values[f"fast.blas4096.{op}.speedup"] > 1.0
        assert values[f"fast.blas4096.{op}.resident_speedup"] > 1.0
    assert values["fast.r52.ntt4096.speedup"] >= MIN_R52_NTT_SPEEDUP
    assert values["fast.r52.blas4096.vector_mul.speedup"] > 1.0
    assert values["fast.r52.blas4096.axpy.speedup"] > 1.0
    assert values[f"fast.gemm.polymul{NTT_N}_{GEMM_BITS}.speedup"] >= MIN_GEMM_SPEEDUP


if __name__ == "__main__":
    sys.exit(main())
