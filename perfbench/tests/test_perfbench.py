"""Self-tests of the benchmark: determinism, the checkers, the contract.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import common, inputs, reference, serve_open, wide_batch
from perfbench.serve_open import Record

RUN = [sys.executable, str(common.REPO_ROOT / "perfbench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _session_members(sid: int) -> list:
    """Live processes of session ``sid`` (zombies included)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


# ---------------------------------------------------------------------------
# One seed, one input set
# ---------------------------------------------------------------------------


def test_schedule_and_operands_repeat_per_seed():
    q = inputs.serve_prime()
    first = inputs.schedule(5, "low", 45.0, 200)
    assert first == inputs.schedule(5, "low", 45.0, 200)
    assert first != inputs.schedule(6, "low", 45.0, 200)
    assert {a.op for a in first} == {op for op, _, _ in inputs.SERVE_MIX}
    offsets = [a.offset_s for a in first]
    assert offsets == sorted(offsets) and offsets[0] > 0
    for arrival in first[:10]:
        again = inputs.serve_operands(5, arrival, q)
        for u, v in zip(inputs.serve_operands(5, arrival, q), again):
            assert np.array_equal(u, v)
            assert len(u) == arrival.n and int(u.max()) < q


def test_closed_loop_operands_repeat_per_seed():
    primes = inputs.rns_primes()
    assert len(set(primes)) == 4 and all(p.bit_length() == 60 for p in primes)
    assert inputs.rns_operands(3, 7, primes) == inputs.rns_operands(3, 7, primes)
    assert inputs.rns_operands(3, 7, primes) != inputs.rns_operands(4, 7, primes)
    q = inputs.wide_prime()
    op, x, y, a = inputs.wide_operands(3, 2, q, 2, n=16)
    assert (op, x, y, a) == inputs.wide_operands(3, 2, q, 2, n=16)
    assert op == "axpy" and 0 < a < q
    assert all(0 <= v < q for row in x + y for v in row)
    assert inputs.wide_operands(4, 2, q, 2, n=16)[1] != x


# ---------------------------------------------------------------------------
# The reference checks agree with repro's pure-Python references ...
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 64, 1024])
def test_negacyclic_reference_matches_ntt_polymul(n):
    from repro.ntt.polymul import ntt_polymul

    q = inputs.serve_prime()
    rng = random.Random(n)
    f = [rng.randrange(q) for _ in range(n)]
    g = [rng.randrange(q) for _ in range(n)]
    linear = ntt_polymul(f, g, q) + [0]
    folded = [(linear[i] - linear[i + n]) % q for i in range(n)]
    assert reference.negacyclic_mul(f, g, q) == folded


@pytest.mark.parametrize("q", [inputs.serve_prime(), *inputs.rns_primes(), inputs.wide_prime()])
def test_fft_product_matches_kronecker(q):
    n = 4096
    rng = random.Random(q)
    f = [rng.randrange(q) for _ in range(n)]
    g = [rng.randrange(q) for _ in range(n)]
    assert reference.negacyclic_mul(f, g, q) == reference.kronecker_negacyclic_mul(f, g, q)
    top = [q - 1] * n  # every limb-pair term at its largest
    assert reference.negacyclic_mul(top, top, q) == reference.kronecker_negacyclic_mul(top, top, q)


@pytest.mark.parametrize("q", [inputs.serve_prime(), inputs.wide_prime()])
def test_ntt_check_accepts_radix2_and_catches_corruption(q):
    from repro.ntt.radix2 import ntt

    n = 256
    rng = random.Random(q)
    x = [rng.randrange(q) for _ in range(n)]
    good = ntt(x, q)
    check = reference.NttCheck(n, q, inputs.check_point(1, "test", q))
    assert check.ok(x, good)
    flipped = list(good)
    flipped[17] = (flipped[17] + 1) % q
    assert not check.ok(x, flipped)
    swapped = list(good)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert not check.ok(x, swapped)
    unreduced = list(good)
    unreduced[0] += q
    assert not check.ok(x, unreduced)
    assert not check.ok(x, good[:-1])


# ---------------------------------------------------------------------------
# ... and catch a corrupted response from the engines under test
# ---------------------------------------------------------------------------


def test_serve_phase_check_catches_corrupted_responses():
    from repro.fast import FastBlasPlan, FastNegacyclic, FastNtt

    q = inputs.serve_prime()
    arrivals = [
        inputs.Arrival("low", i, 0.0, op, n, "t0")
        for i, (op, n, _) in enumerate(inputs.SERVE_MIX)
    ]
    operands = [inputs.serve_operands(9, a, q) for a in arrivals]

    def served():
        out = []
        for arrival, vecs in zip(arrivals, operands):
            ints = [v.tolist() for v in vecs]
            if arrival.op == "polymul":
                out.append(FastNegacyclic(arrival.n, q).multiply(*ints))
            elif arrival.op == "ntt":
                out.append(FastNtt(arrival.n, q).forward(ints[0]))
            else:
                out.append(FastBlasPlan(q).vector_mul(*ints))
        return out

    def wrong_count(results):
        records = [Record(outcome="ok", result=r) for r in results]
        pending = {}
        wrong = serve_open._check_phase(9, "low", arrivals, operands, records, q, pending)
        digests = {task: reference.reference_digest(task) for task in pending}
        return wrong + sum(1 for t, got in pending.items() if digests[t] != got)

    assert wrong_count(served()) == 0
    for victim in range(len(arrivals)):
        results = served()
        results[victim][5] = (results[victim][5] + 1) % q
        assert wrong_count(results) == 1


def test_wide_check_catches_corrupted_rows():
    from repro.fast import FastBlasPlan, FastNtt

    q = inputs.wide_prime()
    check = reference.NttCheck(64, q, inputs.check_point(2, "wide-batch", q))
    for call in range(3):
        op, x, y, a = inputs.wide_operands(2, call, q, 3, n=64)
        if op == "ntt":
            result = FastNtt(64, q).forward(x)
        elif op == "vector_mul":
            result = FastBlasPlan(q).vector_mul(x, y)
        else:
            result = FastBlasPlan(q).axpy(a, x, y)
        assert wide_batch._check(op, x, y, a, result, q, check)
        result[2][63] ^= 1
        assert not wide_batch._check(op, x, y, a, result, q, check)


def test_rns_reference_digest_catches_a_corrupted_row():
    from repro.kernels import get_backend
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

    primes = inputs.rns_primes()
    ring = RnsPolynomialRing(inputs.N_LARGE, RnsBasis(primes), get_backend("avx512"), engine="fast")
    a, b, c = (RnsPolynomial(ring, rows) for rows in inputs.rns_operands(4, 0, primes))
    rows = ring.add(ring.mul(a, b), c).residues
    expected = reference.reference_digest(("rns", 4, 0, tuple(primes)))
    assert reference.digest(rows) == expected
    rows[3][100] = (rows[3][100] + 1) % primes[3]
    assert reference.digest(rows) != expected
    assert reference.digest([[-1]]) == "invalid"


# ---------------------------------------------------------------------------
# The contract with BENCHMARK.json
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    spec = json.loads(common.BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    from perfbench import run

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    with subprocess.Popen(
        RUN + ["--workload", "wide-batch", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=common.REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as child:
        stdout, stderr = child.communicate(timeout=170)
        # the pool, the spawned reference processes and their resource
        # tracker have all ended by the time the command exits
        assert _session_members(child.pid) == []
    proc = subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = common.declared_metrics(bool(trace))
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert f"metric {metric['name']}" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.REPO_ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-open", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
