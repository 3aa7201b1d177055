"""The faithful engine's chain interpreter.

The faithful twin of :func:`repro.fast.chain.run_chain`: it runs the
same canonical step tuples (:mod:`repro.fast.chain`), one row of int
registers at a time, every step on the ISA-simulated kernel backend,
so a traced chain is the instruction stream the performance model
consumes. ``ntt`` steps run the :class:`~repro.ntt.simd.SimdNtt` stage
loop; ``twist``, ``pointwise`` and ``blas`` steps run :func:`blocked`
passes (a twist against the plan's psi-power tables).

It is the faithful engine's one description of a transform or product:
the faithful ``SimdNtt``, ``NegacyclicNtt`` and ``BlasPlan`` (and
through them ``RnsPolynomialRing.mul`` and ``simd_ntt_polymul``) run
:func:`run_chain`, and so does the pool's cross-engine audit
(:func:`repro.resil.integrity.audit_shards`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ArithmeticDomainError, NttParameterError
from repro.fast.chain import OUT_REGISTER
from repro.obs.hooks import count
from repro.util.checks import check_reduced, check_vector_length

if TYPE_CHECKING:  # both modules import this one
    from repro.blas.ops import BlasPlan
    from repro.ntt.negacyclic import NegacyclicNtt
    from repro.ntt.simd import SimdNtt

#: The backend method behind each element-wise BLAS operation.
_BACKEND_OPS = {
    "vector_add": "addmod", "vector_sub": "submod", "vector_mul": "mulmod",
}


def blocked(
    backend, ctx, op: str, x: Sequence[int], y: Sequence[int],
    a: Optional[int] = None,
) -> List[int]:
    """One BLAS op (``a * x + y`` for ``axpy``), one SIMD block at a time."""
    lanes = backend.lanes
    if op == "axpy":
        a_block = backend.broadcast_dw(a)
    else:
        method = getattr(backend, _BACKEND_OPS[op])
    out: List[int] = []
    for base in range(0, len(x), lanes):
        xb = backend.load_block(x[base : base + lanes])
        yb = backend.load_block(y[base : base + lanes])
        if op == "axpy":
            prod = backend.mulmod(xb, a_block, ctx)
            out.extend(backend.store_block(backend.addmod(prod, yb, ctx)))
        else:
            out.extend(backend.store_block(method(xb, yb, ctx)))
    return out


def run_chain(
    steps: Sequence[dict],
    inputs: Dict[str, Sequence],
    ntt: Optional[SimdNtt] = None,
    neg: Optional[NegacyclicNtt] = None,
    blas: Optional[BlasPlan] = None,
):
    """Run ``steps`` over ``inputs``; returns ``"out"`` in the inputs' form.

    ``inputs`` maps register names to flat int vectors or to ``(batch,
    n)`` lists of rows; the chain runs once per row. Each row is
    validated first: a transform chain (``ntt`` given) needs ``n``
    reduced values, a BLAS-only chain equal-length reduced vectors that
    fill the backend's lanes. ``neg`` supplies the twist tables.
    """
    first = next(iter(inputs.values()))
    batched = len(first) > 0 and hasattr(first[0], "__len__")
    rows = {
        name: values if batched else [values] for name, values in inputs.items()
    }
    count = len(first) if batched else 1
    for name, values in rows.items():
        if len(values) != count:
            raise NttParameterError(
                f"chain input {name!r} has {len(values)} rows, expected {count}"
            )
    out = []
    for index in range(count):
        regs = {name: values[index] for name, values in rows.items()}
        _check_row(regs, ntt, blas)
        out.append(_run_row(steps, regs, ntt, neg, blas))
    return out if batched else out[0]


def _check_row(regs: Dict[str, Sequence[int]], ntt, blas) -> None:
    width = len(next(iter(regs.values())))
    if ntt is None:
        check_vector_length(width, blas.backend.lanes)
    for name, row in regs.items():
        if ntt is not None and len(row) != ntt.n:
            raise NttParameterError(f"expected {ntt.n} values, got {len(row)}")
        if len(row) != width:
            raise ArithmeticDomainError(
                f"vector length mismatch: {width} vs {len(row)}"
            )
        q = (ntt or blas).q
        for i, value in enumerate(row):
            check_reduced(value, q, f"{name}[{i}]")


def _run_row(steps, regs, ntt, neg, blas) -> List[int]:
    for step in steps:
        kind = step["kind"]
        if kind == "ntt":
            inverse = step["direction"] == "inverse"
            op = "ntt.inverse" if inverse else "ntt.forward"
            count("engine.<engine>.calls.<op>", "faithful", op)
            count("engine.<engine>.elements.<op>", "faithful", op, amount=ntt.n)
            value = ntt._transform(
                regs[step["src"]], inverse, bool(step.get("natural", False))
            )
        elif kind == "twist":
            if neg is None:
                raise NttParameterError(
                    "chain has a twist step but no negacyclic plan (psi)"
                )
            table = (
                neg.untwist_table if step["which"] == "untwist"
                else neg.twist_table
            )
            value = blocked(
                ntt.backend, ntt.ctx, "vector_mul", regs[step["src"]], table
            )
        elif kind == "pointwise":
            a, b = regs[step["a"]], regs[step["b"]]
            value = blocked(ntt.backend, ntt.ctx, "vector_mul", a, b)
        elif kind == "blas":
            op, x = step["blas_op"], regs[step["x"]]
            label = f"blas.{op}"
            count("engine.<engine>.calls.<op>", "faithful", label)
            count("engine.<engine>.elements.<op>", "faithful", label, amount=len(x))
            value = blocked(
                blas.backend, blas.ctx, op, x, regs[step["y"]], step.get("a")
            )
        else:
            raise NttParameterError(f"unknown chain step kind {kind!r}")
        regs[step["dst"]] = value
    return regs[OUT_REGISTER]
