"""Fused multi-op chains executed against resident register planes.

A *chain* is a small, serializable program — a list of step dicts over
named registers — composing the fast engine's primitives (NTT stages,
psi twists, pointwise products, BLAS ops) without returning to the
caller between steps. Every transform and convolution the fast engine
computes runs through :func:`run_chain`, whoever the caller is:

* in process, :class:`repro.fast.ntt.FastNtt` and
  :class:`repro.fast.ntt.FastNegacyclic` pack their operands once and
  run a canonical chain (:func:`transform_steps`,
  :data:`NEGACYCLIC_FORWARD_STEPS`, :data:`CYCLIC_MUL_STEPS`, ...) for
  every transform and product;
* in the pool, ``op="chain"`` is the only task :mod:`repro.par.worker`
  runs: every parallel op, BLAS included, ships as a chain and runs
  here as **one** task per shard.

The runner keeps intermediate values **resident on the r52
substrate**, the only one transforms run on: registers stay in 52-bit
limb-plane form across every step — one ``from_dw`` repack per input,
one ``to_dw`` per output, rather than per primitive.
Every step's mathematical output is a fully reduced canonical residue,
so chains are bit-exact with the faithful engine by construction. Each
ntt, twist and pointwise step still counts as one fast-engine kernel
call (``engine.fast.calls.<op>``) and opens its own ``engine.fast.run``
span, so the kernels inside a fused product stay visible to profiles.

Step shapes (all plain dicts, pickle/JSON-safe)::

    {"kind": "ntt", "src": r, "dst": r, "direction": "forward"|"inverse",
     "natural": bool}
    {"kind": "twist", "src": r, "dst": r, "which": "twist"|"untwist"}
    {"kind": "pointwise", "a": r, "b": r, "dst": r}
    {"kind": "blas", "x": r, "y": r, "dst": r,
     "blas_op": "vector_add"|"vector_sub"|"vector_mul"|"axpy", "a": int}

Registers are created by writing them; inputs are pre-bound. The chain
must leave its result in the register named ``"out"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import NttParameterError
from repro.obs.hooks import count, engine_run_span

if TYPE_CHECKING:  # annotations only: repro.ntt imports the step tuples
    from repro.fast.blas import FastBlasPlan
    from repro.fast.ntt import FastNegacyclic, FastNtt

#: Valid ``blas_op`` values for a ``blas`` step.
BLAS_OPS = ("vector_add", "vector_sub", "vector_mul", "axpy")

#: Valid ``kind`` values for a chain step.
STEP_KINDS = ("ntt", "twist", "pointwise", "blas")

#: Output register every chain must produce.
OUT_REGISTER = "out"


def transform_steps(direction: str, natural: bool) -> tuple:
    """The one-step chain ``out = NTT(x)`` (``direction`` forward/inverse).

    :meth:`repro.fast.ntt.FastNtt.forward` / ``inverse`` and their pool
    twins run it; ``natural`` selects natural-order output (forward) or
    input (inverse), exactly as their ``natural_order`` flag does.
    """
    return (
        {"kind": "ntt", "direction": direction, "natural": bool(natural),
         "src": "x", "dst": OUT_REGISTER},
    )


#: Twisted forward transform (raw bit-reversed order) — the chain
#: :meth:`repro.fast.ntt.FastNegacyclic.forward` runs.
NEGACYCLIC_FORWARD_STEPS = (
    {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "xt", "dst": OUT_REGISTER},
)

#: Inverse of :data:`NEGACYCLIC_FORWARD_STEPS` (``1/n`` and untwist
#: included) — the chain :meth:`repro.fast.ntt.FastNegacyclic.inverse` runs.
NEGACYCLIC_INVERSE_STEPS = (
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "x", "dst": "cy"},
    {"kind": "twist", "which": "untwist", "src": "cy", "dst": OUT_REGISTER},
)

#: Negacyclic product ``out = x * y mod (x^n + 1, q)`` — the chain
#: :meth:`repro.fast.ntt.FastNegacyclic.multiply` runs.
NEGACYCLIC_MUL_STEPS = (
    {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "xt", "dst": "fa"},
    {"kind": "twist", "which": "twist", "src": "y", "dst": "yt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "yt", "dst": "ga"},
    {"kind": "pointwise", "a": "fa", "b": "ga", "dst": "pr"},
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "pr", "dst": "cy"},
    {"kind": "twist", "which": "untwist", "src": "cy", "dst": OUT_REGISTER},
)

#: Cyclic product ``out = x * y mod (x^n - 1, q)`` — the chain
#: :meth:`repro.fast.ntt.FastNtt.cyclic_multiply` runs.
CYCLIC_MUL_STEPS = (
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "x", "dst": "fa"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "y", "dst": "ga"},
    {"kind": "pointwise", "a": "fa", "b": "ga", "dst": "pr"},
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "pr", "dst": OUT_REGISTER},
)

#: Fused multiply-accumulate ``out = x * y + z mod (x^n + 1, q)`` — a
#: keyswitch-shaped three-input chain (product plus running sum) that
#: previously cost two dispatched batches.
NEGACYCLIC_MUL_ADD_STEPS = tuple(
    [dict(step, dst="prod") if step.get("dst") == OUT_REGISTER else step
     for step in NEGACYCLIC_MUL_STEPS]
    + [{"kind": "blas", "blas_op": "vector_add",
        "x": "prod", "y": "z", "dst": OUT_REGISTER}]
)


def chain_input_names(steps: Sequence[dict]) -> List[str]:
    """Registers a chain reads before writing (its required inputs)."""
    defined: set = set()
    inputs: List[str] = []
    for step in steps:
        reads = _step_reads(step)
        for name in reads:
            if name not in defined and name not in inputs:
                inputs.append(name)
        defined.add(step.get("dst"))
    return inputs


def _step_reads(step: dict) -> List[str]:
    kind = step.get("kind")
    if kind in ("ntt", "twist"):
        return [step.get("src")]
    if kind == "pointwise":
        return [step.get("a"), step.get("b")]
    if kind == "blas":
        return [step.get("x"), step.get("y")]
    return []


def validate_steps(steps: Sequence[dict], inputs: Sequence[str]) -> None:
    """Reject a malformed chain before any shm staging or dispatch.

    Checks structural validity: known step kinds, every read register
    defined (as an input or by an earlier step), BLAS ops from the
    supported set with ``axpy`` carrying its scalar, and the final
    result landing in ``"out"``. Raises :class:`NttParameterError`.
    """
    if not steps:
        raise NttParameterError("a fused chain needs at least one step")
    defined = set(inputs)
    for index, step in enumerate(steps):
        kind = step.get("kind")
        if kind not in STEP_KINDS:
            raise NttParameterError(
                f"chain step {index}: unknown kind {kind!r} "
                f"(expected one of {STEP_KINDS})"
            )
        if kind == "ntt" and step.get("direction") not in ("forward", "inverse"):
            raise NttParameterError(
                f"chain step {index}: ntt direction must be "
                f"'forward' or 'inverse', got {step.get('direction')!r}"
            )
        if kind == "twist" and step.get("which") not in ("twist", "untwist"):
            raise NttParameterError(
                f"chain step {index}: twist 'which' must be "
                f"'twist' or 'untwist', got {step.get('which')!r}"
            )
        if kind == "blas":
            if step.get("blas_op") not in BLAS_OPS:
                raise NttParameterError(
                    f"chain step {index}: unknown blas_op "
                    f"{step.get('blas_op')!r} (expected one of {BLAS_OPS})"
                )
            if step.get("blas_op") == "axpy" and "a" not in step:
                raise NttParameterError(
                    f"chain step {index}: axpy needs its scalar 'a'"
                )
        for name in _step_reads(step):
            if not isinstance(name, str) or not name:
                raise NttParameterError(
                    f"chain step {index}: missing source register"
                )
            if name not in defined:
                raise NttParameterError(
                    f"chain step {index}: register {name!r} read before "
                    f"it was written (inputs: {sorted(inputs)})"
                )
        dst = step.get("dst")
        if not isinstance(dst, str) or not dst:
            raise NttParameterError(
                f"chain step {index}: missing destination register"
            )
        defined.add(dst)
    if OUT_REGISTER not in defined:
        raise NttParameterError(
            f"chain never writes the {OUT_REGISTER!r} register"
        )


def run_chain(
    steps: Sequence[dict],
    inputs: Dict[str, np.ndarray],
    ntt: Optional[FastNtt],
    neg: Optional[FastNegacyclic] = None,
    blas: Optional[FastBlasPlan] = None,
) -> np.ndarray:
    """Execute a validated chain; returns the ``"out"`` register (dw form).

    ``inputs`` maps register names to ``(..., 2)`` limb arrays (already
    coerced and range-checked by the caller). ``blas`` steps run on the
    ``blas`` plan; a chain of them alone needs no transform plan
    (``ntt=None``) and runs on whatever element axis its inputs have. Every
    NTT/twist/pointwise step runs on the plan's r52 substrate and keeps
    its result in 52-bit limb-plane form; the double-word repack happens
    once per input register and once for the result. Each step produces
    fully reduced canonical residues, which is what makes the fused
    result bit-identical to the faithful engine.
    """
    r = ntt.mod.r52 if ntt is not None else None
    # Tagged register file: ("dw", (..., 2) array) or ("r52", planes).
    regs: Dict[str, tuple] = {
        name: ("dw", arr) for name, arr in inputs.items()
    }

    def as_r52(value: tuple):
        tag, val = value
        return val if tag == "r52" else r.from_dw(val)

    def as_dw(value: tuple) -> np.ndarray:
        tag, val = value
        return val if tag == "dw" else r.to_dw(val)

    def kernel(op: str, value: tuple):
        """Count one fused kernel call and open its engine span."""
        tag, val = value
        elements = val.size // 2 if tag == "dw" else val[0].size
        count("engine.fast.r52.calls.<op>", op)
        count("engine.fast.r52.elements.<op>", op, amount=elements)
        return engine_run_span("fast", op, elements, mode="r52")

    for step in steps:
        kind = step["kind"]
        if kind == "ntt":
            inverse = step["direction"] == "inverse"
            natural = bool(step.get("natural", False))
            bitrev = ntt._bitrev
            src = regs[step["src"]]
            with kernel("ntt.inverse" if inverse else "ntt.forward", src):
                planes = as_r52(src)
                if inverse:
                    if not natural:
                        planes = [p[..., bitrev] for p in planes]
                    planes = ntt._r52.run_stages(planes, True)
                    planes = [p[..., bitrev] for p in planes]
                    planes = r.mulmod_shoup(planes, ntt._n_inv_shoup)
                else:
                    planes = ntt._r52.run_stages(planes, False)
                    if natural:
                        planes = [p[..., bitrev] for p in planes]
                regs[step["dst"]] = ("r52", planes)
        elif kind == "twist":
            if neg is None:
                raise NttParameterError(
                    "chain has a twist step but no negacyclic plan (psi)"
                )
            src = regs[step["src"]]
            with kernel(f"ntt.{step['which']}", src):
                pair = (
                    neg.r52_untwist if step["which"] == "untwist"
                    else neg.r52_twist
                )
                regs[step["dst"]] = ("r52", r.mulmod_shoup(as_r52(src), pair))
        elif kind == "pointwise":
            a, b = regs[step["a"]], regs[step["b"]]
            with kernel("ntt.pointwise", a):
                regs[step["dst"]] = ("r52", r.mulmod(as_r52(a), as_r52(b)))
        else:  # blas (validated): the plan counts its own call
            xa = as_dw(regs[step["x"]])
            ya = as_dw(regs[step["y"]])
            op = step["blas_op"]
            if op == "axpy":
                result = blas.axpy(int(step["a"]), xa, ya)
            else:
                result = getattr(blas, op)(xa, ya)
            regs[step["dst"]] = ("dw", result)
    return as_dw(regs[OUT_REGISTER])
