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

The runner keeps intermediate values **resident** on the plan's
kernel, which the modulus width picks (``FastNtt.mode``):

* ``"gemm"`` (16–62 bits, :mod:`repro.fast.gemm`): registers hold
  ``uint64`` residues; a forward transform's spectrum stays in the
  kernel's ``(n1, batch, n2)`` layout and is gathered into natural or
  bit-reversed order only when the chain exposes it (its output, or a
  step other than a pointwise product or inverse transform reads it).
  A ``twist`` read only by forward transforms, and an inverse
  transform read only by ``untwist`` steps, fold into the transform's
  tables, so each such pair runs as one transform. Two forward
  transforms with the same tables whose operands are both ready (the
  ``x`` and ``y`` transforms of a product) run as one ``(2B, n)`` pass,
  split along the batch axis afterwards;
* ``"r52"`` (every other width): registers stay in 52-bit limb-plane
  form across every step — one ``from_dw`` repack per input, one
  ``to_dw`` per output, rather than per primitive.

Every step's mathematical output is a fully reduced canonical residue,
so chains are bit-exact with the faithful engine by construction. Each
ntt, twist and pointwise step still counts as one fast-engine kernel
call (``engine.fast.calls.<op>``) and opens its own ``engine.fast.run``
span (``mode`` attribute ``"gemm"`` or ``"r52"``), so the kernels inside
a fused product stay visible to profiles; a folded twist's work shows
in its transform's span.

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

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import NttParameterError
from repro.fast.limbs import limbs_from_words
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
    words: bool = False,
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
    result bit-identical to the faithful engine. Plans on the GEMM
    kernel run :func:`_run_gemm` instead.

    With ``words=True`` the inputs and the result are ``(..., n)``
    ``uint64`` residues of a modulus below ``2^64`` (the packed RNS
    ring's layout): the GEMM kernel reads and returns them as they are,
    the r52 runner wraps them into double words and back.
    """
    if ntt is not None and ntt._gemm is not None:
        return _run_gemm(steps, inputs, ntt, neg, blas, words)
    if words:
        inputs = {name: limbs_from_words(arr) for name, arr in inputs.items()}
        return run_chain(steps, inputs, ntt, neg, blas)[..., 0]
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
            result = _run_blas(step, blas, as_dw(regs[step["x"]]), as_dw(regs[step["y"]]))
            regs[step["dst"]] = ("dw", result)
    return as_dw(regs[OUT_REGISTER])


def _run_blas(step: dict, blas: FastBlasPlan, xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    op = step["blas_op"]
    if op == "axpy":
        return blas.axpy(int(step["a"]), xa, ya)
    return getattr(blas, op)(xa, ya)


class _GemmReg:
    """One register of the GEMM runner.

    ``pub`` is the public value, ``(..., n)`` ``uint64`` residues in the
    order the chain defines; ``spec`` a forward transform's resident
    ``(n1, batch, n2)`` spectrum, whose public order is natural or
    bit-reversed (``natural``); ``pending`` the operand of a folded step
    that its only readers finish: a twist's input (read only by forward
    transforms) or an inverse transform's spectrum (read only by
    untwists).
    """

    __slots__ = ("lead", "pub", "dw", "spec", "natural", "pending")

    def __init__(self, lead, pub=None, dw=None, spec=None, natural=False, pending=None):
        self.lead = lead
        self.pub, self.dw = pub, dw
        self.spec, self.natural, self.pending = spec, natural, pending


def _readers(steps: Sequence[dict]):
    """Per step, the later steps reading what it writes; and the output's writer."""
    writer: Dict[str, int] = {}
    readers: List[List[dict]] = [[] for _ in steps]
    for index, step in enumerate(steps):
        for name in _step_reads(step):
            if name in writer:
                readers[writer[name]].append(step)
        writer[step["dst"]] = index
    return readers, writer.get(OUT_REGISTER)


def _writer(steps: Sequence[dict], name: str, before: int) -> int:
    """Index of the last step before ``before`` writing ``name`` (-1: an input)."""
    for index in range(before - 1, -1, -1):
        if steps[index]["dst"] == name:
            return index
    return -1


def _forward_pairs(steps: Sequence[dict], folded: set) -> Dict[int, tuple]:
    """Forward transforms the GEMM runner computes in one pass.

    Maps a forward step ``i`` to ``(j, register)``: ``j`` is a
    later forward step with the same tables (both read a folded twist,
    or neither does) whose operand is already in ``register`` when ``i``
    runs — ``j``'s own source, or the source of the folded twist feeding
    ``j`` that has not run yet. Each step pairs at most once.
    """
    def operand(j: int, at: int):
        src = steps[j]["src"]
        writer = _writer(steps, src, j)
        if writer < at:
            return src, writer in folded
        if writer in folded:
            origin = steps[writer]["src"]
            if _writer(steps, origin, writer) < at:
                return origin, True
        return None, False

    forwards = [
        index for index, step in enumerate(steps)
        if step["kind"] == "ntt" and step["direction"] == "forward"
    ]
    pairs: Dict[int, tuple] = {}
    taken: set = set()
    for i in forwards:
        if i in taken:
            continue
        _, twisted = operand(i, i)
        for j in forwards:
            if j <= i or j in taken:
                continue
            register, partner_twisted = operand(j, i)
            if register is not None and partner_twisted == twisted:
                pairs[i] = (j, register)
                taken.update((i, j))
                break
    return pairs


def _run_gemm(steps, inputs, ntt: FastNtt, neg, blas, words: bool = False) -> np.ndarray:
    """:func:`run_chain` on the GEMM kernel (see the module docstring)."""
    g = ntt._gemm
    n = ntt.n
    q = ntt.q
    bitrev = ntt._bitrev
    tables = neg.gemm_tables if neg is not None else None
    # Folding needs the transform's omega to be psi^2 (always so for
    # plans a FastNegacyclic builds).
    fold = tables is not None and pow(neg.psi, 2, q) == ntt.table.root
    readers, final = _readers(steps)

    def only(index: int, kind: str, key: str, value: str) -> bool:
        return index != final and bool(readers[index]) and all(
            r["kind"] == kind and r.get(key) == value for r in readers[index]
        )

    folded = {
        index for index, step in enumerate(steps)
        if fold and step["kind"] == "twist" and step["which"] == "twist"
        and only(index, "ntt", "direction", "forward")
    }
    pairs = _forward_pairs(steps, folded)
    # Spectra computed by an earlier step's paired pass, by step index.
    claimed: Dict[int, _GemmReg] = {}
    if words:
        regs = {name: _GemmReg(arr.shape[:-1], pub=arr) for name, arr in inputs.items()}
    else:
        regs = {
            name: _GemmReg(arr.shape[:-2], pub=arr[..., 0], dw=arr)
            for name, arr in inputs.items()
        }

    def public(reg: _GemmReg) -> np.ndarray:
        if reg.pub is None:  # a spectrum: gather it into its public order
            order = None if reg.natural else bitrev
            reg.pub = g.expose(reg.spec, order).reshape(reg.lead + (n,))
        return reg.pub

    def exposed(index: int) -> bool:
        return index == final or any(
            r["kind"] not in ("pointwise", "ntt") for r in readers[index]
        )

    def operand(reg: _GemmReg) -> np.ndarray:
        """A forward transform's ``(B, n)`` input: a folded twist's operand or the value."""
        return (reg.pending if reg.pending is not None else public(reg)).reshape(-1, n)

    def kernel(op: str, reg: _GemmReg):
        elements = n * math.prod(reg.lead)
        count("engine.fast.gemm.calls.<op>", op)
        count("engine.fast.gemm.elements.<op>", op, amount=elements)
        return engine_run_span("fast", op, elements, mode="gemm")

    for index, step in enumerate(steps):
        kind = step["kind"]
        if kind == "ntt":
            natural = bool(step.get("natural", False))
            src = regs[step["src"]]
            with kernel(f"ntt.{step['direction']}", src):
                if step["direction"] == "forward":
                    reg = claimed.pop(index, None)
                    if reg is None:
                        x = operand(src)
                        # A folded twist leaves its operand pending.
                        table = tables if src.pending is not None else g.cyclic
                        pair = pairs.get(index)
                        if pair is None:
                            spec = g.forward(x, table)
                        else:  # one (2B, n) pass, split along the batch axis
                            j, register = pair
                            partner = regs[register]
                            spec = g.forward(np.concatenate((x, operand(partner))), table)
                            rows = x.shape[0]
                            claimed[j] = _GemmReg(
                                partner.lead, spec=spec[:, rows:],
                                natural=bool(steps[j].get("natural", False)),
                            )
                            spec = spec[:, :rows]
                        reg = _GemmReg(src.lead, spec=spec, natural=natural)
                    if exposed(index):
                        public(reg)
                else:
                    if src.spec is not None and src.natural == natural:
                        spec = src.spec
                    else:
                        order = None if natural else bitrev
                        spec = g.absorb(public(src).reshape(-1, n), order)
                    if fold and only(index, "twist", "which", "untwist"):
                        reg = _GemmReg(src.lead, pending=spec)
                    else:
                        pub = g.inverse(spec, g.cyclic).reshape(src.lead + (n,))
                        reg = _GemmReg(src.lead, pub=pub)
        elif kind == "twist":
            if neg is None:
                raise NttParameterError(
                    "chain has a twist step but no negacyclic plan (psi)"
                )
            which = step["which"]
            src = regs[step["src"]]
            with kernel(f"ntt.{which}", src):
                if which == "untwist" and src.pending is not None:
                    pub = g.inverse(src.pending, tables)
                    reg = _GemmReg(src.lead, pub=pub.reshape(src.lead + (n,)))
                elif index in folded:
                    reg = _GemmReg(src.lead, pending=public(src))
                else:
                    vector = tables.twist_vector(which == "untwist")
                    reg = _GemmReg(src.lead, pub=g.mod.mulmod(public(src), vector))
        elif kind == "pointwise":
            a, b = regs[step["a"]], regs[step["b"]]
            with kernel("ntt.pointwise", a):
                if (a.spec is not None and b.spec is not None
                        and a.natural == b.natural and a.lead == b.lead):
                    spec = g.mod.mulmod(a.spec, b.spec)
                    reg = _GemmReg(a.lead, spec=spec, natural=a.natural)
                    if exposed(index):
                        public(reg)
                else:
                    pub = g.mod.mulmod(public(a), public(b))
                    reg = _GemmReg(pub.shape[:-1], pub=pub)
        else:  # blas (validated): the plan counts its own call
            result = _run_blas(step, blas, _gemm_dw(regs[step["x"]], public),
                               _gemm_dw(regs[step["y"]], public))
            reg = _GemmReg(result.shape[:-2], pub=result[..., 0], dw=result)
        regs[step["dst"]] = reg
    out = regs[OUT_REGISTER]
    return public(out) if words else _gemm_dw(out, public)


def _gemm_dw(reg: _GemmReg, public) -> np.ndarray:
    """A GEMM register's ``(..., n, 2)`` double-word form."""
    if reg.dw is None:
        reg.dw = limbs_from_words(public(reg))
    return reg.dw
