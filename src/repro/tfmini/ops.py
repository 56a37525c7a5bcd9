"""Operator registry and functional API for tfmini.

Each operator provides:

* ``forward(inputs, attrs) -> np.ndarray`` — the kernel;
* ``vjp(node, grad) -> list[Node | None]`` — builds *graph nodes* for the
  vector-Jacobian product w.r.t. each input (``None`` = no gradient), which is
  what makes gradients of gradients possible;
* ``flops(node, inputs, output) -> int`` — the FLOP estimate used by the
  instrumented executor and validated against :mod:`repro.perfmodel.flops`.

The operator set is intentionally the same vocabulary the paper profiles:
MATMUL, SUM (broadcast add), CONCAT, TANH (+TANHGrad), SLICE, plus the fused
GEMM and fused-TANH kernels that the Sec 5.3 rewrite passes introduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.tfmini.graph import Node, constant

# Estimated FLOPs per element for a transcendental tanh evaluation; NVPROF
# counts real instruction mixes, we use a fixed conventional weight.
TANH_FLOPS_PER_ELEM = 10


@dataclass
class OpDef:
    forward: Callable
    vjp: Optional[Callable] = None
    flops: Optional[Callable] = None
    # ``forward_out(inputs, attrs, out) -> None`` — destination-passing
    # kernel variant used by compiled execution plans (repro.tfmini.plan).
    # Contract: fully overwrite ``out`` (which never aliases an input) with
    # a result bitwise identical to ``forward(inputs, attrs)``.  Ops without
    # one still work under plans via the allocate-and-copy-into-slot
    # fallback.
    forward_out: Optional[Callable] = None
    # ``infer(in_shapes, in_dtypes, attrs, ctx) -> (shape, dtype)`` —
    # symbolic shape/dtype rule used by the static plan verifier
    # (repro.analysis.plancheck).  Shapes are tuples whose entries are ints
    # or symbolic dims supporting +/-/*; anything harder (unification,
    # broadcasting, exact division, fresh symbols) goes through ``ctx`` so
    # rules need no imports.  Multi-output kernels return a list of
    # (shape, dtype) pairs.  Ops without a rule still verify — their
    # outputs become fresh symbols and the report carries a note.
    infer: Optional[Callable] = None


_REGISTRY: dict[str, OpDef] = {}


def register_op(name: str, forward, vjp=None, flops=None, forward_out=None, infer=None) -> None:
    """Register an operator.  Used by DP custom ops as well as the built-ins."""
    _REGISTRY[name] = OpDef(forward, vjp, flops, forward_out, infer)


def register_out_kernel(name: str, forward_out) -> None:
    """Attach (or replace) the destination-passing kernel of a registered op."""
    get_op(name).forward_out = forward_out


def register_infer(name: str, infer) -> None:
    """Attach (or replace) the symbolic shape/dtype rule of a registered op."""
    get_op(name).infer = infer


def get_op(name: str) -> OpDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown op '{name}'; registered: {sorted(_REGISTRY)}") from None


def op_flops(node: Node, inputs: Sequence[np.ndarray], output) -> int:
    fn = get_op(node.op).flops
    if fn is None:
        return 0
    return int(fn(node, inputs, output))


# Ops that legitimately never get an ``out=`` kernel.  Alias/view ops run
# zero-copy under plans (an out= kernel would *add* a copy); structural
# pseudo-ops never appear as tape records (plans resolve them to slots at
# compile time).  Everything else without ``forward_out`` is a coverage gap
# paying the allocate-and-copy fallback — ``out_kernel_coverage()`` makes
# the gap visible in ``repro info``.
OUT_KERNEL_EXEMPT = {
    # alias/view ops (see repro.tfmini.plan.ALIAS_OPS)
    "reshape", "reshape_like", "item", "reduce_to_shape",
    # structural: never executed as tape records
    "constant", "placeholder", "variable",
}


def out_kernel_coverage() -> dict:
    """Destination-passing kernel coverage of the op registry.

    Returns ``{"covered": n, "eligible": m, "missing": [names...]}`` where
    *eligible* excludes :data:`OUT_KERNEL_EXEMPT` (view ops and structural
    pseudo-ops, which by design run without an ``out=`` kernel).
    """
    covered = []
    missing = []
    for name in sorted(_REGISTRY):
        if name in OUT_KERNEL_EXEMPT:
            continue
        if _REGISTRY[name].forward_out is not None:
            covered.append(name)
        else:
            missing.append(name)
    return {
        "covered": len(covered),
        "eligible": len(covered) + len(missing),
        "missing": missing,
    }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _unbroadcast_shape(shape_in: tuple, shape_out: tuple):
    """Axes that were broadcast when going from shape_in to shape_out."""
    ndiff = len(shape_out) - len(shape_in)
    axes = list(range(ndiff))
    for i, s in enumerate(shape_in):
        if s == 1 and shape_out[ndiff + i] != 1:
            axes.append(ndiff + i)
    return tuple(axes), ndiff


def reduce_to_shape(node: Node, like: Node) -> Node:
    """Sum ``node`` down to the (runtime) shape of ``like``.

    This is the standard unbroadcasting step in the VJP of broadcasting ops.
    The target shape is resolved at execution time from ``like``'s value.
    """
    return Node("reduce_to_shape", (node, like), shape=like.shape)


def _fwd_reduce_to_shape(inputs, attrs):
    x, like = inputs
    target = like.shape
    if x.shape == target:
        return x
    axes, ndiff = _unbroadcast_shape(target, x.shape)
    out = x.sum(axis=axes, keepdims=True) if axes else x
    return np.asarray(out).reshape(target)


register_op(
    "reduce_to_shape",
    _fwd_reduce_to_shape,
    vjp=lambda node, g: [Node("broadcast_like", (g, node.inputs[0])), None],
    flops=lambda node, ins, out: ins[0].size,
)

register_op(
    "broadcast_like",
    lambda inputs, attrs: np.broadcast_to(inputs[0], inputs[1].shape).copy(),
    vjp=lambda node, g: [reduce_to_shape(g, node.inputs[0]), None],
    flops=lambda node, ins, out: 0,
    forward_out=lambda inputs, attrs, out: np.copyto(out, inputs[0]),
)


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------

register_op("constant", lambda inputs, attrs: attrs["value"])
register_op("placeholder", lambda inputs, attrs: _missing_feed(attrs))
register_op("variable", lambda inputs, attrs: _missing_feed(attrs))


def _missing_feed(attrs):  # pragma: no cover - executor intercepts leaves
    raise RuntimeError("leaf nodes must be resolved by the executor")


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    return Node("add", (a, b))


def sub(a: Node, b: Node) -> Node:
    return Node("sub", (a, b))


def mul(a: Node, b: Node) -> Node:
    return Node("mul", (a, b))


def neg(a: Node) -> Node:
    return Node("neg", (a,))


def square(a: Node) -> Node:
    return Node("square", (a,))


def scale(a: Node, s: float) -> Node:
    """Multiply by a python scalar (kept as an attr, not a graph input)."""
    return Node("scale", (a,), {"s": float(s)})


register_op(
    "add",
    lambda inputs, attrs: inputs[0] + inputs[1],
    vjp=lambda node, g: [
        reduce_to_shape(g, node.inputs[0]),
        reduce_to_shape(g, node.inputs[1]),
    ],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.add(inputs[0], inputs[1], out=out),
)

register_op(
    "sub",
    lambda inputs, attrs: inputs[0] - inputs[1],
    vjp=lambda node, g: [
        reduce_to_shape(g, node.inputs[0]),
        reduce_to_shape(neg(g), node.inputs[1]),
    ],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.subtract(
        inputs[0], inputs[1], out=out
    ),
)

register_op(
    "mul",
    lambda inputs, attrs: inputs[0] * inputs[1],
    vjp=lambda node, g: [
        reduce_to_shape(mul(g, node.inputs[1]), node.inputs[0]),
        reduce_to_shape(mul(g, node.inputs[0]), node.inputs[1]),
    ],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.multiply(
        inputs[0], inputs[1], out=out
    ),
)

register_op(
    "neg",
    lambda inputs, attrs: -inputs[0],
    vjp=lambda node, g: [neg(g)],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.negative(inputs[0], out=out),
)

register_op(
    "square",
    lambda inputs, attrs: inputs[0] * inputs[0],
    vjp=lambda node, g: [mul(g, scale(node.inputs[0], 2.0))],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.multiply(
        inputs[0], inputs[0], out=out
    ),
)

register_op(
    "scale",
    lambda inputs, attrs: inputs[0] * attrs["s"],
    vjp=lambda node, g: [scale(g, node.attrs["s"])],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.multiply(
        inputs[0], attrs["s"], out=out
    ),
)


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    """2-D matrix product — the TF MATMUL operator."""
    return Node("matmul", (a, b))


def gemm(a: Node, b: Node, c: Node, beta: float = 1.0) -> Node:
    """Fused ``a @ b + beta * c`` with broadcasting on ``c`` — one CUBLAS call.

    This is the operator the Sec 5.3.1/5.3.2 rewrites produce.
    """
    return Node("gemm", (a, b, c), {"beta": float(beta)})


def bmm(a: Node, b: Node) -> Node:
    """Batched matmul over leading dimension: (B,m,k) @ (B,k,n) -> (B,m,n)."""
    return Node("bmm", (a, b))


def _fwd_matmul_2d(a, b):
    # BLAS picks its matrix-vector kernel by row count, so an N==1 product
    # can give bitwise-different rows depending on how many other rows are
    # stacked with them — which would break the batched engine's guarantee
    # that a frame's result is independent of its batch-mates.  Reduce
    # row-wise instead: per-row pairwise sums over K never see the row count.
    if (
        a.ndim == 2
        and b.ndim == 2
        and b.shape[1] == 1
        and a.shape[1] == b.shape[0]  # let `a @ b` raise on K mismatch
    ):
        return (a * b[:, 0]).sum(axis=1, keepdims=True)
    return a @ b


def _out_matmul_2d(a, b, out):
    """Destination-passing twin of :func:`_fwd_matmul_2d`.

    The N==1 matvec branch keeps the exact row-count-independent reduction
    (its temporary survives; only the result lands in ``out``); the general
    branch hands ``out`` straight to the same BLAS gufunc ``a @ b`` calls.
    """
    if (
        a.ndim == 2
        and b.ndim == 2
        and b.shape[1] == 1
        and a.shape[1] == b.shape[0]
    ):
        np.copyto(out, (a * b[:, 0]).sum(axis=1, keepdims=True))
    else:
        np.matmul(a, b, out=out)


register_op(
    "matmul",
    lambda inputs, attrs: _fwd_matmul_2d(inputs[0], inputs[1]),
    vjp=lambda node, g: [
        matmul(g, transpose(node.inputs[1])),
        matmul(transpose(node.inputs[0]), g),
    ],
    flops=lambda node, ins, out: 2 * ins[0].shape[0] * ins[0].shape[1] * ins[1].shape[1],
    forward_out=lambda inputs, attrs, out: _out_matmul_2d(
        inputs[0], inputs[1], out
    ),
)


def _fwd_gemm(inputs, attrs):
    a, b, c = inputs
    beta = attrs.get("beta", 1.0)
    out = _fwd_matmul_2d(a, b)
    if beta == 1.0:
        out += c
    elif beta != 0.0:
        out += beta * c
    return out


def _out_gemm(inputs, attrs, out):
    a, b, c = inputs
    beta = attrs.get("beta", 1.0)
    _out_matmul_2d(a, b, out)
    if beta == 1.0:
        out += c
    elif beta != 0.0:
        out += beta * c


register_op(
    "gemm",
    _fwd_gemm,
    vjp=lambda node, g: [
        matmul(g, transpose(node.inputs[1])),
        matmul(transpose(node.inputs[0]), g),
        reduce_to_shape(scale(g, node.attrs.get("beta", 1.0)), node.inputs[2]),
    ],
    flops=lambda node, ins, out: 2 * ins[0].shape[0] * ins[0].shape[1] * ins[1].shape[1]
    + out.size,
    forward_out=_out_gemm,
)

register_op(
    "bmm",
    lambda inputs, attrs: np.matmul(inputs[0], inputs[1]),
    vjp=lambda node, g: [
        bmm(g, transpose(node.inputs[1], (0, 2, 1))),
        bmm(transpose(node.inputs[0], (0, 2, 1)), g),
    ],
    flops=lambda node, ins, out: 2
    * ins[0].shape[0]
    * ins[0].shape[1]
    * ins[0].shape[2]
    * ins[1].shape[2],
    forward_out=lambda inputs, attrs, out: np.matmul(
        inputs[0], inputs[1], out=out
    ),
)


# ---------------------------------------------------------------------------
# shape ops (the paper's SLICE/CONCAT category)
# ---------------------------------------------------------------------------


def concat(a: Node, b: Node, axis: int = -1) -> Node:
    return Node("concat", (a, b), {"axis": int(axis)})


def slice_cols(a: Node, start: int, stop: int) -> Node:
    """Slice along the last axis: ``a[..., start:stop]`` — the TF SLICE op."""
    return Node("slice", (a,), {"start": int(start), "stop": int(stop)})


def slice_axis(a: Node, axis: int, start: int, stop: int) -> Node:
    """Slice ``a[..., start:stop, ...]`` along an arbitrary axis."""
    return Node(
        "slice_axis", (a,), {"axis": int(axis), "start": int(start), "stop": int(stop)}
    )


def _slicer(ndim: int, axis: int, start: int, stop: int):
    sl = [slice(None)] * ndim
    sl[axis] = slice(start, stop)
    return tuple(sl)


def _fwd_slice_axis(inputs, attrs):
    x = inputs[0]
    return np.ascontiguousarray(
        x[_slicer(x.ndim, attrs["axis"], attrs["start"], attrs["stop"])]
    )


def _vjp_slice_axis(node, g):
    return [Node("slice_axis_grad", (g, node.inputs[0]), dict(node.attrs))]


def _fwd_slice_axis_grad(inputs, attrs):
    g, x = inputs
    out = np.zeros_like(x)
    out[_slicer(x.ndim, attrs["axis"], attrs["start"], attrs["stop"])] = g
    return out


def _out_slice_axis(inputs, attrs, out):
    x = inputs[0]
    np.copyto(out, x[_slicer(x.ndim, attrs["axis"], attrs["start"], attrs["stop"])])


def _out_slice_axis_grad(inputs, attrs, out):
    g, x = inputs
    out.fill(0)
    out[_slicer(x.ndim, attrs["axis"], attrs["start"], attrs["stop"])] = g


register_op(
    "slice_axis",
    _fwd_slice_axis,
    _vjp_slice_axis,
    lambda n, i, o: 0,
    forward_out=_out_slice_axis,
)
register_op(
    "slice_axis_grad",
    _fwd_slice_axis_grad,
    vjp=lambda node, g: [
        Node("slice_axis", (g,), dict(node.attrs)),
        None,
    ],
    flops=lambda n, i, o: 0,
    forward_out=_out_slice_axis_grad,
)


def reshape(a: Node, shape: tuple) -> Node:
    return Node("reshape", (a,), {"shape": tuple(int(s) for s in shape)})


def transpose(a: Node, perm: Optional[tuple] = None) -> Node:
    return Node("transpose", (a,), {"perm": tuple(perm) if perm is not None else None})


def _vjp_concat(node, g):
    a, b = node.inputs
    axis = node.attrs["axis"]
    return [
        Node("split_part", (g, a, b), {"axis": axis, "part": 0}),
        Node("split_part", (g, a, b), {"axis": axis, "part": 1}),
    ]


def _fwd_split_part(inputs, attrs):
    g, a, b = inputs
    axis = attrs["axis"]
    na = a.shape[axis]
    sl = [slice(None)] * g.ndim
    sl[axis] = slice(0, na) if attrs["part"] == 0 else slice(na, None)
    return g[tuple(sl)]


register_op(
    "concat",
    lambda inputs, attrs: np.concatenate(inputs, axis=attrs["axis"]),
    vjp=_vjp_concat,
    flops=lambda node, ins, out: 0,
    forward_out=lambda inputs, attrs, out: np.concatenate(
        inputs, axis=attrs["axis"], out=out
    ),
)

def _vjp_split_part(node, g):
    # d(split)/d(gradient-being-split): pad the cotangent back into place.
    return [Node("split_part_grad", (g, node.inputs[1], node.inputs[2]), dict(node.attrs)), None, None]


def _fwd_split_part_grad(inputs, attrs):
    h, a, b = inputs
    axis = attrs["axis"]
    shape = list(h.shape)
    shape[axis] = a.shape[axis] + b.shape[axis]
    out = np.zeros(shape, dtype=h.dtype)
    na = a.shape[axis]
    sl = [slice(None)] * len(shape)
    sl[axis] = slice(0, na) if attrs["part"] == 0 else slice(na, None)
    out[tuple(sl)] = h
    return out


def _out_split_part_grad(inputs, attrs, out):
    h, a, b = inputs
    axis = attrs["axis"]
    out.fill(0)
    na = a.shape[axis]
    sl = [slice(None)] * out.ndim
    sl[axis] = slice(0, na) if attrs["part"] == 0 else slice(na, None)
    out[tuple(sl)] = h


def _out_split_part(inputs, attrs, out):
    # The forward is a zero-cost view; the out= kernel materializes the
    # same slice straight into the arena slot (what the copy fallback did
    # in two steps: view, then copy) without the interposed view object.
    np.copyto(out, _fwd_split_part(inputs, attrs))


register_op(
    "split_part",
    _fwd_split_part,
    vjp=_vjp_split_part,
    flops=lambda node, ins, out: 0,
    forward_out=_out_split_part,
)
register_op(
    "split_part_grad",
    _fwd_split_part_grad,
    vjp=lambda node, g: [Node("split_part", (g, node.inputs[1], node.inputs[2]), dict(node.attrs)), None, None],
    flops=lambda node, ins, out: 0,
    forward_out=_out_split_part_grad,
)


def _vjp_slice(node, g):
    return [Node("slice_grad", (g, node.inputs[0]), dict(node.attrs))]


def _fwd_slice_grad(inputs, attrs):
    g, x = inputs
    out = np.zeros_like(x)
    out[..., attrs["start"] : attrs["stop"]] = g
    return out


def _out_slice_grad(inputs, attrs, out):
    g, _x = inputs
    out.fill(0)
    out[..., attrs["start"] : attrs["stop"]] = g


register_op(
    "slice",
    lambda inputs, attrs: np.ascontiguousarray(
        inputs[0][..., attrs["start"] : attrs["stop"]]
    ),
    vjp=_vjp_slice,
    flops=lambda node, ins, out: 0,
    forward_out=lambda inputs, attrs, out: np.copyto(
        out, inputs[0][..., attrs["start"] : attrs["stop"]]
    ),
)
register_op(
    "slice_grad",
    _fwd_slice_grad,
    vjp=lambda node, g: [
        Node("slice", (g,), dict(node.attrs)),
        None,
    ],
    flops=lambda node, ins, out: 0,
    forward_out=_out_slice_grad,
)

register_op(
    "reshape",
    lambda inputs, attrs: inputs[0].reshape(attrs["shape"]),
    vjp=lambda node, g: [Node("reshape_like", (g, node.inputs[0]))],
    flops=lambda node, ins, out: 0,
)
register_op(
    "reshape_like",
    lambda inputs, attrs: inputs[0].reshape(inputs[1].shape),
    vjp=lambda node, g: [Node("reshape_like", (g, node.inputs[0])), None],
    flops=lambda node, ins, out: 0,
)


def _fwd_transpose(inputs, attrs):
    return np.ascontiguousarray(np.transpose(inputs[0], attrs["perm"]))


def _vjp_transpose(node, g):
    perm = node.attrs["perm"]
    if perm is None:
        return [transpose(g)]
    inv = tuple(np.argsort(perm))
    return [transpose(g, inv)]


register_op(
    "transpose",
    _fwd_transpose,
    vjp=_vjp_transpose,
    flops=lambda n, i, o: 0,
    forward_out=lambda inputs, attrs, out: np.copyto(
        out, np.transpose(inputs[0], attrs["perm"])
    ),
)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def reduce_sum(a: Node, axis: Optional[int] = None) -> Node:
    return Node("reduce_sum", (a,), {"axis": axis})


def reduce_mean(a: Node, axis: Optional[int] = None) -> Node:
    return Node("reduce_mean", (a,), {"axis": axis})


def _fwd_reduce_sum(inputs, attrs):
    return np.asarray(inputs[0].sum(axis=attrs["axis"]))


def _vjp_reduce_sum(node, g):
    axis = node.attrs["axis"]
    return [Node("bcast_reduce_grad", (g, node.inputs[0]), {"axis": axis, "mean": False})]


def _fwd_reduce_mean(inputs, attrs):
    return np.asarray(inputs[0].mean(axis=attrs["axis"]))


def _vjp_reduce_mean(node, g):
    axis = node.attrs["axis"]
    return [Node("bcast_reduce_grad", (g, node.inputs[0]), {"axis": axis, "mean": True})]


def _fwd_bcast_reduce_grad(inputs, attrs):
    g, x = inputs
    axis = attrs["axis"]
    if axis is None:
        out = np.broadcast_to(g, x.shape)
        denom = x.size
    else:
        out = np.broadcast_to(np.expand_dims(g, axis), x.shape)
        denom = x.shape[axis]
    out = out.copy()
    if attrs["mean"]:
        out /= denom
    return out


def _out_bcast_reduce_grad(inputs, attrs, out):
    g, x = inputs
    axis = attrs["axis"]
    if axis is None:
        np.copyto(out, g)
        denom = x.size
    else:
        np.copyto(out, np.expand_dims(g, axis))
        denom = x.shape[axis]
    if attrs["mean"]:
        out /= denom


def _out_reduce_sum(inputs, attrs, out):
    # np.sum's out= path runs the same pairwise reduction as the
    # allocating form — bitwise identical, required by the plan contract.
    np.sum(inputs[0], axis=attrs["axis"], out=out)


def _out_reduce_mean(inputs, attrs, out):
    np.mean(inputs[0], axis=attrs["axis"], out=out)


register_op("reduce_sum", _fwd_reduce_sum, _vjp_reduce_sum,
            lambda n, i, o: i[0].size, forward_out=_out_reduce_sum)
register_op("reduce_mean", _fwd_reduce_mean, _vjp_reduce_mean,
            lambda n, i, o: i[0].size, forward_out=_out_reduce_mean)
register_op(
    "bcast_reduce_grad",
    _fwd_bcast_reduce_grad,
    vjp=lambda node, g: [
        reduce_sum(g, node.attrs["axis"])
        if not node.attrs["mean"]
        else reduce_mean(g, node.attrs["axis"]),
        None,
    ],
    flops=lambda n, i, o: o.size,
    forward_out=_out_bcast_reduce_grad,
)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def tanh(a: Node) -> Node:
    return Node("tanh", (a,))


def tanh_grad(y: Node, dy: Node) -> Node:
    """TF's TANHGrad: dy * (1 - y**2), with y the *output* of tanh."""
    return Node("tanh_grad", (y, dy))


register_op(
    "tanh",
    lambda inputs, attrs: np.tanh(inputs[0]),
    vjp=lambda node, g: [tanh_grad(node, g)],
    flops=lambda node, ins, out: TANH_FLOPS_PER_ELEM * out.size,
    forward_out=lambda inputs, attrs, out: np.tanh(inputs[0], out=out),
)


def _fwd_tanh_grad(inputs, attrs):
    y, dy = inputs
    return dy * (1.0 - y * y)


def _out_tanh_grad(inputs, attrs, out):
    # Same ufunc sequence as the allocating kernel: y*y, 1-(..), dy*(..).
    y, dy = inputs
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(dy, out, out=out)


def _vjp_tanh_grad(node, g):
    y, dy = node.inputs
    # d/dy [dy*(1-y^2)] = -2*y*dy ; d/ddy [...] = (1-y^2)
    return [
        mul(g, scale(mul(y, dy), -2.0)),
        Node("tanh_grad", (y, g)),
    ]


register_op(
    "tanh_grad",
    _fwd_tanh_grad,
    _vjp_tanh_grad,
    flops=lambda node, ins, out: 3 * out.size,
    forward_out=_out_tanh_grad,
)


def exp(a: Node) -> Node:
    return Node("exp", (a,))


register_op(
    "exp",
    lambda inputs, attrs: np.exp(inputs[0]),
    vjp=lambda node, g: [mul(g, node)],
    flops=lambda node, ins, out: TANH_FLOPS_PER_ELEM * out.size,
    forward_out=lambda inputs, attrs, out: np.exp(inputs[0], out=out),
)


def log(a: Node) -> Node:
    return Node("log", (a,))


register_op(
    "log",
    lambda inputs, attrs: np.log(inputs[0]),
    vjp=lambda node, g: [Node("div", (g, node.inputs[0]))],
    flops=lambda node, ins, out: TANH_FLOPS_PER_ELEM * out.size,
    forward_out=lambda inputs, attrs, out: np.log(inputs[0], out=out),
)


def div(a: Node, b: Node) -> Node:
    return Node("div", (a, b))


def _vjp_div(node, g):
    a, b = node.inputs
    ga = Node("div", (g, b))
    gb = neg(Node("div", (mul(g, node), b)))  # -g * (a/b) / b
    return [reduce_to_shape(ga, a), reduce_to_shape(gb, b)]


register_op(
    "div",
    lambda inputs, attrs: inputs[0] / inputs[1],
    vjp=_vjp_div,
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.divide(
        inputs[0], inputs[1], out=out
    ),
)


def sqrt(a: Node) -> Node:
    return Node("sqrt", (a,))


register_op(
    "sqrt",
    lambda inputs, attrs: np.sqrt(inputs[0]),
    # d sqrt(x) = 1/(2 sqrt(x)) = 0.5 / y
    vjp=lambda node, g: [mul(g, scale(Node("div", (constant(np.float64(1.0)), node)), 0.5))],
    flops=lambda node, ins, out: 4 * out.size,
    forward_out=lambda inputs, attrs, out: np.sqrt(inputs[0], out=out),
)


def sigmoid(a: Node) -> Node:
    return Node("sigmoid", (a,))


def _out_sigmoid(inputs, attrs, out):
    # Same ufunc sequence as the allocating kernel: -x, exp, 1+, 1/.
    np.negative(inputs[0], out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)


register_op(
    "sigmoid",
    lambda inputs, attrs: 1.0 / (1.0 + np.exp(-inputs[0])),
    # d sigma = sigma * (1 - sigma)
    vjp=lambda node, g: [mul(g, mul(node, Node("one_minus", (node,))))],
    flops=lambda node, ins, out: TANH_FLOPS_PER_ELEM * out.size,
    forward_out=_out_sigmoid,
)

register_op(
    "one_minus",
    lambda inputs, attrs: 1.0 - inputs[0],
    vjp=lambda node, g: [neg(g)],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.subtract(1.0, inputs[0], out=out),
)


def relu(a: Node) -> Node:
    return Node("relu", (a,))


register_op(
    "relu",
    lambda inputs, attrs: np.maximum(inputs[0], 0.0),
    vjp=lambda node, g: [mul(g, Node("step_mask", (node.inputs[0],)))],
    flops=lambda node, ins, out: out.size,
    forward_out=lambda inputs, attrs, out: np.maximum(inputs[0], 0.0, out=out),
)

def _out_step_mask(inputs, attrs, out):
    # casting="unsafe" only covers the bool -> float cast; the values are
    # exactly 0.0 / 1.0, bitwise equal to the astype in the allocating form.
    np.greater(inputs[0], 0, out=out, casting="unsafe")


register_op(
    "step_mask",
    lambda inputs, attrs: (inputs[0] > 0).astype(inputs[0].dtype),
    vjp=lambda node, g: [None],
    flops=lambda node, ins, out: out.size,
    forward_out=_out_step_mask,
)


def pow_scalar(a: Node, exponent: float) -> Node:
    """Elementwise a**p for a python-scalar exponent."""
    return Node("pow_scalar", (a,), {"p": float(exponent)})


def _vjp_pow_scalar(node, g):
    p = node.attrs["p"]
    return [mul(g, scale(pow_scalar(node.inputs[0], p - 1.0), p))]


register_op(
    "pow_scalar",
    lambda inputs, attrs: inputs[0] ** attrs["p"],
    vjp=_vjp_pow_scalar,
    flops=lambda node, ins, out: 4 * out.size,
    forward_out=lambda inputs, attrs, out: np.power(
        inputs[0], attrs["p"], out=out
    ),
)


# Fused TANH (Sec 5.3.3): one kernel produces both tanh(x) and 1 - tanh(x)^2,
# trading memory for a second elementwise pass.  The executor caches the
# tuple; `item` nodes select components.


def tanh_fused(a: Node) -> Node:
    both = Node("tanh_fused", (a,))
    return Node("item", (both,), {"index": 0}), Node("item", (both,), {"index": 1})


def _fwd_tanh_fused(inputs, attrs):
    y = np.tanh(inputs[0])
    g = 1.0 - y * y
    return (y, g)


def _out_tanh_fused(inputs, attrs, out):
    # ``out`` is the (y, g) buffer pair; same ufunc sequence as the
    # allocating kernel: tanh, y*y, 1-(..).
    y, g = out
    np.tanh(inputs[0], out=y)
    np.multiply(y, y, out=g)
    np.subtract(1.0, g, out=g)


register_op(
    "tanh_fused",
    _fwd_tanh_fused,
    flops=lambda node, ins, out: (TANH_FLOPS_PER_ELEM + 2) * out[0].size,
    forward_out=_out_tanh_fused,
)
# ``item`` is a pure component selector on a tuple-valued input — compiled
# plans treat it as an aliasing op (its output shares the producer's
# storage), so it gets no destination-passing kernel on purpose.
register_op(
    "item",
    lambda inputs, attrs: inputs[0][attrs["index"]],
    flops=lambda node, ins, out: 0,
)


# ---------------------------------------------------------------------------
# dtype casting (mixed precision, Sec 5.2.3)
# ---------------------------------------------------------------------------


def cast(a: Node, dtype) -> Node:
    return Node(
        "cast", (a,), {"dtype": np.dtype(dtype)}, shape=a.shape, dtype=np.dtype(dtype)
    )


register_op(
    "cast",
    lambda inputs, attrs: inputs[0].astype(attrs["dtype"], copy=False),
    # The cotangent must come back in the *runtime* dtype of the cast's
    # input.  Most nodes carry no static dtype, so resolving it at execution
    # time (cast_like) keeps the mixed-precision backward pass in fp32
    # between the two cast boundaries instead of silently promoting every
    # gradient kernel to fp64 against fp32 weights.
    vjp=lambda node, g: [Node("cast_like", (g, node.inputs[0]))],
    flops=lambda node, ins, out: 0,
    # astype(copy=False) may return the input itself (same dtype); the
    # destination-passing variant always materializes — same bits either way,
    # and it keeps plan buffers free of aliasing.
    forward_out=lambda inputs, attrs, out: np.copyto(
        out, inputs[0], casting="unsafe"
    ),
)

register_op(
    "cast_like",
    lambda inputs, attrs: inputs[0].astype(inputs[1].dtype, copy=False),
    vjp=lambda node, g: [Node("cast_like", (g, node.inputs[0])), None],
    flops=lambda node, ins, out: 0,
    forward_out=lambda inputs, attrs, out: np.copyto(
        out, inputs[0], casting="unsafe"
    ),
)


# ---------------------------------------------------------------------------
# FLOP category mapping for Fig-3 style breakdowns
# ---------------------------------------------------------------------------

# Category assignment mirrors Fig 3's legend: GEMM, TANH, SLICE, CUSTOM, Others.
OP_CATEGORY = {
    "matmul": "GEMM",
    "gemm": "GEMM",
    "bmm": "GEMM",
    "tanh": "TANH",
    "tanh_grad": "TANH",
    "tanh_fused": "TANH",
    "slice": "SLICE",
    "slice_grad": "SLICE",
    "slice_axis": "SLICE",
    "slice_axis_grad": "SLICE",
    "concat": "SLICE",
    "split_part": "SLICE",
    "reshape": "SLICE",
    "reshape_like": "SLICE",
    "transpose": "SLICE",
}


def op_category(op_name: str) -> str:
    """Fig-3 category for an operator name (custom DP ops self-register)."""
    if op_name in OP_CATEGORY:
        return OP_CATEGORY[op_name]
    if op_name.startswith(("env_mat", "prod_force", "prod_virial", "format_nlist")):
        return "CUSTOM"
    return "Others"


# ---------------------------------------------------------------------------
# symbolic shape/dtype inference rules (static plan verification)
# ---------------------------------------------------------------------------
#
# Consumed by repro.analysis.plancheck: each rule receives the input shapes
# (tuples of ints / symbolic dims), input dtypes, the node attrs and an
# InferContext, and returns (out_shape, out_dtype).  Rules only use plain
# dim arithmetic plus ctx helpers, so this module stays import-free of the
# symbolic algebra.


def _promote(*dtypes):
    out = dtypes[0]
    for d in dtypes[1:]:
        out = np.promote_types(out, d)
    return out


def _norm_axis(axis: int, rank: int, ctx):
    ax = axis if axis >= 0 else axis + rank
    if not 0 <= ax < rank:
        ctx.fail(f"axis {axis} out of range for rank {rank}")
    return ax


def _inf_unary(shapes, dtypes, attrs, ctx):
    return shapes[0], dtypes[0]


def _inf_binary(shapes, dtypes, attrs, ctx):
    return ctx.broadcast(shapes[0], shapes[1]), _promote(dtypes[0], dtypes[1])


def _inf_matmul(shapes, dtypes, attrs, ctx):
    a, b = shapes
    if len(a) != 2 or len(b) != 2:
        ctx.fail(f"matmul expects 2-D operands, got ranks {len(a)} and {len(b)}")
    ctx.unify(a[1], b[0], "matmul inner dim")
    return (a[0], b[1]), _promote(dtypes[0], dtypes[1])


def _inf_gemm(shapes, dtypes, attrs, ctx):
    a, b, c = shapes
    if len(a) != 2 or len(b) != 2:
        ctx.fail(f"gemm expects 2-D operands, got ranks {len(a)} and {len(b)}")
    ctx.unify(a[1], b[0], "gemm inner dim")
    out = (a[0], b[1])
    # ``+= c`` requires c to broadcast into the product shape, not widen it.
    ctx.unify_shapes(ctx.broadcast(out, c), out, "gemm bias")
    return out, _promote(*dtypes)


def _inf_bmm(shapes, dtypes, attrs, ctx):
    a, b = shapes
    if len(a) != 3 or len(b) != 3:
        ctx.fail(f"bmm expects 3-D operands, got ranks {len(a)} and {len(b)}")
    batch = ctx.unify(a[0], b[0], "bmm batch dim")
    ctx.unify(a[2], b[1], "bmm inner dim")
    return (batch, a[1], b[2]), _promote(dtypes[0], dtypes[1])


def _inf_concat(shapes, dtypes, attrs, ctx):
    a, b = shapes
    if len(a) != len(b):
        ctx.fail(f"concat rank mismatch: {len(a)} vs {len(b)}")
    ax = _norm_axis(attrs["axis"], len(a), ctx)
    out = []
    for i, (da, db) in enumerate(zip(a, b)):
        out.append(da + db if i == ax else ctx.unify(da, db, f"concat dim {i}"))
    return tuple(out), _promote(dtypes[0], dtypes[1])


def _sliced_extent(dim, start, stop, ctx):
    # Mirror numpy's clamping slice semantics when the extent is concrete.
    if isinstance(dim, (int, np.integer)):
        lo, hi = min(start, dim), min(stop, dim)
        return max(0, hi - lo)
    return stop - start


def _inf_slice(shapes, dtypes, attrs, ctx):
    x = shapes[0]
    out = x[:-1] + (_sliced_extent(x[-1], attrs["start"], attrs["stop"], ctx),)
    return out, dtypes[0]


def _inf_slice_grad(shapes, dtypes, attrs, ctx):
    g, x = shapes
    want = x[:-1] + (_sliced_extent(x[-1], attrs["start"], attrs["stop"], ctx),)
    ctx.unify_shapes(g, want, "slice_grad cotangent")
    return x, dtypes[1]


def _inf_slice_axis(shapes, dtypes, attrs, ctx):
    x = shapes[0]
    ax = _norm_axis(attrs["axis"], len(x), ctx)
    out = list(x)
    out[ax] = _sliced_extent(x[ax], attrs["start"], attrs["stop"], ctx)
    return tuple(out), dtypes[0]


def _inf_slice_axis_grad(shapes, dtypes, attrs, ctx):
    g, x = shapes
    ax = _norm_axis(attrs["axis"], len(x), ctx)
    want = list(x)
    want[ax] = _sliced_extent(x[ax], attrs["start"], attrs["stop"], ctx)
    ctx.unify_shapes(g, tuple(want), "slice_axis_grad cotangent")
    return x, dtypes[1]


def _inf_split_part(shapes, dtypes, attrs, ctx):
    g, a, b = shapes
    ax = _norm_axis(attrs["axis"], len(g), ctx)
    ctx.unify(g[ax], a[ax] + b[ax], "split_part total extent")
    out = list(g)
    out[ax] = a[ax] if attrs["part"] == 0 else b[ax]
    return tuple(out), dtypes[0]


def _inf_split_part_grad(shapes, dtypes, attrs, ctx):
    h, a, b = shapes
    ax = _norm_axis(attrs["axis"], len(h), ctx)
    ctx.unify(h[ax], a[ax] if attrs["part"] == 0 else b[ax], "split_part_grad extent")
    out = list(h)
    out[ax] = a[ax] + b[ax]
    return tuple(out), dtypes[0]


def _inf_reshape(shapes, dtypes, attrs, ctx):
    x = shapes[0]
    target = attrs["shape"]
    total = ctx.prod(x)
    if -1 in target:
        known = ctx.prod(d for d in target if d != -1)
        inferred = ctx.div(total, known)
        if inferred is None:
            if isinstance(total, (int, np.integer)):
                ctx.fail(
                    f"reshape cannot infer -1: {total} not divisible by {known}"
                )
            ctx.note(f"reshape -1 left symbolic: {total} / {known}")
            inferred = ctx.fresh("reshape")
        return tuple(inferred if d == -1 else d for d in target), dtypes[0]
    verdict = ctx.eq(total, ctx.prod(target))
    if verdict is False:
        ctx.fail(f"reshape element count mismatch: {total} -> {target}")
    if verdict is None:
        ctx.note(f"assumed reshape count: {total} == prod{tuple(target)}")
    return tuple(target), dtypes[0]


def _inf_reshape_like(shapes, dtypes, attrs, ctx):
    x, like = shapes
    verdict = ctx.eq(ctx.prod(x), ctx.prod(like))
    if verdict is False:
        ctx.fail(
            f"reshape_like element count mismatch: prod{tuple(x)} != prod{tuple(like)}"
        )
    return like, dtypes[0]


def _inf_transpose(shapes, dtypes, attrs, ctx):
    x = shapes[0]
    perm = attrs["perm"]
    if perm is None:
        return tuple(reversed(x)), dtypes[0]
    if sorted(perm) != list(range(len(x))):
        ctx.fail(f"transpose perm {perm} invalid for rank {len(x)}")
    return tuple(x[p] for p in perm), dtypes[0]


def _inf_reduce(shapes, dtypes, attrs, ctx):
    x = shapes[0]
    axis = attrs["axis"]
    if axis is None:
        return (), dtypes[0]
    ax = _norm_axis(axis, len(x), ctx)
    return x[:ax] + x[ax + 1 :], dtypes[0]


def _inf_bcast_reduce_grad(shapes, dtypes, attrs, ctx):
    g, x = shapes
    axis = attrs["axis"]
    if axis is not None:
        ax = _norm_axis(axis, len(x), ctx)
        ctx.unify_shapes(g, x[:ax] + x[ax + 1 :], "bcast_reduce_grad cotangent")
    return x, dtypes[0]


def _inf_reduce_to_shape(shapes, dtypes, attrs, ctx):
    return shapes[1], dtypes[0]


def _inf_broadcast_like(shapes, dtypes, attrs, ctx):
    x, like = shapes
    ctx.unify_shapes(ctx.broadcast(x, like), like, "broadcast_like target")
    return like, dtypes[0]


def _inf_tanh_fused(shapes, dtypes, attrs, ctx):
    return [(shapes[0], dtypes[0]), (shapes[0], dtypes[0])]


def _inf_cast(shapes, dtypes, attrs, ctx):
    return shapes[0], np.dtype(attrs["dtype"])


def _inf_cast_like(shapes, dtypes, attrs, ctx):
    return shapes[0], dtypes[1]


_INFER_RULES = {
    "add": _inf_binary,
    "sub": _inf_binary,
    "mul": _inf_binary,
    "div": _inf_binary,
    "tanh_grad": _inf_binary,
    "neg": _inf_unary,
    "square": _inf_unary,
    "scale": _inf_unary,
    "tanh": _inf_unary,
    "exp": _inf_unary,
    "log": _inf_unary,
    "sqrt": _inf_unary,
    "sigmoid": _inf_unary,
    "one_minus": _inf_unary,
    "relu": _inf_unary,
    "step_mask": _inf_unary,
    "pow_scalar": _inf_unary,
    "matmul": _inf_matmul,
    "gemm": _inf_gemm,
    "bmm": _inf_bmm,
    "concat": _inf_concat,
    "slice": _inf_slice,
    "slice_grad": _inf_slice_grad,
    "slice_axis": _inf_slice_axis,
    "slice_axis_grad": _inf_slice_axis_grad,
    "split_part": _inf_split_part,
    "split_part_grad": _inf_split_part_grad,
    "reshape": _inf_reshape,
    "reshape_like": _inf_reshape_like,
    "transpose": _inf_transpose,
    "reduce_sum": _inf_reduce,
    "reduce_mean": _inf_reduce,
    "bcast_reduce_grad": _inf_bcast_reduce_grad,
    "reduce_to_shape": _inf_reduce_to_shape,
    "broadcast_like": _inf_broadcast_like,
    "tanh_fused": _inf_tanh_fused,
    "cast": _inf_cast,
    "cast_like": _inf_cast_like,
    # "item" is resolved structurally by the verifier (tuple component
    # selection needs the producer's per-part shapes, not a local rule).
}

for _name, _rule in _INFER_RULES.items():
    _REGISTRY[_name].infer = _rule
