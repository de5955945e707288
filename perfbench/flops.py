"""Floating-point operation counts of recorded tape nodes, from operand shapes.

The benchmark counts FLOPs itself instead of reading the package's own
counters, so a change to those counters cannot move the per-layer numbers.
Only multiply-adds of contractions count (two FLOPs each); gathers, slices
and the loss nodes move memory or do O(B*L) work and count zero.

An einsum is costed as its operands contracted two at a time from the left,
each pairwise step costing 2 x the product of the extents of every index the
two operands carry. An index is summed out as soon as no later operand and
not the output needs it.
"""

import math


def einsum_flops(subscripts: str, shapes) -> int:
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    extent = {}
    for sub, shape in zip(inputs, shapes):
        extent.update(zip(sub, shape))
    carried = set(inputs[0])
    total = 0
    for k in range(1, len(inputs)):
        union = carried | set(inputs[k])
        total += 2 * math.prod(extent[c] for c in union)
        still_needed = set(output).union(*inputs[k + 1 :])
        carried = union & still_needed
    return total


def _is_einsum(node) -> bool:
    return isinstance(node.extra, str) and "->" in node.extra


def _pair_round_flops(stack_shape) -> int:
    """Products of rows (0,1), (2,3), ... of a [T, ..., k, k] stack."""
    pairs = stack_shape[0] // 2
    k = stack_shape[-1]
    return 2 * pairs * math.prod(stack_shape[1:-2]) * k * k * k


def forward(node) -> int:
    """FLOPs of computing the node's output."""
    if _is_einsum(node):
        return einsum_flops(node.extra, [op.shape for op in node.inputs])
    if node.kind == "pair_round":
        return _pair_round_flops(node.inputs[0].shape)
    return 0


def backward(node) -> int:
    """FLOPs of the node's adjoints, one per input that needs a gradient.

    The adjoint of an einsum for operand i is the einsum with operand i
    replaced by the output adjoint and ``->`` pointing at operand i's
    indices. A pairwise round needs two products per forward product.
    """
    if _is_einsum(node):
        inputs, output = node.extra.split("->")
        inputs = inputs.split(",")
        shapes = [op.shape for op in node.inputs]
        total = 0
        for i, needed in enumerate(node.needs):
            if not needed:
                continue
            subs = [output if j == i else s for j, s in enumerate(inputs)]
            adj_shapes = [node.output.shape if j == i else s for j, s in enumerate(shapes)]
            total += einsum_flops(",".join(subs) + "->" + inputs[i], adj_shapes)
        return total
    if node.kind == "pair_round":
        return 2 * _pair_round_flops(node.inputs[0].shape)
    return 0
