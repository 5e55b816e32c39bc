"""AI kernel: a dense neural-network layer with ReLU.

The paper lists "AI" among the kernels to be adapted next (§III-A) and
ACME carries systolic-array accelerators for neural networks (§I-A).
This kernel computes ``y = relu(W @ x + b)`` — the building block of an
MLP inference — vectorised across output neurons: the weight matrix is
stored transposed so each input activation broadcasts into a unit-stride
``vfmacc.vf`` over an output strip, and ReLU is a single ``vfmax.vf``
against zero.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.data import dense_matrix, dense_vector
from repro.kernels.runtime import (
    doubles_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload, build_workload


def dense_relu_layer(in_dim: int = 32, out_dim: int = 32,
                     num_cores: int = 1, seed: int = 42) -> Workload:
    """One dense layer + ReLU; output neurons split across harts."""
    weights = dense_matrix(out_dim, in_dim, seed=seed)
    x = dense_vector(in_dim, seed=seed + 1)
    bias = dense_vector(out_dim, seed=seed + 2)
    expected = np.maximum(weights @ x + bias, 0.0)
    out_row_bytes = 8 * out_dim
    data = (doubles_block("nn_wt", weights.T),  # transposed: (in, out)
            doubles_block("nn_x", x),
            doubles_block("nn_b", bias),
            zero_doubles_block("nn_y", out_dim))
    body = f"""\
main:
{range_split(out_dim, num_cores)}
    la   s2, nn_wt
    la   s3, nn_x
    la   s4, nn_b
    la   s5, nn_y
    li   s7, {in_dim}
    li   s8, {out_row_bytes}
    fmv.d.x fs1, zero        # ReLU threshold
nn_strip:
    bgeu s0, s1, nn_done
    sub  t0, s1, s0
    vsetvli s9, t0, e64, m1, ta, ma
    slli s10, s0, 3          # strip byte offset into outputs
    add  t1, s4, s10
    vle64.v v8, (t1)         # acc = bias strip
    mv   t2, s3              # &x[0]
    add  t3, s2, s10         # &WT[0][j0]
    li   t4, 0               # k
nn_inner:
    bgeu t4, s7, nn_relu
    fld  fa0, 0(t2)          # x[k]
    vle64.v v1, (t3)         # WT[k][j0 : j0+vl]
    vfmacc.vf v8, fa0, v1
    addi t2, t2, 8
    add  t3, t3, s8
    addi t4, t4, 1
    j    nn_inner
nn_relu:
    vfmax.vf v8, v8, fs1     # relu
    add  t5, s5, s10
    vse64.v v8, (t5)
    add  s0, s0, s9
    j    nn_strip
nn_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="nn-dense-relu", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="nn_y", expected=expected,
        metadata={"in_dim": in_dim, "out_dim": out_dim, "seed": seed})


def mlp_inference(dims: tuple[int, ...] = (32, 48, 32, 16),
                  num_cores: int = 1, seed: int = 42) -> Workload:
    """A small multi-layer perceptron: chained dense+ReLU layers.

    ``dims`` gives (input, hidden..., output) sizes.  Layers execute
    sequentially; each layer's neurons are split across harts with a
    barrier between layers.
    """
    if len(dims) < 2:
        raise ValueError("an MLP needs at least input and output dims")
    from repro.kernels.runtime import barrier, barrier_blocks

    rng_offset = 0
    x = dense_vector(dims[0], seed=seed)
    activations = x
    data = [doubles_block("mlp_x", x), *barrier_blocks()]
    body_parts = [f"""\
main:
    mv   a6, a0              # preserve hartid for barriers
"""]
    for layer, (in_dim, out_dim) in enumerate(zip(dims, dims[1:])):
        weights = dense_matrix(out_dim, in_dim,
                               seed=seed + 10 + rng_offset)
        bias = dense_vector(out_dim, seed=seed + 11 + rng_offset)
        rng_offset += 2
        activations = np.maximum(weights @ activations + bias, 0.0)
        in_label = "mlp_x" if layer == 0 else f"mlp_a{layer - 1}"
        out_label = f"mlp_a{layer}"
        data += [doubles_block(f"mlp_w{layer}", weights.T),
                 doubles_block(f"mlp_b{layer}", bias),
                 zero_doubles_block(out_label, out_dim)]
        body_parts.append(f"""\
    mv   a0, a6
{range_split(out_dim, num_cores)}
    la   s2, mlp_w{layer}
    la   s3, {in_label}
    la   s4, mlp_b{layer}
    la   s5, {out_label}
    li   s7, {in_dim}
    li   s8, {8 * out_dim}
    fmv.d.x fs1, zero
l{layer}_strip:
    bgeu s0, s1, l{layer}_done
    sub  t0, s1, s0
    vsetvli s9, t0, e64, m1, ta, ma
    slli s10, s0, 3
    add  t1, s4, s10
    vle64.v v8, (t1)
    mv   t2, s3
    add  t3, s2, s10
    li   t4, 0
l{layer}_inner:
    bgeu t4, s7, l{layer}_relu
    fld  fa0, 0(t2)
    vle64.v v1, (t3)
    vfmacc.vf v8, fa0, v1
    addi t2, t2, 8
    add  t3, t3, s8
    addi t4, t4, 1
    j    l{layer}_inner
l{layer}_relu:
    vfmax.vf v8, v8, fs1
    add  t5, s5, s10
    vse64.v v8, (t5)
    add  s0, s0, s9
    j    l{layer}_strip
l{layer}_done:
{barrier(num_cores)}
""")
    body_parts.append("    li   a0, 0\n    ret\n")
    final_label = f"mlp_a{len(dims) - 2}"
    return build_workload(
        name="mlp-inference",
        source=wrap_program("".join(body_parts), ""), data=data,
        num_cores=num_cores, output_symbol=final_label,
        expected=activations,
        metadata={"dims": dims, "seed": seed})
