"""Pinned program images: one sha256 per built kernel.

A kernel's image — segment bytes, entry point, symbol addresses — is
what every digest downstream is computed from (``kernel_digest``, the
campaign cache keys, the benchmark's fingerprints).  These pins make a
change to how kernels are *built* prove that it moved no byte: all 15
kernels at three shapes, plus the five shapes ``benchmarks/e2e`` runs.

To record a new image on purpose, run this file as a script and paste
what it prints over ``PINNED``.
"""

import hashlib
import re

import pytest

from repro.kernels import (
    KERNELS,
    instantiate,
    scalar_matmul,
    spmv_csr_gather_reduce,
    vector_matmul,
)

# ``range_split``/``barrier`` number their labels from a process-global
# counter, so the *names* depend on what was built before; every
# consumer reads addresses only.
_NUMBERED = re.compile(r"^((?:rs|bw|bd)(?:_[a-z]+)*)_\d+$")


def image_digest(program) -> str:
    digest = hashlib.sha256()
    for segment in sorted(program.segments, key=lambda s: s.base):
        digest.update(f"segment {segment.base:#x} "
                      f"{len(segment.data)}\n".encode())
        digest.update(bytes(segment.data))
    digest.update(f"entry {program.entry:#x}\n".encode())
    symbols = sorted((_NUMBERED.sub(r"\1_N", name), address)
                     for name, address in program.symbols.items())
    for name, address in symbols:
        digest.update(f"{name} {address:#x}\n".encode())
    return digest.hexdigest()


def _large(name: str) -> int:
    return 64 if name == "fft-radix2" else 32


CASES = {
    **{f"{name}-1c": (lambda name=name: instantiate(name, 1))
       for name in KERNELS},
    **{f"{name}-4c": (lambda name=name: instantiate(name, 4))
       for name in KERNELS},
    **{f"{name}-8c-{_large(name)}":
       (lambda name=name: instantiate(name, 8, _large(name)))
       for name in KERNELS},
    "bench-sparse_mesh": lambda: spmv_csr_gather_reduce(
        num_rows=1024, nnz_per_row=16, num_cores=16, seed=1),
    "bench-vector_compute": lambda: vector_matmul(
        size=48, num_cores=4, seed=1),
    "bench-scalar_compute": lambda: scalar_matmul(
        size=48, num_cores=8, seed=1),
    "bench-sweep_pool2": lambda: scalar_matmul(
        size=24, num_cores=8, seed=1),
    "bench-campaign": lambda: scalar_matmul(size=8, num_cores=4),
}

PINNED = {
    "scalar-matmul-1c":
        "8cfd08b5a391c94e10e3be1751a63949ee1fd81bce42509e6531d756a8371dac",
    "vector-matmul-1c":
        "327af7a374bebacf688f21200b1433b84819af91532af04099bb21e4767336d4",
    "scalar-spmv-1c":
        "b0b1ae62d283fe3173ef28d8cb13ef8126e0edb1163197f58ebeca7eb8fc5aaa",
    "spmv-csr-gather-reduce-1c":
        "a8398696a119ee07cae03e6458e406d20316ed0dbbf28d6e0d84dca236319037",
    "spmv-csr-gather-accum-1c":
        "ab6f354e1f3ffebdd02e478e992aab713bbf21ffb9c89e8a4a32a580e321b99f",
    "spmv-ell-1c":
        "6419d5820a104e52dfaf1da370967f52b016f71b77e320311c6fba7b7053711c",
    "spmv-csr-compressed-1c":
        "318278992c665d5fc835bd349745ff2d3bb51174d1b54d5ed02d1818df79f1c8",
    "vector-stencil-1c":
        "ddf209bc116c2b554ad3aa531d7024d349c570fb54a74a7bffdfd9fea8c56390",
    "vector-axpy-1c":
        "5d931c65724b29fb58f66e6e86f0cba25fab1c62b1f1d969dc02cda5f5bd7549",
    "stream-triad-1c":
        "17c0a16af0cd1bd3285573d8de1c04c15289486d9f91415c0c1429a6a69559eb",
    "vector-dot-1c":
        "e08c2e8ecbaa6e303375e08977b0fa003864b5c1354859a4a11947250de4a2de",
    "fft-radix2-1c":
        "ddfd10950b5512f4d6ff04bc4e3a6dc81b7fb885167c249980f4884183bc65f7",
    "nn-dense-relu-1c":
        "6465ad6be5ac25dca9dfde5c720e1d614fe579a2c535a2918f903abb18c32d87",
    "mlp-inference-1c":
        "771cad6c290d69b8c58d398958e4b9c16946021ce2a084eba9d2d2311f19bc3d",
    "histogram-1c":
        "7a885f7e0366db199fbab2151bffd0f98056c75096aed84475c34c284ff090a4",
    "scalar-matmul-4c":
        "ed40a92c49be5c5ab0c2a26f7873e52e4ea4244afcf5398c8bb37edfb2424877",
    "vector-matmul-4c":
        "efb73bbdb00b95ab7d4d81186b3c25c98f5a139059185e59a0e356489fdbfa89",
    "scalar-spmv-4c":
        "88d59e4269dd8c893878c1ac268dc6df3198b0b1bc6db94516616439d83e9314",
    "spmv-csr-gather-reduce-4c":
        "91eb926bb107cd12f1c31298ace287588f789ac0838bf648640587a684cf03a2",
    "spmv-csr-gather-accum-4c":
        "0a39a90a659b959509e05f696c73da2bad87cbe7701c5ca96a585ae4af4f8ec0",
    "spmv-ell-4c":
        "eaaf03e227301aa740a65a79f4a752dcead5d44f8a02539e8547bb3de26bcc16",
    "spmv-csr-compressed-4c":
        "c8a95f0b23dc39689d6c3a9fdf49020fc3c3721edd3c1a3e19d9d5da5342714e",
    "vector-stencil-4c":
        "934500973718c990f1ced020b89c5a947cca1f19416e781bc179c03cfcee6b01",
    "vector-axpy-4c":
        "1ff34efb6f56e79b29f893060cc2c56607127d1ff81bf70784a2cc2ca581a92a",
    "stream-triad-4c":
        "ede6f4800a63b9d57ea561e4136d66cb7df07b9a6cc3b1355c8a4a616e252733",
    "vector-dot-4c":
        "7f563a0f4c51ef3bbab597271278e3cd94184b1ff9281d2fff46c33a38209b82",
    "fft-radix2-4c":
        "17b58d35eeba75d60a391a1e0a7beca9443123ae4eecf469793ad069453de181",
    "nn-dense-relu-4c":
        "8f1426b892823509236cc87b03eb9e265d0f6ec11bce76b1798d81da5eee2dcc",
    "mlp-inference-4c":
        "26b9bc72a5b2506e720406e145ef1c0b583f44be326d89bc03095ace3b93f360",
    "histogram-4c":
        "118b321a2364327c08c1a16dfffb1078644ca6fe42869e083fd5da5d20cfb002",
    "scalar-matmul-8c-32":
        "a9c13c999ffff16bd412f336c3e142f7fcf720ce72bb47bcfbd5f27f843e17ed",
    "vector-matmul-8c-32":
        "b3c5565c5c54efcd14112552cc6df69864652faa72d665ce0a4d5cb58ded25c5",
    "scalar-spmv-8c-32":
        "d4bd6362cac68720e4d1c54f9a77ddc2241baaf783873af71bd4af08493cc06b",
    "spmv-csr-gather-reduce-8c-32":
        "62c33d403bd1be068d02678d105e54dcdcc5b5837e29a2b493ce64bf179613f6",
    "spmv-csr-gather-accum-8c-32":
        "28ca5b2da3bfb7ee2543867c813c0163849a6050be05ea9218e30e38fd928378",
    "spmv-ell-8c-32":
        "f6b9c0149e21d663462bc0e577842db04f387da274c1d7fa7b501985fd1ab59d",
    "spmv-csr-compressed-8c-32":
        "50ba14165dc04050999cd8844491dc2c8db08b47c74a6715f4be147ad3b7c397",
    "vector-stencil-8c-32":
        "59a70ec53ea277ac06b6ee8e0082e1583809af3b23ee6d2799fdddc0fce5dcd8",
    "vector-axpy-8c-32":
        "e50af82779587c78eb961497357b3ead55bcb3db253f80919ce6948def00ca1c",
    "stream-triad-8c-32":
        "dc50c4b5457c32c916d88ab36d9116c0fa22196b0cbfb318162f7f7997508232",
    "vector-dot-8c-32":
        "c64e1fddaab4c75ebea3eb1460b85d3bfa580419ccedd0616be22a982670ed5f",
    "fft-radix2-8c-64":
        "db08e37c3e54d6c734f2152e9feb7023a0f37285b78d3a2829463ccf600d076f",
    "nn-dense-relu-8c-32":
        "167fd6669c194dc4e542b9afbd6e7514cfc1f2a582b180b9d07ff9dd41aa14f8",
    "mlp-inference-8c-32":
        "1a03c19041a742fdbf482d615fe1d6de1a9406c6de78a3dab4fa73848849b258",
    "histogram-8c-32":
        "321f30e68bd1776231d144cfa2c11c5d2b083e29eba9c9605ced5c6633fb4ff4",
    "bench-sparse_mesh":
        "0fc0af5b780eeebf9d9010342112148ddc064a999effc8ca1f22610ced031d98",
    "bench-vector_compute":
        "6e70e7ae072f7659cd49c72db15dd0452d22d26d299b0e64d7a6b3083c531a0c",
    "bench-scalar_compute":
        "ba0f49e1493a2b1351d9cc6ed2ebdb0c18bcb8fc8cf973970a510a48819c267e",
    "bench-sweep_pool2":
        "f05ce23351cda99990dad9a0d48950bb7c49be009db2f1ed38be86e2ece60dec",
    "bench-campaign":
        "48633beec8084c9ea2e648139aea49238fe36c749b765b2069739115e8c23953",
}


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_image_is_byte_identical(case):
    assert image_digest(CASES[case]().program) == PINNED[case]


if __name__ == "__main__":
    print("PINNED = {")
    for case, build in CASES.items():
        print(f'    "{case}":\n        "{image_digest(build().program)}",')
    print("}")
