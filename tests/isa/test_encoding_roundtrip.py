"""The encoder's canonical image, pinned slot for slot and text for text.

Decoder, encoder and disassembler must agree on every word an assembled
program can contain.  This file states that through their public
functions only, so it runs unchanged on any implementation of the three:

* the *canonical image* is built by sweeping instruction words — the
  full opcode / funct3 / top-seven-bits grid with the rs1 / rs2 values
  that act as sub-opcodes, then seeded random register and immediate
  fields around two words of every mnemonic — and keeping what
  ``decode -> disassemble -> encode`` maps them to (grid) or leaves
  alone (random): the words the encoder itself produces;
* law: every canonical word is a fixpoint of that round trip, and every
  mnemonic the encoder supports is in the image;
* snapshot: one sha256 per major opcode over ``(word, every Instruction
  slot, disassembly)``, recorded at commit 52a677d.

A word the encoder cannot produce (a reserved encoding, a field the
model ignores set to a non-canonical value) is never in the image, so
the snapshot does not say whether it decodes; ``RESERVED`` and
``IGNORED_FIELDS`` below do, one literal word per case.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.assembler.encoder import (
    EncodeContext,
    encode,
    supported_mnemonics,
)
from repro.assembler.lexer import split_operands
from repro.isa.csr import CSR_BY_NAME
from repro.isa.decoder import IllegalInstruction, Instruction, decode
from repro.isa.disasm import disassemble
from repro.isa.vtype import VType
from repro.soc.memory import SparseMemory
from repro.spike.hart import Hart, IllegalInstructionTrap

_CTX = EncodeContext(pc=0, resolve=lambda text: int(text, 0))
_REGISTER_LISTS = ("srcs", "dests", "all_regs")

# Encodable names that are not instruction words of their own: the two
# halves of ``la`` (an auipc and an addi with relocation-style operands).
_NOT_IN_IMAGE = {"la.hi", "la.lo"}


def _reassemble(instr: Instruction) -> int:
    mnemonic, _, operands = disassemble(instr).partition(" ")
    return encode(mnemonic, split_operands(operands), _CTX)


def _slots(instr: Instruction) -> tuple:
    """Every slot; the register lists sorted, because their order is
    unobservable (``Scoreboard.blocks`` asks ``any(reg in busy ...)`` and
    ``register_miss`` makes a frozenset)."""
    return tuple(
        tuple(sorted(getattr(instr, slot))) if slot in _REGISTER_LISTS
        else getattr(instr, slot) for slot in Instruction.__slots__)


def _respelled(instr: Instruction) -> bool:
    """Outside the snapshot: when it was recorded an unnamed CSR printed
    as ``csr0x2b0`` and a reserved vtype as ``vill``, which nothing could
    parse.  Both print as the number now, and round-trip
    (``test_numeric_csr_and_vtype_round_trip``)."""
    if instr.is_system and instr.mnemonic.startswith("csrr"):
        return instr.csr not in CSR_BY_NAME.values()
    if instr.mnemonic in ("vsetvli", "vsetivli"):
        return VType.decode(instr.imm).vill
    return False


def _decodes(word: int) -> Instruction | None:
    try:
        instr = decode(word)
    except IllegalInstruction:
        return None
    return None if _respelled(instr) else instr


def _grid():
    """Every major opcode, funct3 and top seven bits, with the rs2 / rs1
    values that select an operation somewhere (OP-FP conversions, SYSTEM
    funct12, the OP-V unary groups)."""
    for opcode in range(0b11, 128, 4):
        for funct3 in range(8):
            for top in range(128):
                for rs2, rs1 in ((0, 0), (1, 0), (2, 0), (3, 0), (5, 0),
                                 (0, 0b10000), (0, 0b10001)):
                    yield top << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 \
                        | opcode


def _build_image() -> dict:
    """Canonical word -> decoded instruction."""
    image = {}
    for word in _grid():
        instr = _decodes(word)
        if instr is not None:
            canonical = _reassemble(instr)
            image.setdefault(canonical, instr if canonical == word
                             else decode(canonical))
    # Random fields around the two smallest words of each mnemonic; only
    # fixpoints are kept, so what a non-canonical neighbour decodes to
    # (or whether it decodes at all) cannot change the image.
    seeds: dict = {}
    for word in sorted(image):
        seeds.setdefault(image[word].mnemonic, [])
        if len(seeds[image[word].mnemonic]) < 2:
            seeds[image[word].mnemonic].append(word)
    rng = random.Random(17)
    for mnemonic in sorted(seeds):
        for seed in seeds[mnemonic]:
            for _ in range(32):
                word = seed
                for low, width in ((7, 5), (15, 5), (20, 5), (25, 7)):
                    if rng.random() < 0.5:
                        field = ((1 << width) - 1) << low
                        word = word & ~field | rng.getrandbits(32) & field
                instr = _decodes(word)
                if instr is not None and _reassemble(instr) == word:
                    image[word] = instr
    return image


@pytest.fixture(scope="module")
def image() -> dict:
    return _build_image()


def test_every_supported_mnemonic_is_in_the_image(image):
    found = {instr.mnemonic for instr in image.values()}
    assert found == supported_mnemonics() - _NOT_IN_IMAGE
    assert len(image) > 50_000


def _assert_fixpoint(instr: Instruction) -> None:
    again = decode(_reassemble(instr))
    assert _slots(again) == _slots(instr), \
        f"{instr.word:#010x} {disassemble(instr)!r} -> {again.word:#010x}"


def test_canonical_words_are_fixpoints(image):
    """``decode(encode(*parse(disassemble(decode(w)))))`` is ``decode(w)``
    in every slot, the word included."""
    for instr in image.values():
        _assert_fixpoint(instr)


def test_numeric_csr_and_vtype_round_trip():
    """Disassembly is total: the grid's words with a CSR that has no name
    or a vtype that has no token spelling are fixpoints too."""
    count = 0
    for word in _grid():
        try:
            instr = decode(word)
        except IllegalInstruction:
            continue
        if _respelled(instr):
            _assert_fixpoint(instr)
            count += 1
    assert count > 5_000
    assert disassemble(decode(0x2B0025F3)) == "csrrs a1, 0x2b0, zero"
    assert disassemble(decode(0x7FF072D7)) == "vsetvli t0, zero, 0x7ff"
    assert disassemble(decode(0xC0417057)) == "vsetivli zero, 2, 0x4"


# sha256 per major opcode over the image's sorted words, each as
# "<word> <slots> <disassembly>".  Recorded at commit 52a677d (the three
# hand-written tables); a row added to the ISA changes its opcode's
# line and nothing else — the failure message prints the new value.
_DIGESTS = {
    0x03: "a0be0fa937b6488b64981d2202d75aa1909a209c1f58fd553838aef7c41b7931",
    0x07: "e488565593c325510c0dee719c3b394296cdbfcf2b03d70232ba3d367edc1afc",
    0x0f: "5527e3e4d30eb80bb417e64fc075df3b5084fea66163839f82f2e57103bebe00",
    0x13: "f2e2aa355b7661b33cba9cd5b8e768f83abc263fd35c70e9a579418a3da8c457",
    0x17: "4a05858b616b4cc9ddf38bd03459d87a155cbe8b89eff50582e60e6db3bf2748",
    0x1b: "4773f599ff365e264891267d2038a13afbb9773d02b7ff904d4e67ae9000210a",
    0x23: "9d6ea47302ea65bf08ca458a6426799e56bbdc2023b661d55e184bdd161f9eed",
    0x27: "553fb2f9488ab1856f7896399437cd7972468ff4c8dd1e0b27965324073bae5d",
    0x2f: "0f7f5b03059fba381551e3d0113f395f3a57738cab35506fae659c6b028a9c2c",
    0x33: "e51dda0686cca19b5a723f10923f05f143a9844841e4b21669d0ffe75fdef9df",
    0x37: "707b3c713067afcb304c16ef3ef1f7173becc97a38cca30a6f92178f8e06701c",
    0x3b: "d0dca61113450f70b58bf3f447af6256a3875c69cd442518f714397eb8b932dd",
    0x43: "e0d52d7d184ab36da3254e99811adf48578fce19b77c60895177d0762ce168aa",
    0x47: "98b39b413bf6d70cd7a8a3fd98e0927d5e1c61451cb0a24c4bcf244d80ce4553",
    0x4b: "247c3ffb1a2af4a56d852bd4b7e9ed8792cb821a801c3c3dc9489690ebb9eb61",
    0x4f: "2d77b267ee4c2efe44cbea4e2c52333e576818d84a31e85a19d49a73123b658d",
    0x53: "5c178bff75220ff894464eeda7df3ade10b7d49e1e4e969383448be7011f7a9d",
    0x57: "8a97ad9ac6ed8cf67aeb9c9bf405e23f5a658edb99fd2b6772f63edf89ec2019",
    0x63: "5c09ad725c28ce85cbf71b556e5dfbf99684354a0cacbddcfc68e20caa8ac4a7",
    0x67: "485e66971a67041930dc20125be31a3d3e0887faf78c617a4cb6b6a84c1a1c7d",
    0x6f: "17cde91dad06c502e260d36a65f4dc2cd6e96018c176a2fa95668bdc70c1dd34",
    0x73: "7813e20ceb1f8f5d304c68c9034dba2aff4ae984d1f18913ef48539d238cb588",
}


def test_image_matches_the_recorded_snapshot(image):
    hashes: dict = {}
    for word in sorted(image):
        instr = image[word]
        hashes.setdefault(word & 0x7F, hashlib.sha256()).update(
            f"{word:08x} {_slots(instr)!r} {disassemble(instr)}\n".encode())
    digests = {opcode: h.hexdigest() for opcode, h in hashes.items()}
    listing = "".join(f"\n    {opcode:#04x}: \"{digest}\","
                      for opcode, digest in sorted(digests.items()))
    assert digests == _DIGESTS, f"the image now hashes to:{listing}"


# ---------------------------------------------------------------------------
# Words outside the image
# ---------------------------------------------------------------------------

# Reserved encodings: one literal word each, named by what a lenient
# decoder would call it.
RESERVED = {
    # A reduction's funct6 under OPMVX / OPFVF (rs1 names a scalar there).
    "vredsum.vs/OPMVX": 0x025260D7, "vredand.vs/OPMVX": 0x065260D7,
    "vredor.vs/OPMVX": 0x0A5260D7, "vredxor.vs/OPMVX": 0x0E5260D7,
    "vredminu.vs/OPMVX": 0x125260D7, "vredmin.vs/OPMVX": 0x165260D7,
    "vredmaxu.vs/OPMVX": 0x1A5260D7, "vredmax.vs/OPMVX": 0x1E5260D7,
    "vfredusum.vs/OPFVF": 0x065250D7, "vfredosum.vs/OPFVF": 0x0E5250D7,
    "vfredmin.vs/OPFVF": 0x165250D7, "vfredmax.vs/OPFVF": 0x1E5250D7,
    # Vector loads and stores with mew = 1 (bit 28).
    "vle64.v/mew": 0x12057107, "vlse32.v/mew": 0x1AB56107,
    "vluxei16.v/mew": 0x16855107, "vloxei8.v/mew": 0x1E850107,
    "vse64.v/mew": 0x12057127, "vsse8.v/mew": 0x1AB50127,
    # The scalar <-> vector moves are always unmasked.
    "vmv.x.s/vm=0": 0x40102557, "vmv.s.x/vm=0": 0x400560D7,
    "vfmv.f.s/vm=0": 0x40101557, "vfmv.s.f/vm=0": 0x400550D7,
    "vid.v/vs2": 0x5238A0D7,
    "fsqrt.s/rs2": 0x58358553, "fsqrt.d/rs2": 0x5A158553,
    "ecall/rd": 0x000000F3, "ecall/rs1": 0x00008073,
    "ebreak/rd": 0x001000F3, "ebreak/rs1": 0x00108073,
    "mret/rd": 0x302000F3, "mret/rs1": 0x30208073,
    "wfi/rd": 0x105000F3, "wfi/rs1": 0x10508073,
}


@pytest.mark.parametrize("name", RESERVED)
def test_reserved_encoding_traps(name):
    word = RESERVED[name]
    with pytest.raises(IllegalInstruction):
        decode(word)
    memory = SparseMemory()
    memory.store_int(0x1000, word, 4)
    hart = Hart(0, memory, reset_pc=0x1000)
    with pytest.raises(IllegalInstructionTrap) as trap:
        hart.step()
    assert (trap.value.pc, trap.value.word) == (0x1000, word)
    assert hart.pc == 0x1000 and hart.instret == 0


# Fields the model legitimately ignores (FP rounding mode, AMO aq/rl,
# fence's pred/succ/fm, everything fence.i leaves unused): any value
# decodes, to the instruction the encoder's canonical choice decodes to.
IGNORED_FIELDS = [
    (0x02C5F553, "fadd.d fa0, fa1, fa2"),             # rm = dyn
    (0xC2059553, "fcvt.w.d a0, fa1"),                 # rm = rtz
    (0x68C5F543, "fmadd.s fa0, fa1, fa2, fa3"),       # rm = dyn
    (0x06C5B52F, "amoadd.d a0, a2, (a1)"),            # aq and rl
    (0x1405A52F, "lr.w a0, (a1)"),                    # aq
    (0x8330000F, "fence"),                            # fence.tso
    (0x0FF2018F, "fence"),                            # rd and rs1
    (0xFFFF9F8F, "fence.i"),                          # every unused bit
]


@pytest.mark.parametrize("word, text", IGNORED_FIELDS,
                         ids=[f"{word:#010x}" for word, _ in IGNORED_FIELDS])
def test_ignored_field_still_decodes(word, text):
    instr = decode(word)
    assert disassemble(instr) == text
    canonical = decode(_reassemble(instr))
    assert canonical.word != word
    assert _slots(instr)[1:] == _slots(canonical)[1:]
