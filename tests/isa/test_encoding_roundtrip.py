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
    words: dict = {}
    for word in sorted(image):
        words.setdefault(image[word].mnemonic, []).append(word)
    for mnemonic in sorted(words):
        # Seeded per mnemonic: a new row does not shift the others' draws.
        rng = random.Random(mnemonic)
        for seed in words[mnemonic][:2]:
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
        if word & 0x7F not in (0x57, 0x73):  # OP-V and SYSTEM have them
            continue
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
# OP-V (0x57) re-recorded when the ten shapes RVV 1.0 does not define
# (``encoding.UNDEFINED_SHAPES``, now in ``RESERVED``) lost their rows.
_DIGESTS = {
    0x03: "262e45fc34b0e95057ee6cc0d4d11b1de4aa7ea11cf8faab0bb9972d85d10f33",
    0x07: "eb8ed254fed4b8f5aec451d9b0089473dc3cf87fcae9af17f4362045ed8e0dcf",
    0x0f: "5527e3e4d30eb80bb417e64fc075df3b5084fea66163839f82f2e57103bebe00",
    0x13: "e9132a92f27c70ddbb9e736c95358f7d77e42c0972241bbc74d2038d2bfda4d0",
    0x17: "9b31852ed398280a8eff2c99cf6a208cb388b21d3e71fb5da6e0f8068aaeff35",
    0x1b: "1c19495acd814c5c6989729ac0a0d6bc44f340d1bcce51db7b591df2a2fc975d",
    0x23: "e1653b3094b45a731d0b791f45d9d0ad28a40b8e3f912fda1f3f5b9392733e23",
    0x27: "185cc4f99fbe39040ba738406e37675c5f6a425cd3238e40eaa68a7575fa7830",
    0x2f: "38a440f2fdebe51f83966cdf73961a0db15b5769ba3ddff8be100dfeec8b2aec",
    0x33: "35cd55f9d5c7c26f2bbb6837dd3a6d21ba445dc1eef68ab0042fa954cd9b067a",
    0x37: "b40687336cc82261750f913cd661c2262fb24ead0493e9b116624ea6cea06bb1",
    0x3b: "376b6813f641a9a331e711641c29d1ae271440846f3f1a094001cf933582a227",
    0x43: "65063f12cbeb2aaa6b1a5c4ea6d4399745fbdc111af2fc1e27381416d19ea134",
    0x47: "8a8ae207e7582a612d0808e1af4ca97d573acd50b29993f67b06b62669b61570",
    0x4b: "b7d7222e7f569e6a8faaff91e2543f6722b4a27701815880a05a09ac15466cda",
    0x4f: "ac5c991384f9a72cda030e799e9187d546c0d44d499f481918c8f776fbdb5d13",
    0x53: "a4d942a7961661bcdd4db4bfb26a92ca4c68115eba06334c7fc697e06891dde3",
    0x57: "479b7193172751a0c6b032cb866c8e3c071867958b091270d5c5439d7e292077",
    0x63: "6c46e05335fa72a75eab1bb1e10d8e01bc278c10f2c30b4225bd06aeb5e06220",
    0x67: "1a6443e3ff0c7aff7dfdf26aa6031ec36afd6dd617ba04eacbec9b1cab2058a3",
    0x6f: "12ddbad0a074bc4b3320cc68e5111a05d098f839165b358558e06b8d7f62d514",
    0x73: "641e12444076bee07dbc3f406ac5d837c471ef8a128d2c009a5984508665708b",
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
    # Shapes of defined families that RVV 1.0 leaves out.
    "vsub.vi": 0x0A5530D7, "vrsub.vv": 0x0E5500D7,
    "vminu.vi": 0x125530D7, "vmin.vi": 0x165530D7,
    "vmaxu.vi": 0x1A5530D7, "vmax.vi": 0x1E5530D7,
    "vmsltu.vi": 0x6A5530D7, "vmslt.vi": 0x6E5530D7,
    "vmsgtu.vv": 0x7A5500D7, "vmsgt.vv": 0x7E5500D7,
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
