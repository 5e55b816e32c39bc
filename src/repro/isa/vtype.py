"""RVV ``vtype`` CSR encoding and vector-length arithmetic.

Implements the RVV 1.0 ``vtype`` layout: ``vill`` in the MSB, then (from bit
7 down) ``vma``, ``vta``, ``vsew[2:0]``, ``vlmul[2:0]``.  Fractional LMUL is
supported (1/8, 1/4, 1/2) alongside integer LMUL (1, 2, 4, 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.utils.bitops import bits

VILL_BIT = 63

SEW_CODES = {0b000: 8, 0b001: 16, 0b010: 32, 0b011: 64}
SEW_TO_CODE = {sew: code for code, sew in SEW_CODES.items()}

LMUL_CODES = {
    0b000: Fraction(1),
    0b001: Fraction(2),
    0b010: Fraction(4),
    0b011: Fraction(8),
    0b101: Fraction(1, 8),
    0b110: Fraction(1, 4),
    0b111: Fraction(1, 2),
}
LMUL_TO_CODE = {lmul: code for code, lmul in LMUL_CODES.items()}

LMUL_NAMES = {
    Fraction(1): "m1",
    Fraction(2): "m2",
    Fraction(4): "m4",
    Fraction(8): "m8",
    Fraction(1, 2): "mf2",
    Fraction(1, 4): "mf4",
    Fraction(1, 8): "mf8",
}
LMUL_BY_NAME = {name: lmul for lmul, name in LMUL_NAMES.items()}


@dataclass(frozen=True)
class VType:
    """Decoded view of the ``vtype`` CSR."""

    sew: int = 64
    lmul: Fraction = Fraction(1)
    tail_agnostic: bool = True
    mask_agnostic: bool = True
    vill: bool = False

    def __post_init__(self) -> None:
        if self.sew not in SEW_TO_CODE:
            raise ValueError(f"unsupported SEW: {self.sew}")
        if self.lmul not in LMUL_TO_CODE:
            raise ValueError(f"unsupported LMUL: {self.lmul}")

    def encode(self) -> int:
        """Pack into the architectural 64-bit ``vtype`` value."""
        if self.vill:
            return 1 << VILL_BIT
        return (
            (1 if self.mask_agnostic else 0) << 7
            | (1 if self.tail_agnostic else 0) << 6
            | SEW_TO_CODE[self.sew] << 3
            | LMUL_TO_CODE[self.lmul]
        )

    @classmethod
    def decode(cls, value: int) -> "VType":
        """Unpack an architectural ``vtype`` value."""
        if (value >> VILL_BIT) & 1:
            return cls(vill=True)
        if value & ~0xFF:  # reserved bits [62:8] set -> vill (RVV 1.0)
            return cls(vill=True)
        sew_code = bits(value, 5, 3)
        lmul_code = bits(value, 2, 0)
        if sew_code not in SEW_CODES or lmul_code not in LMUL_CODES:
            return cls(vill=True)
        return cls(
            sew=SEW_CODES[sew_code],
            lmul=LMUL_CODES[lmul_code],
            tail_agnostic=bool((value >> 6) & 1),
            mask_agnostic=bool((value >> 7) & 1),
        )

    def vlmax(self, vlen_bits: int) -> int:
        """Maximum vector length for this vtype at a given VLEN."""
        if self.vill:
            return 0
        lmul = self.lmul
        return vlen_bits * lmul.numerator // (self.sew * lmul.denominator)

    def register_group_size(self) -> int:
        """Number of architectural registers occupied by one operand group."""
        return max(1, int(self.lmul))

    def describe(self) -> str:
        """Assembly-style description, e.g. ``e64,m1,ta,ma``."""
        if self.vill:
            return "vill"
        ta = "ta" if self.tail_agnostic else "tu"
        ma = "ma" if self.mask_agnostic else "mu"
        return f"e{self.sew},{LMUL_NAMES[self.lmul]},{ta},{ma}"


def parse_vtype_tokens(tokens: list[str]) -> VType:
    """Build a :class:`VType` from assembly operands like ``e64, m1, ta, ma``."""
    sew = None
    lmul = Fraction(1)
    ta = True
    ma = True
    for token in tokens:
        token = token.strip().lower()
        if token.startswith("e") and token[1:].isdigit():
            sew = int(token[1:])
        elif token in LMUL_BY_NAME:
            lmul = LMUL_BY_NAME[token]
        elif token == "ta":
            ta = True
        elif token == "tu":
            ta = False
        elif token == "ma":
            ma = True
        elif token == "mu":
            ma = False
        else:
            raise ValueError(f"unknown vtype token {token!r}")
    if sew is None:
        raise ValueError("vtype is missing an SEW token (e8/e16/e32/e64)")
    return VType(sew=sew, lmul=lmul, tail_agnostic=ta, mask_agnostic=ma)
