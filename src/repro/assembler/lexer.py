"""Line-level tokenisation for the RISC-V assembler.

Each source line is split into an optional label, an optional statement
(mnemonic or directive) and its operand list.  Operands are split on commas
at the top level only, so memory operands like ``8(a0)`` and parenthesised
expressions stay intact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class AsmSyntaxError(Exception):
    """Raised for malformed assembly source."""

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None):
        self.line_number = line_number
        self.line = line
        if line_number:
            location = f" (line {line_number}: {line!r})"
        else:   # not from the source text: ``line`` says where instead
            location = f" ({line})" if line else ""
        super().__init__(message + location)


_LABEL_RE = re.compile(r"^\s*([A-Za-z_.$][\w.$]*)\s*:")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


@dataclass
class Statement:
    """One tokenised source statement."""

    line_number: int
    source: str
    label: str | None = None
    mnemonic: str | None = None
    operands: list[str] = field(default_factory=list)

    @property
    def is_directive(self) -> bool:
        return bool(self.mnemonic) and self.mnemonic.startswith(".")


def strip_comment(line: str) -> str:
    """Remove ``#`` and ``//`` comments, respecting double-quoted strings."""
    result = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            result.append(ch)
            if ch == "\\" and i + 1 < len(line):
                result.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            result.append(ch)
            i += 1
            continue
        if ch == "#" or line.startswith("//", i):
            break
        result.append(ch)
        i += 1
    return "".join(result)


def split_operands(text: str) -> list[str]:
    """Split an operand string on top-level commas.

    >>> split_operands("a0, 8(sp), 3")
    ['a0', '8(sp)', '3']
    """
    operands = []
    depth = 0
    in_string = False
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            current.append(ch)
            if ch == "\\" and i + 1 < len(text):
                current.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


def tokenize_line(line: str, line_number: int) -> list[Statement]:
    """Tokenise one source line into zero or more statements.

    Multiple labels may precede a statement; each becomes its own
    :class:`Statement` with only the label set, followed by one statement
    holding the mnemonic (if any).
    """
    stripped = strip_comment(line)
    statements: list[Statement] = []
    rest = stripped
    while True:
        match = _LABEL_RE.match(rest)
        if not match:
            break
        statements.append(Statement(line_number, line, label=match.group(1)))
        rest = rest[match.end():]
    rest = rest.strip()
    if rest:
        parts = rest.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        statements.append(
            Statement(line_number, line, mnemonic=mnemonic,
                      operands=split_operands(operand_text)))
    return statements


def tokenize(source: str) -> list[Statement]:
    """Tokenise a full assembly source string."""
    statements: list[Statement] = []
    for number, line in enumerate(source.splitlines(), start=1):
        statements.extend(tokenize_line(line, number))
    return statements


def unescape_string(token: str, line_number: int | None = None) -> bytes:
    """Decode a quoted assembler string literal into bytes."""
    match = _STRING_RE.match(token.strip())
    if not match:
        raise AsmSyntaxError(f"expected string literal, got {token!r}",
                             line_number)
    body = match.group(1)
    return body.encode("utf-8").decode("unicode_escape").encode("latin-1")
