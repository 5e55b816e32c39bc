"""Configuration dataclasses built from plain values.

A configuration value reaches the program as an object or as what JSON
made of one: a dict for a dataclass, a list of dicts for a list of them.
:func:`shape` reads what each field of a dataclass holds off its type
annotation, once; :func:`build` turns a plain value into the dataclass
by that description, :func:`plain` turns one back (``dataclasses.asdict``
without its deep copies), and ``repro.coyote.config.config_paths()``
names the fields by walking the same description.

:func:`build` refuses an unknown key, a missing required one, or a
non-number (a ``bool`` too) in a number field, with a ``ValueError``
naming the dotted path (``noc.bogus``, ``resilience.faults[0].extar``).
Ranges and choices are each class's own ``validate()``.
"""

from __future__ import annotations

import copy
import functools
import typing
from dataclasses import MISSING, fields, is_dataclass
from types import MappingProxyType, NoneType, UnionType


class Slot(typing.NamedTuple):
    """What one dataclass field holds."""

    kind: type | None     # the dataclass a value (or each item) builds into
    many: bool            # a list of ``kind``
    number: tuple         # int, float (and None if annotated); () if no number
    flat: bool            # its fields are spelled without its own name
    required: bool        # no default

    def coerce(self, value, prefix: str, name: str):
        """``value`` for this field, spelled ``prefix + name`` in
        messages: a section (or each list item) built, a number checked."""
        path = prefix + name
        if self.kind is None:
            if self.number and (isinstance(value, bool)
                                or not isinstance(value, self.number)):
                raise ValueError(f"{path} must be a number, got {value!r}")
            return value
        if not self.many:
            return build(self.kind, value, prefix if self.flat
                         else path + ".")
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return [build(self.kind, item, f"{path}[{index}].")
                for index, item in enumerate(value)]


@functools.cache
def shape(kind: type) -> MappingProxyType[str, Slot]:
    """Field name -> :class:`Slot` of the dataclass ``kind``.  A field
    whose metadata has ``flat`` set is spelled as if its own fields
    were ``kind``'s."""
    hints = typing.get_type_hints(kind)
    table = {}
    for item in fields(kind):
        hint = hints[item.name]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        many = origin is list and is_dataclass(args[0])
        options = set(args) if origin in (typing.Union, UnionType) \
            else {hint}
        table[item.name] = Slot(
            kind=args[0] if many else hint if is_dataclass(hint) else None,
            many=many, number=(int, float, *options & {NoneType})
            if options <= {int, float, NoneType} else (),
            flat=bool(item.metadata.get("flat")),
            required=item.default is MISSING
            and item.default_factory is MISSING)
    return MappingProxyType(table)


def build(kind: type, value, prefix: str = ""):
    """``value`` as a ``kind`` dataclass: an instance passes through,
    ``None`` is the default, a dict is built field by field; ``prefix``
    spells its fields in error messages."""
    if isinstance(value, kind):
        return value
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ValueError(f"{prefix.rstrip('.') or kind.__name__} must be "
                         f"an object, got {value!r}")
    table = shape(kind)
    unknown = sorted(prefix + str(key) for key in value if key not in table)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    missing = [prefix + name for name, slot in table.items()
               if slot.required and name not in value]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return kind(**{name: table[name].coerce(inner, prefix, name)
                   for name, inner in value.items()})


def plain(value) -> dict:
    """The dataclass ``value`` as the dict :func:`build` takes back, equal
    to ``dataclasses.asdict(value)``: a section a dict, a ``many`` slot a
    list of them, a leaf as it is (copied unless an immutable scalar)."""
    document = {}
    for name, slot in shape(type(value)).items():
        inner = getattr(value, name)
        if slot.many:
            inner = [plain(item) for item in inner]
        elif slot.kind is not None:
            inner = plain(inner)
        elif type(inner) not in (int, float, str, bool, NoneType):
            inner = copy.deepcopy(inner)
        document[name] = inner
    return document
