"""Invalidation-on-mutation serialization caches for packet dataclasses.

Packets traverse many simulated elements (routers, filters, shapers, the DPI
middlebox, endpoint stacks) and several of them need the packet's wire bytes
— for length/checksum validation, throughput accounting, or reassembly.
Re-serializing at every hop dominated the profile, so the packet dataclasses
memoize their serialized forms and drop the memo the moment any header field
is assigned.

:func:`install_wire_cache` installs two things on a packet dataclass:

* an ``__init__`` with the dataclass-generated parameters, order and
  defaults that stores every field straight into the instance dict and then
  runs ``__post_init__`` (if any).  Nothing can be cached before the
  constructor returns, so construction runs no Python-level hook at all —
  this one constructor is the fast path for every caller.
* a ``__setattr__`` override for assignments *after* construction (the
  technique crafters rewrite header fields in place): assignments to
  declared dataclass fields clear the named cache slots, while cache slots
  themselves (and any private attribute) pass through untouched.

Caches default to ``None`` at class level, so ``dataclasses.replace``-style
copies start cold and can never observe a stale value.
"""

from __future__ import annotations

from dataclasses import MISSING, fields


def _dict_init(cls: type) -> object:
    """Build an ``__init__`` for dataclass *cls* that fills the instance dict.

    Generated from ``dataclasses.fields(cls)`` so fields stay declared once;
    parameters, their order and their defaults match the dataclass's own
    ``__init__``.  Only plain defaults are supported (no default factories,
    keyword-only or ``init=False`` fields).
    """
    flds = fields(cls)
    for f in flds:
        if f.default_factory is not MISSING or f.kw_only or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported field kind")
    params = ", ".join(
        f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}" for f in flds
    )
    lines = [f"def __init__(self, {params}):", "    _self_dict = self.__dict__"]
    lines += [f"    _self_dict[{f.name!r}] = {f.name}" for f in flds]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {f"_dflt_{f.name}": f.default for f in flds}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in flds}
    return init


def install_wire_cache(cls: type, cache_attrs: tuple[str, ...]) -> None:
    """Wire mutation-invalidated cache slots into dataclass *cls*.

    Args:
        cls: a dataclass whose instances cache serialized bytes.
        cache_attrs: attribute names used as cache slots; they are created
            as class-level ``None`` defaults and reset to ``None`` whenever
            any declared field of *cls* is assigned after construction.
    """
    field_names = frozenset(f.name for f in fields(cls))

    def __setattr__(
        self,
        name: str,
        value: object,
        _fields: frozenset[str] = field_names,
        _caches: tuple[str, ...] = cache_attrs,
    ) -> None:
        # Caches live in the instance dict only once populated (the class
        # holds the None default), so invalidation is a conditional delete.
        d = self.__dict__
        d[name] = value
        if name in _fields:
            for attr in _caches:
                if attr in d:
                    del d[attr]

    cls.__init__ = _dict_init(cls)  # type: ignore[misc]
    cls.__setattr__ = __setattr__  # type: ignore[method-assign]
    for attr in cache_attrs:
        setattr(cls, attr, None)
