"""Serialization: nested dataclasses <-> plain dicts / JSON, decoded strictly.

Experiments are parameterized by nested dataclasses (`CoexistenceConfig`
holding a `Calibration` and a `BicordConfig` holding detector/allocator/
signaling sections) and return result dataclasses; scenario and campaign
specs are dataclass trees too.  Every one of them round-trips through JSON
without a hand-written (de)serializer: `to_dict` renders, and `from_dict`
is the one decoder for configs, specs, fault plans, campaign specs and
cached results.

Decoding is *strict*: unknown keys and ill-typed values raise
:class:`SpecError` carrying the exact path of the field
(``zigbee[1].traffic.n_packets``) — a typo or a quoted number in an input
file must never fall back to a default or fail later, deep in a run.  The
one conversion is an ``int`` in a ``float`` field, which becomes a float,
so ``burst_interval=1`` and ``burst_interval=1.0`` are the same config.

The same machinery powers the sweep cache (:mod:`repro.experiments.sweep`):
`canonical_dumps` renders any supported object to a byte-stable JSON string
(sorted keys, no whitespace) and `stable_hash` turns that into a content
address, so equal configs always map to the same cache entry across
processes and interpreter runs.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import hashlib
import json
from typing import Any, Dict, Tuple, Type, TypeVar, Union, get_args, get_origin, get_type_hints

T = TypeVar("T")


def to_dict(obj: Any) -> Any:
    """Recursively convert dataclasses to plain dicts (JSON-ready)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_dict(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {key: to_dict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_dict(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if type(obj).__module__ == "numpy":
        # numpy scalars (and small arrays) leak into results via np.mean etc.
        if getattr(obj, "ndim", None) == 0:
            return to_dict(obj.item())
        if callable(getattr(obj, "tolist", None)):
            return to_dict(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


class SpecError(ValueError):
    """Input that failed to decode or validate; ``path`` pinpoints the field."""

    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        self.message = message
        super().__init__(f"{self.path}: {message}")


def from_dict(cls: Type[T], data: Any) -> T:
    """Build a dataclass of type ``cls`` from a plain dict, strictly.

    Nested dataclass fields are decoded recursively; missing keys fall back
    to the dataclass defaults; unknown keys, missing keys of fields without
    a default and ill-typed values raise :class:`SpecError` with the
    offending field's path.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    return decode(cls, data)


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
    """Field name -> resolved annotation, and the fields without a default."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = tuple(
        field.name for field in fields
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )
    return {field.name: hints[field.name] for field in fields}, required


def decode(target: Any, value: Any, path: str = "") -> Any:
    """Decode plain data ``value`` to type ``target`` or raise a SpecError.

    ``target`` is a field annotation of the shapes configs, results and
    specs use: ``bool``/``int``/``float``/``str``, ``Any``, ``Optional[X]``
    and ``Union`` (the first arm that fits), fixed and variadic ``Tuple``,
    ``List[X]``, ``Sequence[X]`` (decoded as a tuple),
    ``Dict``/``Mapping[str, X]`` and dataclasses (an instance of the
    dataclass passes as is).  An ``int`` decodes to a ``float`` field as a
    float, so ``1`` and ``1.0`` yield equal configs and equal cache keys
    (``Union[int, float]`` keeps it an int); no other conversion is made.
    """
    if target is Any:
        return value
    if dataclasses.is_dataclass(target):
        if isinstance(value, target):
            return value
        if not isinstance(value, dict):
            raise SpecError(
                path,
                f"expected a table/object for {target.__name__}, got {type(value).__name__}",
            )
        hints, required = _fields(target)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise SpecError(
                f"{path}.{unknown[0]}" if path else unknown[0],
                f"unknown key(s) {unknown} for {target.__name__} (valid: {sorted(hints)})",
            )
        missing = [name for name in required if name not in value]
        if missing:
            raise SpecError(
                f"{path}.{missing[0]}" if path else missing[0],
                f"missing key(s) {missing} for {target.__name__}",
            )
        return target(**{
            name: decode(hints[name], item, f"{path}.{name}" if path else name)
            for name, item in value.items()
        })
    origin = get_origin(target)
    args = get_args(target)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        # Arms in order; the last one's error is the one reported.
        *first, last = [arm for arm in args if arm is not type(None)]
        for arm in first:
            try:
                return decode(arm, value, path)
            except SpecError:
                pass
        return decode(last, value, path)
    if origin in (tuple, list, collections.abc.Sequence):
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {type(value).__name__}")
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            if len(value) != len(args):
                raise SpecError(path, f"expected exactly {len(args)} values, got {len(value)}")
            return tuple(
                decode(arg, item, f"{path}[{i}]")
                for i, (arg, item) in enumerate(zip(args, value))
            )
        items = [decode(args[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin in (dict, collections.abc.Mapping):
        if not isinstance(value, dict):
            raise SpecError(path, f"expected a table/object, got {type(value).__name__}")
        return {
            decode(args[0], key, path): decode(args[1], item, f"{path}.{key}" if path else str(key))
            for key, item in value.items()
        }
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(path, f"expected a number, got {type(value).__name__}")
        return float(value)
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an integer, got {type(value).__name__}")
        return value
    if target is bool:
        if not isinstance(value, bool):
            raise SpecError(path, f"expected a boolean, got {type(value).__name__}")
        return value
    if target is str:
        if not isinstance(value, str):
            raise SpecError(path, f"expected a string, got {type(value).__name__}")
        return value
    raise SpecError(path, f"unsupported field type {target!r}")


def dumps(obj: Any, **kwargs: Any) -> str:
    """Serialize a (nested) dataclass to a JSON string."""
    kwargs.setdefault("indent", 2)
    kwargs.setdefault("sort_keys", True)
    return json.dumps(to_dict(obj), **kwargs)


def loads(cls: Type[T], text: str) -> T:
    """Deserialize a JSON string into a dataclass of type ``cls``."""
    return from_dict(cls, json.loads(text))


def canonical_dumps(obj: Any) -> str:
    """Byte-stable JSON rendering: sorted keys, no whitespace.

    Two structurally-equal objects (dataclass instances, dicts, lists, ...)
    always render to the identical string, which makes the output safe to
    hash and to compare across processes.
    """
    return json.dumps(to_dict(obj), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any, length: int = 64) -> str:
    """Content address of ``obj``: SHA-256 over its canonical JSON form."""
    digest = hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
    return digest[:length]
