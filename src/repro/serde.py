"""Durable-state toolkit: versioned, JSON-safe ``to_state``/``from_state``.

Every stateful component in this repository — sketches, datastructures,
policies, streaming operators, the ``Monitor`` facade — exposes the same
serialization contract (the ``toJson``/``fromJson`` shape Histogrammar
uses for its mergeable aggregates):

- ``to_state() -> dict`` returns a plain-data snapshot: only ``dict`` /
  ``list`` / ``str`` / native ``int`` / ``float`` / ``bool`` / ``None``
  values, so ``json.dumps`` with the stdlib encoder always succeeds and
  the dump round-trips through ``json.loads`` bit-exactly (Python floats
  serialise shortest-round-trip).
- ``from_state(state)`` rebuilds an instance whose future behaviour is
  indistinguishable from the original's — the property the
  checkpoint/resume machinery relies on for bit-identical resumption.

Each state dict carries a ``kind`` tag and an integer ``version``.
Loaders accept every version up to their current one and raise
:class:`StateError` with an actionable message for anything newer or
unrecognised, so a state produced by a future release fails loudly
instead of deserialising garbage.
"""

from __future__ import annotations

import json
import random
import warnings
from collections.abc import Mapping
from types import GeneratorType
from typing import Any, Callable, Dict, Iterable, List, Sequence

import numpy as np

#: JSON types a state dict may contain (checked by tests, produced by
#: :func:`as_native`).
NATIVE_TYPES = (dict, list, str, int, float, bool, type(None))


class StateError(ValueError):
    """A state dict cannot be deserialised (wrong kind/version/shape)."""


class StateCompatWarning(UserWarning):
    """A state dict carries fields this build does not know.

    Emitted (not raised) when a loader meets extra fields on a *known*
    version: a newer minor release may annotate states with additional
    fields, and ignoring them loses nothing the current build could use.
    Unknown *versions* still raise :class:`StateError` — a version bump
    signals a layout change that cannot be read safely.
    """


#: Exact builtin scalar types :func:`as_native` returns unchanged.
_SCALARS = frozenset((float, int, str, bool, type(None)))


def as_native(obj: Any) -> Any:
    """Recursively coerce numpy scalars/arrays to native Python types.

    Applied to every ``to_state``/``to_dict`` output so ``json.dumps``
    with the stdlib encoder never raises on leaked ``np.int64`` counts or
    ``np.float64`` values (``np.float64`` *is* a float subclass and would
    serialise, but the contract is strict native types throughout).
    """
    kind = type(obj)
    if kind is dict:
        return {key: as_native(value) for key, value in obj.items()}
    if kind is list or kind is tuple:
        return [as_native(item) for item in obj]
    if kind in _SCALARS:
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Mapping):
        return {key: as_native(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_native(item) for item in obj]
    return obj


# ----------------------------------------------------------------------
# Streamed encoding of large states
# ----------------------------------------------------------------------
#: ``json.dumps(obj, separators=(",", ":"))``, one C-encoder call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _has_rows(obj: Any) -> bool:
    return type(obj) is dict and any(
        type(value) is GeneratorType for value in obj.values()
    )


def resolve(state: Any) -> Any:
    """Build a *lazy* state: a state dict some of whose lists are still
    generators of rows (rows may be lazy states themselves)."""
    if type(state) is GeneratorType:
        return [resolve(row) for row in state]
    if _has_rows(state):
        return {key: resolve(value) for key, value in state.items()}
    return state


def write_json(state: Any, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(resolve(state), separators=(",", ":"))``
    through ``write``, building, encoding (one C-encoder call) and
    dropping one row at a time (``json.dump`` would run the pure-Python
    encoder over the whole tree)."""
    if type(state) is GeneratorType:
        write("[")
        for position, row in enumerate(state):
            if position:
                write(",")
            write_json(row, write)
        write("]")
    elif _has_rows(state):
        write("{")
        for position, (key, value) in enumerate(state.items()):
            if position:
                write(",")
            write(_encode(key) + ":")
            write_json(value, write)
        write("}")
    else:
        write(_encode(state))


def header(kind: str, version: int) -> Dict[str, Any]:
    """The common ``{"kind", "version"}`` prefix of every state dict."""
    return {"kind": kind, "version": version}


def check_state(state: Any, kind: str, version: int, context: str) -> Mapping:
    """Validate a state dict's shape, kind tag and version.

    Raises :class:`StateError` with an actionable message when ``state``
    is not a mapping, tagged with a different ``kind``, or carries a
    version this build does not know (newer release / corrupted dump).
    Returns ``state`` so loaders can chain on it.
    """
    if not isinstance(state, Mapping):
        raise StateError(
            f"{context}: expected a state mapping with kind={kind!r}, got "
            f"{type(state).__name__}; pass the dict produced by to_state() "
            "(after json.loads if it was serialised)"
        )
    got_kind = state.get("kind")
    if got_kind != kind:
        raise StateError(
            f"{context}: state kind mismatch: expected {kind!r}, got "
            f"{got_kind!r}; this state was produced by a different component"
        )
    got_version = state.get("version")
    if not isinstance(got_version, int) or isinstance(got_version, bool):
        raise StateError(
            f"{context}: state has no integer 'version' field (got "
            f"{got_version!r}); the dump is corrupted or not a "
            "to_state() output"
        )
    if got_version < 1 or got_version > version:
        raise StateError(
            f"{context}: unknown state version {got_version} for kind "
            f"{kind!r}; this build reads versions 1..{version} — the state "
            "was written by a newer release (upgrade this installation) or "
            "is corrupted"
        )
    return state


def warn_unknown_fields(
    state: Mapping, fields: Sequence[str], context: str
) -> List[str]:
    """Warn about (and report) state fields this build does not know.

    The forward-compat half of the loader contract: a state written by a
    newer *minor* release may carry extra fields; loaders that call this
    ignore them loudly (one :class:`StateCompatWarning`) instead of
    failing.  The ``kind``/``version`` header keys are always known.
    Returns the unknown field names, sorted.
    """
    unknown = sorted(set(state) - set(fields) - {"kind", "version"})
    if unknown:
        warnings.warn(
            f"{context}: ignoring unknown field(s) {unknown} (written by a "
            "newer release; upgrade this installation to use them)",
            StateCompatWarning,
            stacklevel=2,
        )
    return unknown


def require_fields(state: Mapping, fields: Sequence[str], context: str) -> None:
    """Fail with an actionable message when required state keys are absent."""
    missing = [name for name in fields if name not in state]
    if missing:
        raise StateError(
            f"{context}: state is missing required field(s) {missing} "
            f"(present: {sorted(k for k in state if k not in ('kind', 'version'))}); "
            "the dump is truncated or not a to_state() output"
        )


# ----------------------------------------------------------------------
# Float-keyed mappings (quantile dicts)
# ----------------------------------------------------------------------
def pairs(mapping: Mapping[float, Any]) -> List[List[Any]]:
    """A float-keyed mapping as ``[[key, value], ...]`` (JSON-safe).

    ``json.dumps`` would silently stringify float dict keys; the pair-list
    form round-trips keys exactly.
    """
    return [[as_native(key), as_native(value)] for key, value in mapping.items()]


def mapping_from_pairs(items: Iterable[Sequence[Any]]) -> Dict[float, Any]:
    """Rebuild a float-keyed mapping from its :func:`pairs` form."""
    return {float(key): value for key, value in items}


# ----------------------------------------------------------------------
# random.Random state
# ----------------------------------------------------------------------
def rng_to_state(rng: random.Random) -> List[Any]:
    """``random.Random`` internal state in JSON-safe form."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_from_state(data: Sequence[Any], context: str = "rng") -> random.Random:
    """Rebuild a ``random.Random`` positioned exactly where it was saved."""
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise StateError(
            f"{context}: malformed RNG state (expected a "
            "[version, internal, gauss_next] triple)"
        )
    rng = random.Random()
    try:
        rng.setstate((data[0], tuple(data[1]), data[2]))
    except (TypeError, ValueError) as exc:
        raise StateError(f"{context}: cannot restore RNG state: {exc}") from None
    return rng


def float_list(values: Iterable[Any]) -> List[float]:
    """A sequence of numbers as a list of native floats."""
    return [float(v) for v in values]
