"""Argument (de)serialization for schedule traces.

A trace entry must capture the arguments a primitive was invoked with in a
JSON-able form that can later be *decoded against a structurally identical
procedure* and re-applied.  The encoding rules:

* plain scalars (``None``/bool/int/float/str) pass through,
* lists and tuples encode element-wise (tuples become lists — every primitive
  that takes a sequence accepts a list),
* cursors encode as their location descriptor (``{"$cursor": ...}``) taken in
  the frame of the procedure being transformed — the same descriptors
  :meth:`Procedure.forward` chains internally,
* IR expression nodes (including windows) encode as their surface syntax
  (``{"$expr": "A[0:n, j]"}``); primitives resolve strings in the scope of
  their target (``primitives._base.to_expr``), so decode simply returns the
  string,
* :class:`Memory` spaces and :class:`Config` records encode by name through
  their global registries,
* :class:`Procedure` arguments (instruction procedures handed to
  ``replace``/``replace_all``/``call_eqv``) encode by name through the named
  procedure registry below; machine instruction sets are indexed on demand and
  any procedure encoded in-process is auto-registered,
* anything else encodes as ``{"$opaque": repr(...)}`` — kept for inspection
  but refusing replay (see :func:`is_replayable`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.procedure import Procedure
from ..cursors.cursor import Cursor, InvalidCursor
from ..errors import ExoError
from ..ir import nodes as N
from ..ir.config import Config, config_by_name
from ..ir.memories import Memory, memory_by_name
from ..ir.printing import expr_str
from ..ir.syms import Sym
from .knobs import Knob

__all__ = [
    "ReplayError",
    "encode_arg",
    "decode_arg",
    "is_replayable",
    "register_proc",
    "named_proc",
]


class ReplayError(ExoError):
    """A serialized trace cannot be replayed (unknown primitive, opaque
    argument, or unresolvable reference).

    >>> from repro.api import Trace, ReplayError
    >>> try:
    ...     Trace.from_dict({"version": 99})
    ... except ReplayError:
    ...     print("refused")
    refused
    """


# ---------------------------------------------------------------------------
# Named procedure registry (instruction procedures referenced by traces)
# ---------------------------------------------------------------------------

_NAMED_PROCS: Dict[str, Procedure] = {}
_BUILTINS_INDEXED = False


def register_proc(p: Procedure) -> Procedure:
    """Register a procedure so traces can reference it by name."""
    _NAMED_PROCS[p.name()] = p
    return p


def _index_builtin_procs() -> None:
    """Index every machine instruction procedure shipped with the repo."""
    global _BUILTINS_INDEXED
    if _BUILTINS_INDEXED:
        return
    _BUILTINS_INDEXED = True
    from ..machines import AVX2, AVX512, GEMMINI

    for machine in (AVX2, AVX512):
        for iset in machine.instructions.values():
            for p in iset.all():
                _NAMED_PROCS.setdefault(p.name(), p)
    for p in GEMMINI.instructions.values():
        _NAMED_PROCS.setdefault(p.name(), p)


def named_proc(name: str) -> Procedure:
    """Look up a registered procedure by name (raising :class:`ReplayError`)."""
    _index_builtin_procs()
    try:
        return _NAMED_PROCS[name]
    except KeyError:
        raise ReplayError(
            f"trace references procedure {name!r} which is not registered; "
            f"register it with repro.api.register_proc before replaying"
        ) from None


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_arg(value, proc: Optional[Procedure] = None):
    """Encode one argument value into JSON-able form (see module docstring).

    ``proc`` is the procedure the invocation transforms; cursors are forwarded
    into its frame before their descriptor is taken.  With ``proc=None``
    (fingerprinting) cursors encode in their own frame.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_arg(v, proc) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_arg(v, proc) for k, v in value.items()}
    if isinstance(value, Knob):
        return {"$knob": {"name": value.name, "default": value.default}}
    if isinstance(value, InvalidCursor):
        return {"$cursor": None}
    if isinstance(value, Cursor):
        cur = value
        if proc is not None and cur._proc is not proc:
            try:
                cur = proc.forward(cur)
            except ExoError:
                return {"$cursor": None}
        desc = cur._descriptor()
        return {"$cursor": _encode_descriptor(desc)}
    if isinstance(value, Memory):
        return {"$memory": value.name}
    if isinstance(value, Config):
        return {"$config": value.name()}
    if isinstance(value, Procedure):
        register_proc(value)
        return {"$proc": value.name()}
    if isinstance(value, Sym):
        return {"$expr": value.name}
    if isinstance(value, N.Node):
        try:
            return {"$expr": expr_str(value)}
        except Exception:
            return {"$opaque": repr(value)}
    return {"$opaque": repr(value)}


def _encode_descriptor(desc):
    if desc is None:
        return None
    kind = desc[0]
    if kind == "node":
        return {"kind": "node", "path": [list(step) for step in desc[1]]}
    if kind == "block":
        _, owner, attr, lo, hi = desc
        return {"kind": "block", "owner": [list(s) for s in owner], "attr": attr, "lo": lo, "hi": hi}
    if kind == "gap":
        _, owner, attr, idx = desc
        return {"kind": "gap", "owner": [list(s) for s in owner], "attr": attr, "idx": idx}
    if kind == "arg":
        return {"kind": "arg", "idx": desc[1]}
    return None


def is_replayable(encoded) -> bool:
    """Whether an encoded argument tree contains no opaque values."""
    if isinstance(encoded, list):
        return all(is_replayable(v) for v in encoded)
    if isinstance(encoded, dict):
        if "$opaque" in encoded:
            return False
        if "$cursor" in encoded:
            return encoded["$cursor"] is not None
        return all(is_replayable(v) for v in encoded.values())
    return True


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_arg(encoded, proc: Procedure):
    """Decode an encoded argument against ``proc`` (the procedure the
    replayed primitive is about to transform)."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):
        return [decode_arg(v, proc) for v in encoded]
    if isinstance(encoded, dict):
        if "$cursor" in encoded:
            desc = encoded["$cursor"]
            if desc is None:
                raise ReplayError("trace entry references an invalidated cursor")
            return proc._cursor_from_descriptor(_decode_descriptor(desc))
        if "$expr" in encoded:
            return encoded["$expr"]  # primitives parse surface-syntax strings
        if "$memory" in encoded:
            return memory_by_name(encoded["$memory"])
        if "$config" in encoded:
            return config_by_name(encoded["$config"])
        if "$proc" in encoded:
            return named_proc(encoded["$proc"])
        if "$knob" in encoded:
            return Knob(encoded["$knob"]["name"], default=encoded["$knob"]["default"])
        if "$opaque" in encoded:
            raise ReplayError(f"trace entry has an opaque argument: {encoded['$opaque']}")
        return {k: decode_arg(v, proc) for k, v in encoded.items()}
    raise ReplayError(f"cannot decode trace argument {encoded!r}")


def _decode_descriptor(desc):
    kind = desc["kind"]
    if kind == "node":
        return ("node", tuple((a, i) for a, i in desc["path"]))
    if kind == "block":
        return ("block", tuple((a, i) for a, i in desc["owner"]), desc["attr"], desc["lo"], desc["hi"])
    if kind == "gap":
        return ("gap", tuple((a, i) for a, i in desc["owner"]), desc["attr"], desc["idx"])
    if kind == "arg":
        return ("arg", desc["idx"])
    raise ReplayError(f"unknown cursor descriptor kind {kind!r}")
