"""Configuration-state primitives (Appendix A.8): ``bind_config``,
``delete_config``, ``write_config``."""

from __future__ import annotations

from ..errors import SchedulingError
from ..ir import nodes as N
from ..ir.build import get_node, map_exprs, walk
from ..ir.config import Config
from ..ir.edit import EditSession
from ._base import (
    require,
    scheduling_primitive,
    stmt_coords,
    to_expr,
    to_expr_cursor,
    to_gap_cursor,
    to_stmt_cursor,
)

__all__ = ["bind_config", "delete_config", "write_config"]


def _config_read_after(stmts, config: Config, field: str) -> bool:
    """Is ``config.field`` read (directly or via instruction calls) in ``stmts``?"""
    for s in stmts:
        for node, _ in walk(s):
            if isinstance(node, N.ReadConfig) and node.config is config and node.field_name == field:
                return True
            if isinstance(node, N.Call):
                callee = node.proc
                body = callee._root.body if hasattr(callee, "_root") else []
                if _config_read_after(body, config, field):
                    return True
    return False


@scheduling_primitive
def bind_config(proc, expr, config: Config, field: str):
    """Replace an expression with a read of ``config.field``, prefixed by a
    write of the expression into that field."""
    require(isinstance(config, Config), "bind_config: expected a Config object")
    require(config.has_field(field), f"bind_config: {config.name()} has no field {field!r}")
    c = to_expr_cursor(proc, expr)
    e = c._node()
    stmt = c.parent()
    owner, attr, idx = stmt_coords(stmt)

    owner_node = get_node(proc._root, owner)
    following = getattr(owner_node, attr)[idx + 1 :]
    require(
        not _config_read_after(following, config, field),
        "bind_config: the configuration field is read by later code",
    )

    write = N.WriteConfig(config, field, e)
    # replace the (first structurally identical) expression with a config read
    from ..ir.build import structurally_equal

    replaced = [False]

    def repl(x):
        if not replaced[0] and structurally_equal(x, e):
            replaced[0] = True
            return N.ReadConfig(config, field, getattr(e, "typ", None))
        return x

    new_stmt = map_exprs(stmt._node(), repl)
    session = EditSession(proc)
    session.replace((owner, attr, idx, idx + 1), [write, new_stmt], lambda off, rest: (1, rest))
    return session.finish()


@scheduling_primitive
def delete_config(proc, stmt):
    """Delete a configuration write whose value is never read afterwards."""
    c = to_stmt_cursor(proc, stmt)
    node = c._node()
    require(isinstance(node, N.WriteConfig), "delete_config: expected a configuration write")
    owner, attr, idx = stmt_coords(c)
    owner_node = get_node(proc._root, owner)
    following = getattr(owner_node, attr)[idx + 1 :]
    require(
        not _config_read_after(following, node.config, node.field_name),
        "delete_config: the configuration field is read by later code",
    )
    session = EditSession(proc)
    session.delete((owner, attr, idx, idx + 1))
    return session.finish()


@scheduling_primitive
def write_config(proc, gap, config: Config, field: str, rhs):
    """Insert a configuration write at ``gap``."""
    require(isinstance(config, Config), "write_config: expected a Config object")
    require(config.has_field(field), f"write_config: {config.name()} has no field {field!r}")
    gap = to_gap_cursor(proc, gap)
    owner, attr, idx = gap._owner_path, gap._attr, gap._idx
    rhs = to_expr(proc, rhs, owner + ((attr, idx),))
    owner_node = get_node(proc._root, owner)
    following = getattr(owner_node, attr)[idx:]
    require(
        not _config_read_after(following, config, field),
        "write_config: the configuration field is read by later code",
    )
    stmt = N.WriteConfig(config, field, rhs)
    session = EditSession(proc)
    session.insert_stmts((owner, attr, idx), [stmt])
    return session.finish()
