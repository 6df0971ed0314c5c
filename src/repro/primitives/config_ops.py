"""Configuration-state primitives (Appendix A.8): ``bind_config``,
``delete_config``, ``write_config``.

Each refuses when the field it writes or deletes is *read by later code*:
exposed (:func:`~repro.analysis.effects.exposed_reads`) in anything that may
run after the write in the procedure — the statements after it, then, unless
one of those writes the field, each enclosing loop's next iteration and the
code after each enclosing statement.  A call counts with every field its
callee reads."""

from __future__ import annotations

from ..analysis.effects import exposed_reads
from ..ir import nodes as N
from ..ir.build import get_node, map_exprs, structurally_equal, walk
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


def _read_later(proc, owner, attr: str, idx: int, field) -> bool:
    """Is ``field`` exposed in code that may run once the statements of
    ``owner.attr`` before ``idx`` have run?"""
    root = proc._root
    while True:
        node = get_node(root, owner)
        following = getattr(node, attr)[idx:]
        if field in exposed_reads(following):
            return True
        if any(isinstance(s, N.WriteConfig) and (s.config, s.field_name) == field for s in following):
            return False
        if not owner:
            return False
        if isinstance(node, N.For) and field in exposed_reads(node.body):
            return True  # the loop's next iteration
        owner, (attr, idx) = owner[:-1], owner[-1]
        idx += 1


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

    write = N.WriteConfig(config, field, e)
    # replace the (first structurally identical) expression with a config read
    read = N.ReadConfig(config, field, config.field_type(field))
    replaced = [False]

    def repl(x):
        if not replaced[0] and structurally_equal(x, e):
            replaced[0] = True
            return read
        return x

    new_stmt = map_exprs(stmt._node(), repl)
    require(
        not any(
            isinstance(n, N.ReadConfig) and n is not read and (n.config, n.field_name) == (config, field)
            for n, _ in walk(new_stmt)
        )
        and not _read_later(proc, owner, attr, idx + 1, (config, field)),
        "bind_config: the configuration field is read by later code",
    )
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
    require(
        not _read_later(proc, owner, attr, idx + 1, (node.config, node.field_name)),
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
    require(
        not _read_later(proc, owner, attr, idx, (config, field)),
        "write_config: the configuration field is read by later code",
    )
    stmt = N.WriteConfig(config, field, rhs)
    session = EditSession(proc)
    session.insert_stmts((owner, attr, idx), [stmt])
    return session.finish()
