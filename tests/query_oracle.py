"""Reference oracle for the query language: a row walk over trace objects.

Production evaluates every query through the columnar
:class:`~repro.core.store.frame.Frame`.  This module keeps an
independent evaluator — a Python walk over the aggregated routes of an
in-memory :class:`LogicalTrace`/:class:`PhysicalTrace`, comparing
``kind`` by name rather than by stored code — so the differential tests
have something other than the frame to check the frame against.  It
shares only the parser with production.
"""

from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.query import _OPS, FieldRef, QueryError, parse

_NODE_FIELDS = ("src_node", "dst_node")


def _logical_rows(trace: LogicalTrace):
    spec = trace.spec
    for src, counts in enumerate(trace._counts):
        for (dst, size), n in counts.items():
            yield {
                "src": src,
                "dst": dst,
                "size": size,
                "src_node": spec.node_of(src),
                "dst_node": spec.node_of(dst),
            }, n, n * size


def _physical_rows(trace: PhysicalTrace):
    spec = trace.spec
    for (kind, nbytes, src, dst), n in trace._counts.items():
        row = {"src": src, "dst": dst, "size": nbytes, "kind": kind}
        if spec is not None:
            row["src_node"] = spec.node_of(src)
            row["dst_node"] = spec.node_of(dst)
        yield row, n, n * nbytes


def _check_fields(q, available: set[str]) -> None:
    names = [c.field for c in q.conditions]
    names += [c.value.name for c in q.conditions
              if isinstance(c.value, FieldRef)]
    if q.group_by is not None:
        names.append(q.group_by)
    for name in names:
        if name in available:
            continue
        if name in _NODE_FIELDS:
            raise QueryError(
                f"field {name!r} needs node info (pes_per_node), "
                "which this trace does not carry"
            )
        raise QueryError(
            f"field {name!r} does not exist on this trace "
            f"(have {sorted(available)})"
        )


def _matches(cond, row: dict) -> bool:
    rhs = cond.value
    if isinstance(rhs, FieldRef):
        rhs = row[rhs.name]
    return _OPS[cond.op](row[cond.field], rhs)


def oracle_query(trace: LogicalTrace | PhysicalTrace, text: str):
    """Evaluate ``text`` by walking ``trace``'s aggregated routes."""
    q = parse(text)
    if isinstance(trace, LogicalTrace):
        available = {"src", "dst", "size", "src_node", "dst_node"}
        rows = _logical_rows(trace)
    elif isinstance(trace, PhysicalTrace):
        available = {"src", "dst", "size", "kind"}
        if trace.spec is not None:
            available |= set(_NODE_FIELDS)
        rows = _physical_rows(trace)
    else:
        raise QueryError(f"cannot query a {type(trace).__name__}")
    _check_fields(q, available)
    groups: dict = {}
    total = 0
    for row, count, nbytes in rows:
        if not all(_matches(c, row) for c in q.conditions):
            continue
        amount = nbytes if q.metric == "bytes" else count
        if q.group_by is None:
            total += amount
        else:
            key = row[q.group_by]
            groups[key] = groups.get(key, 0) + amount
    if q.group_by is None:
        return total
    ranked = sorted(groups.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[: q.top] if q.top is not None else ranked
