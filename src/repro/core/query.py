"""A small declarative query language over ActorProf traces.

The paper's Section VI points at declarative approaches (citing DIVA) as
a way to interrogate profiles without bespoke scripts.  This module
implements a compact SQL-ish language evaluated over the logical and
physical traces::

    sends                                  → total message count
    sends where src == 0                   → PE0's sends
    sends where src == 0 group by dst      → (dst, count) pairs, desc
    bytes where kind == nonblock_send group by src top 5
    ops where src_node != dst_node         → inter-node operations

Grammar
-------
::

    query   := metric [ "where" cond ( "and" cond )* ]
                      [ "group" "by" field ] [ "top" N ]
    metric  := "sends" | "bytes" | "ops"
    cond    := field op value
    field   := "src" | "dst" | "size" | "kind" | "src_node" | "dst_node"
    op      := "==" | "!=" | "<" | "<=" | ">" | ">="
    value   := integer (possibly negative) | field | send-type name

Tokenization is total: every character of the query must belong to a
token (or be whitespace), and anything else — stray punctuation, a
typo'd operator — raises :class:`QueryError` naming the character and
its column instead of silently re-interpreting the rest of the query.

``sends`` counts messages/operations, ``bytes`` sums payload/buffer
bytes, ``ops`` is an alias of ``sends`` reading naturally for physical
traces.  ``kind`` only exists on physical traces and compares against
send-type *names* (``kind == local_send``); comparing it against
integers or other fields is rejected at parse time — sections store
``kind`` as a code into their ``send_types`` attr, so such comparisons
would depend on storage order, not on the trace.  ``top N`` only
ranks ``group by`` output; without a ``group by`` it is meaningless and
is normalized away, so ``sends top 5`` and ``sends`` share one
canonical spelling (and one cache key).

There is one evaluator: the columnar
:class:`~repro.core.store.frame.Frame` over an archive
:class:`~repro.core.store.archive.Section`.  Archive sections are read
lazily — untouched columns (and sections) are never read from disk,
footer chunk stats prune row groups that cannot match the conditions,
and un-predicated aggregates are answered from footer sums with zero
payload decode::

    with Archive("run.aptrc") as a:
        query_trace(a.section("logical"), "sends where src == 0 group by dst")

In-memory :class:`LogicalTrace`/:class:`PhysicalTrace` objects are
wrapped in a stat-less in-memory section
(:meth:`Section.from_columns`) and take the same full-decode path.
Node fields (``src_node``/``dst_node``) need the machine layout;
sections that do not carry one (e.g. from a bare
``PhysicalTrace(n_pes)``) raise a clear :class:`QueryError`.

Pass ``pushdown=False`` to force the full-decode path (identical
results; used by the differential tests and benchmarks).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.store.archive import Archive, Section
from repro.core.store.frame import Frame, group_sum

_METRICS = ("sends", "bytes", "ops")
_FIELDS = ("src", "dst", "size", "kind", "src_node", "dst_node")
_NODE_FIELDS = ("src_node", "dst_node")
_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_TOKEN_RE = re.compile(
    r"\s+"                          # whitespace (skipped)
    r"|==|!=|<=|>=|<|>"             # comparison operators
    r"|[A-Za-z_][A-Za-z_0-9]*"      # keywords, fields, send-type names
    r"|-?\d+"                       # integer literals, negative included
)
_INT_RE = re.compile(r"-?\d+")


class QueryError(ValueError):
    """Raised for syntax or semantic errors in a trace query."""


def _tokenize(text: str) -> list[str]:
    """Split ``text`` into tokens, accounting for every character.

    Unlike ``findall`` — which silently skips anything it cannot match,
    so a stray ``@`` or ``$`` would quietly change the query's meaning —
    this scans with position tracking and rejects the first character
    that belongs to no token.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryError(
                f"unexpected character {text[pos]!r} at column {pos + 1} "
                f"of query {text!r}"
            )
        if not m.group().isspace():
            tokens.append(m.group())
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class FieldRef:
    """A field used on the right-hand side of a condition."""

    name: str


@dataclass(frozen=True)
class Condition:
    field: str
    op: str
    value: int | str | FieldRef


@dataclass(frozen=True)
class Query:
    metric: str
    conditions: tuple[Condition, ...] = ()
    group_by: str | None = None
    top: int | None = None

    def canonical(self) -> str:
        """Render the query back to its one canonical spelling.

        Every equivalent surface form — extra whitespace, metric/field
        case, a ``top`` with no ``group by`` —
        parses to the same :class:`Query` and therefore renders to the
        same string, which is what makes the text usable as a cache-key
        component (see :func:`normalize`).
        """
        parts = [self.metric]
        if self.conditions:
            rendered = []
            for c in self.conditions:
                value = (c.value.name if isinstance(c.value, FieldRef)
                         else str(c.value))
                rendered.append(f"{c.field} {c.op} {value}")
            parts.append("where " + " and ".join(rendered))
        if self.group_by is not None:
            parts.append(f"group by {self.group_by}")
        if self.top is not None:
            parts.append(f"top {self.top}")
        return " ".join(parts)


def parse(text: str) -> Query:
    """Parse a query string (see module grammar)."""
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty query")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def peek_kw() -> str | None:
        """Next token lowercased — keywords are case-insensitive."""
        tok = peek()
        return tok.lower() if tok is not None else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):  # "sends where" used to IndexError here
            raise QueryError(f"query ended unexpectedly: {text!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    metric = take().lower()
    if metric not in _METRICS:
        raise QueryError(f"unknown metric {metric!r}; want one of {_METRICS}")
    conditions: list[Condition] = []
    group_by: str | None = None
    top: int | None = None
    if peek_kw() == "where":
        take()
        while True:
            fld = take().lower()
            if fld not in _FIELDS:
                raise QueryError(f"unknown field {fld!r}; want one of {_FIELDS}")
            if peek() not in _OPS:
                raise QueryError(f"expected comparison after {fld!r}, got {peek()!r}")
            op = take()
            if peek() is None:
                raise QueryError("missing value in condition")
            raw = take()
            value: int | str | FieldRef
            if _INT_RE.fullmatch(raw):
                value = int(raw)
            elif raw.lower() in _FIELDS:
                value = FieldRef(raw.lower())  # field-to-field comparison
            else:
                value = raw
            if fld == "kind" or (isinstance(value, FieldRef)
                                 and value.name == "kind"):
                # kind is stored as a code into send_types, so only
                # name comparisons are independent of storage order
                if not isinstance(value, str):
                    raise QueryError(
                        "kind compares against send-type names "
                        "(e.g. kind == local_send), not integers or fields"
                    )
            elif isinstance(value, str):
                raise QueryError(f"field {fld!r} compares against integers "
                                 "or other fields")
            if fld == "kind" and op not in ("==", "!="):
                raise QueryError("kind supports only == and !=")
            conditions.append(Condition(fld, op, value))
            if peek_kw() == "and":
                take()
                continue
            break
    if peek_kw() == "group":
        take()
        if peek_kw() != "by":
            raise QueryError('expected "by" after "group"')
        take()
        fld = take().lower()
        if fld not in _FIELDS:
            raise QueryError(f"cannot group by {fld!r}")
        group_by = fld
    if peek_kw() == "top":
        take()
        raw = peek()
        if raw is None or not raw.isdigit():
            raise QueryError('"top" needs a positive integer')
        take()
        top = int(raw)
        if top < 1:
            raise QueryError('"top" needs a positive integer')
    if peek() is not None:
        raise QueryError(f"unexpected trailing token {peek()!r}")
    if group_by is None:
        top = None  # `top` without `group by` ranks nothing; drop it
    return Query(metric, tuple(conditions), group_by, top)


def normalize(text: str) -> str:
    """The canonical spelling of a query (parse, then re-render).

    The serve layer's artifact store keys cached query results on
    ``(archive fingerprint, section, normalize(query))`` so cosmetic
    variants — ``"sends  where src==0"`` vs ``"sends where src == 0"``,
    or a no-op ``top`` without ``group by`` — hit the same entry.
    Raises :class:`QueryError` for any query that would not evaluate.
    """
    return parse(text).canonical()


def _check_fields(q: Query, available: set[str]) -> None:
    """Reject references to fields this trace cannot answer, up front.

    Doing this before any column is decoded turns a missing column into
    a :class:`QueryError` naming the fields the section does have.
    """
    names = []
    for c in q.conditions:
        names.append(c.field)
        if isinstance(c.value, FieldRef):
            names.append(c.value.name)
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


def _archive_eval(section: Section, q: Query, pushdown: bool = True):
    """Vectorized evaluation over an archive section.

    Only the columns the query actually references are decoded: the
    ``count`` column always (it carries the aggregation weights),
    ``size`` additionally for the ``bytes`` metric, plus whatever the
    conditions and ``group by`` name.  Node fields are derived from
    ``src``/``dst`` and the section's ``pes_per_node`` attr.

    With ``pushdown`` (the default) the footer's per-chunk stats do two
    jobs first: row groups whose ``[min, max]`` intervals cannot satisfy
    the condition conjunction are skipped without touching their bytes,
    and un-predicated ungrouped aggregates are answered from the footer
    sums with no payload decode at all.  Archives written without stats
    take the full-decode path and return identical results.
    """
    send_types = [str(s) for s in section.attrs.get("send_types", ())]
    ppn = section.attrs.get("pes_per_node")
    available = set(section.columns) - {"count"}
    if ppn:
        available |= set(_NODE_FIELDS)
    _check_fields(q, available)

    def kind_code(name: str) -> int:
        # unknown names match no row (so `kind != typo` matches
        # everything)
        return send_types.index(name) if name in send_types else -1

    frame = Frame(section, use_stats=pushdown)
    for cond in q.conditions:
        rhs = cond.value
        if isinstance(rhs, FieldRef):
            continue  # field-to-field: no per-chunk interval to test
        if cond.field in _NODE_FIELDS:
            frame.prune(cond.field[:3], cond.op, int(rhs), divisor=int(ppn))
        elif cond.field == "kind":
            frame.prune("kind", cond.op, kind_code(rhs))
        else:
            frame.prune(cond.field, cond.op, int(rhs))

    if not q.conditions and q.group_by is None:
        total = (frame.weighted_total() if q.metric == "bytes"
                 else frame.total("count"))
        if total is not None:
            return total  # answered from footer sums: zero bytes decoded

    def field_values(name: str) -> np.ndarray:
        if name in _NODE_FIELDS:
            return frame.column(name[:3]) // int(ppn)
        return frame.column(name)

    mask: np.ndarray | None = None
    for cond in q.conditions:
        lhs = field_values(cond.field)
        rhs = cond.value
        if isinstance(rhs, FieldRef):
            rhs = field_values(rhs.name)
        elif cond.field == "kind":
            rhs = kind_code(rhs)
        hit = _OPS[cond.op](lhs, rhs)
        mask = hit if mask is None else (mask & hit)

    weights = frame.column("count")
    if q.metric == "bytes":
        weights = weights * frame.column("size")

    if q.group_by is None:
        if mask is not None:
            weights = weights * mask  # zero non-matches; no gather copy
        return int(weights.sum())
    uniq, sums = group_sum(field_values(q.group_by), weights, mask=mask)
    if q.group_by == "kind":
        labels = [send_types[k] if 0 <= k < len(send_types) else int(k)
                  for k in uniq.tolist()]
    else:
        labels = uniq.tolist()
    ranked = sorted(zip(labels, sums.tolist()),
                    key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[: q.top] if q.top is not None else ranked


def query_trace(trace: LogicalTrace | PhysicalTrace | Section, text: str,
                *, pushdown: bool = True):
    """Evaluate ``text`` over a trace (or an archive section).

    Returns an int for plain aggregations, or a list of
    ``(group_value, amount)`` pairs sorted by amount (descending) for
    ``group by`` queries.  ``pushdown`` (archive sections only) enables
    chunk-stat pruning and footer-sum fast paths; disabling it forces
    full column decoding — results are identical.

    The supported entry points are this function and
    :meth:`repro.api.Run.query`.
    """
    q = parse(text)
    if isinstance(trace, (LogicalTrace, PhysicalTrace)):
        name = "logical" if isinstance(trace, LogicalTrace) else "physical"
        trace = Section.from_columns(name, *trace.to_columns())
    if isinstance(trace, Section):
        return _archive_eval(trace, q, pushdown=pushdown)
    if isinstance(trace, Archive):
        raise QueryError(
            "pass a section, e.g. archive.section('logical') or "
            "archive.section('physical')"
        )
    raise QueryError(f"cannot query a {type(trace).__name__}")
