"""Graph and report serialization: graph6, edge-list text, JSON/CSV reports.

graph6 follows the public format: a size byte n+63 for n <= 62, or '~' and
n in three 6-bit bytes for 63 <= n <= 64, then the upper triangle of the
adjacency matrix in column-major order packed into 6-bit groups, each group
offset by 63 into the printable range.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from fractions import Fraction
from typing import Any

from . import __version__, kernels
from .graph import MAX_VERTICES, Graph, GraphError, _Infinity, build_graph

GRAPH6_PREFIX = ">>graph6<<"
SCHEMA_VERSION = "1"

SURVEY_CSV_COLUMNS = (
    "graph6",
    "n",
    "m",
    "connected",
    "bipartite",
    "tree",
    "block",
    "cactus",
    "equilibrium",
    "diameter",
    "witness_deviation",
    "claim_violations",
)


class Graph6Error(ValueError):
    """Base for graph6 decode failures."""


class MalformedHeaderError(Graph6Error):
    pass


class TruncatedPayloadError(Graph6Error):
    pass


class TrailingGarbageError(Graph6Error):
    pass


class EdgeListParseError(ValueError):
    pass


def _payload_len(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (n in 1..64)."""
    s = text.strip()
    if s.startswith(GRAPH6_PREFIX):
        s = s[len(GRAPH6_PREFIX):]
    if not s:
        raise MalformedHeaderError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        size = [ord(ch) - 63 for ch in s[1:4]]
        if len(size) < 3 or not all(0 <= c < 64 for c in size):
            raise MalformedHeaderError(
                f"extended size header {s[:4]!r} needs three bytes after '~'")
        n = size[0] << 12 | size[1] << 6 | size[2]
        if not 63 <= n <= MAX_VERTICES:
            raise MalformedHeaderError(
                f"extended size header {s[:4]!r} is not for n in 63..{MAX_VERTICES}")
        body = s[4:]
    elif 63 <= head <= 125:
        n = head - 63
        body = s[1:]
    else:
        raise MalformedHeaderError(f"size byte {head} outside printable graph6 range")
    if n == 0:
        raise MalformedHeaderError("graph6 null graph has no vertices")
    need = _payload_len(n)
    if len(body) < need:
        raise TruncatedPayloadError(
            f"payload for n={n} needs {need} bytes, got {len(body)}"
        )
    if len(body) > need:
        raise TrailingGarbageError(
            f"{len(body) - need} unexpected bytes after the bit payload"
        )
    bits = 0
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise TruncatedPayloadError(f"payload byte {c} outside graph6 range")
        bits = (bits << 6) | (c - 63)
    pad = 6 * need - n * (n - 1) // 2
    if bits & ((1 << pad) - 1):
        raise TrailingGarbageError("nonzero padding bits in final payload byte")
    # triangle bits cannot spell a self-loop, a duplicate or an out-of-range edge
    return Graph(n, kernels.triangle_rows(n, bits >> pad))


def encode_graph6(g: Graph) -> str:
    """Bit-exact graph6 encoding; inverse of parse_graph6."""
    n = g.n
    if n < 63:
        head = chr(63 + n)
    else:  # '~' and n in three 6-bit bytes, high first
        head = "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    need = _payload_len(n)
    bits = kernels.triangle_bits(g.adj) << (6 * need - n * (n - 1) // 2)
    return head + "".join(
        chr(63 + (bits >> 6 * k & 63)) for k in range(need - 1, -1, -1))


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines "u v" (0-indexed vertices)."""
    lines = text.splitlines()
    if not lines:
        raise EdgeListParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError("line 1: expected header 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListParseError("line 1: non-integer header fields") from None
    if m < 0:
        raise EdgeListParseError("line 1: negative edge count")
    edges = []
    for lineno, raw in enumerate(lines[1:], 2):
        if len(edges) == m:
            if raw.strip():
                raise EdgeListParseError(f"line {lineno}: trailing garbage after {m} edges")
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: non-integer vertex id") from None
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListParseError(f"expected {m} edge lines, found {len(edges)}")
    line = 1  # build_graph checks n, then edge k (on line k + 2) in order

    def numbered():
        nonlocal line
        for line, e in enumerate(edges, 2):
            yield e

    try:
        return build_graph(n, numbered())
    except GraphError as err:
        raise EdgeListParseError(f"line {line}: {err}") from err


def _json_default(obj):
    """json.dumps hook for the exact values a payload may hold."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, _Infinity):
        return "INF"
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def write_report(payload: dict[str, Any], fmt: str) -> bytes:
    """Serialize a report deterministically; fmt is "json" or "csv".  A JSON
    report opens with schema_version and tool_version, then the payload's
    fields in order."""
    if fmt == "json":
        body = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **payload}
        return (json.dumps(body, indent=2, default=_json_default) + "\n").encode()
    if fmt == "csv":
        records = payload.get("records")
        if records is None:
            raise ValueError("csv output needs a payload with 'records'")
        buf = _stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SURVEY_CSV_COLUMNS)
        for rec in records:
            writer.writerow([rec[col] for col in SURVEY_CSV_COLUMNS])
        return buf.getvalue().encode()
    raise ValueError(f"unsupported report format {fmt!r}")
