"""Checks of the ``graph`` workload's outputs, in a process of their own.

Usage: ``python3 hbbench/checker.py``, with requests on stdin.  It answers
each request with one line on stdout: ``ok``, or the first problem found.

The ``graph`` workload reports the peak RSS of its own process as the
program's.  Parsing a JSON export back and listing every reduction of every
vertex allocate about as much as ``export_json`` itself, so run in that
process the checks could set the peak.  Here they cannot.

A request is a header line, then a body:

- ``embed N SOURCE SINK NV NA NJSON NDOT``: NV vertex words, one a line; NA
  arcs ``TAIL HEAD LABEL POSITION PLACE``, one a line; then NJSON characters
  of the JSON export and NDOT characters of the DOT export;
- ``iso N1 N2 ISOMORPHIC NV1 NV2 NA1 NA2 FOUND``: the arcs ``TAIL HEAD LABEL``
  of A(N1) and then of A(N2), one a line, and when FOUND is 1 a line with
  the image of every vertex of A(N1).
"""

from __future__ import annotations

import sys

import checks
import oracles


def arcs(stream, count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        tail, head, label, *rest = stream.readline().split()
        out.append((int(tail), int(head), label, *map(int, rest)))
    return out


def embed(stream, n, source, sink, nv, na, njson, ndot) -> str | None:
    vertices = [stream.readline().rstrip("\n") for _ in range(nv)]
    placed = arcs(stream, na)
    text, dot = stream.read(njson), stream.read(ndot)
    plain = [arc[:4] for arc in placed]
    return (checks.graph(n, vertices, plain, source, sink)
            or checks.places(n, [arc[4] for arc in placed])
            or checks.json_export(n, text, vertices, plain)
            or checks.dot_export(n, dot))


def iso(stream, n1, n2, isomorphic, nv1, nv2, na1, na2, found) -> str | None:
    arcs1, arcs2 = arcs(stream, na1), arcs(stream, na2)
    mapping = [int(v) for v in stream.readline().split()] if found else None
    for n, nv, na in ((n1, nv1, na1), (n2, nv2, na2)):
        if (nv, na) != oracles.b_and_a(n):
            return f"A({n}) has {nv} vertices and {na} arcs, expected {oracles.b_and_a(n)}"
    if not isomorphic:
        return None if mapping is None else f"A({n1}) and A({n2}) reported isomorphic"
    if mapping is None:
        return f"no isomorphism found between A({n1}) and A({n2})"
    return checks.witness(mapping, nv2, arcs1, arcs2)


def main() -> int:
    requests = {"embed": embed, "iso": iso}
    while header := sys.stdin.readline():
        kind, *fields = header.split()
        try:
            problem = requests[kind](sys.stdin, *map(int, fields))
        except (ValueError, LookupError, TypeError) as exc:  # output too malformed to check
            problem = f"malformed output: {exc!r:.300}"
        print("ok" if problem is None else problem.replace("\n", " "), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
