"""Reference values computed apart from the hbgraphs package.

Nothing here imports hbgraphs.  Every formula is derived from the
definitions, not from the library's algorithms:

- b(n) = fusc(n + 1) and c(n) = fusc(n), with fusc by Dijkstra's iterative
  algorithm, which reads the binary digits least significant first;
- a(n) counts pairs (expansion, digit 2 whose next higher digit is 0 or 1,
  or absent), because each such digit is exactly one reduction arc
  (x02y -> x10y, x12y -> x20y, 2y -> 10y); it is computed by a digit DP;
- v(n) = a(n) - b(n) + 1, the cyclomatic number of a connected graph.

Words are strings over "012", most significant digit first.
"""

from __future__ import annotations

import re

SINGLE = "single"
DOUBLE = "double"


def fusc(n: int) -> int:
    """Stern's diatomic sequence, Dijkstra's algorithm: fusc(0)=0, fusc(1)=1."""
    lo, hi = 1, 0
    for ch in reversed(format(n, "b")) if n else ():
        if ch == "1":
            hi += lo
        else:
            lo += hi
    return hi


def b(n: int) -> int:
    """Number of hyperbinary expansions of n."""
    return fusc(n + 1)


def b_and_a(n: int) -> tuple[int, int]:
    """(b(n), a(n)) by one digit DP over the expansions of n.

    An expansion of m > 0 has a lowest digit d of the parity of m, and the
    rest is an expansion of r = (m - d) / 2.  For each m the DP keeps
    S(m) = (E, P0, P1): its number of expansions, and its number of marked
    digits when the digit below it is not 2 (P0) or is 2 (P1).  A 2 below
    marks itself when the lowest digit of m is 0 or 1, or when m is empty,
    so S(0) = (1, 0, 1) and

    - S(2r + 1) = (E, P0, P0 + E) of S(r)               (d = 1),
    - S(2r) = that of S(r) plus (E, P1, P1) of S(r - 1)  (d = 0 and d = 2).

    Reading n from its top digit, only m = n >> k and m - 1 occur, so two
    states suffice.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cur, below = (1, 0, 1), None  # S(q) and S(q - 1) for q = 0 (no S(-1))
    for bit in format(n, "b") if n else ():
        e, p0, _ = cur
        if below is None:
            even, odd_below = (e, p0, p0 + e), None
        else:
            e2, p2, q2 = below
            even, odd_below = (e + e2, p0 + q2, p0 + e + q2), (e2, p2, p2 + e2)
        cur, below = ((e, p0, p0 + e), even) if bit == "1" else (even, odd_below)
    return cur[0], cur[1]


_AT_LEAST_ONE = str.maketrans("2", "1")
_IS_TWO = str.maketrans("12", "01")


def value(w: str) -> int:
    """Base-2 positional value of a word over "012": each digit d is [d >= 1] + [d == 2]."""
    if not w:
        return 0
    return int(w.translate(_AT_LEAST_ONE), 2) + int(w.translate(_IS_TWO), 2)


def binary_word(n: int) -> str:
    return format(n, "b") if n else ""


def minimal_word(n: int) -> str:
    """The expansion of n without 0 digits: lowest digit 2 if n is even, else 1."""
    digits = []
    while n:
        d = 2 - (n & 1)
        digits.append("12"[d - 1])
        n = (n - d) >> 1
    return "".join(reversed(digits))


def block_count(minimal: str) -> int:
    """Number of blocks 1^t 2 and 2^t in a minimal expansion (trailing 1s dropped)."""
    return len(re.findall(r"1+2|2+", minimal.rstrip("1")))


def reductions(w: str) -> list[tuple[str, str, int]]:
    """Every single-step reduction of w, as (head, label, position)."""
    out = []
    if w[:1] == "2":
        out.append(("10" + w[1:], SINGLE, 0))
    for i in range(len(w) - 1):
        pair = w[i : i + 2]
        if pair == "02":
            out.append((w[:i] + "10" + w[i + 2 :], SINGLE, i))
        elif pair == "12":
            out.append((w[:i] + "20" + w[i + 2 :], DOUBLE, i))
    return out


def expansions(n: int) -> list[str]:
    """All hyperbinary expansions of n, by choice of the lowest digit."""
    if n == 0:
        return [""]
    out = []
    for d in (1,) if n & 1 else (0, 2):
        if d <= n:
            out.extend(u + str(d) for u in expansions((n - d) >> 1))
    return out


def labeled_arcs(n: int) -> set[tuple[str, str, str]]:
    """The arcs of A(n) as (tail word, head word, label)."""
    return {(w, head, label) for w in expansions(n) for head, label, _ in reductions(w)}
