"""Reference values and checks that do not come from weylkit itself.

Group orders and length generating functions come from the degrees of
the Weyl group: |W| = prod d_i and sum_w q^l(w) = prod [d_i]_q.  The
Coxeter number of a simple factor is its largest degree.  Balanced-ideal
counts for A2, A3, B3, C3 and A4 are the published values.  Bruhat
comparisons are re-derived from the subword property on the group's
multiplication table.  Counts marked PINNED were recorded from the
program at the revision that introduced the benchmark; they catch
regressions but are not independent.
"""

from __future__ import annotations

import math
import re


class CheckFailed(Exception):
    """An output of the program disagrees with a reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


_DEGREES_EXCEPTIONAL = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def factors(spec: str) -> list[tuple[str, int]]:
    """'B2xA1' -> [('B', 2), ('A', 1)]."""
    out = []
    for part in spec.split("x"):
        m = re.fullmatch(r"([A-G])([0-9]+)", part)
        require(m is not None, f"bad type {spec!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


def degrees(fam: str, n: int) -> tuple[int, ...]:
    if fam == "A":
        return tuple(range(2, n + 2))
    if fam in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if fam == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return _DEGREES_EXCEPTIONAL[(fam, n)]


def all_degrees(spec: str) -> list[int]:
    return [d for fam, n in factors(spec) for d in degrees(fam, n)]


def order(spec: str) -> int:
    return math.prod(all_degrees(spec))


def n_positive(spec: str) -> int:
    return sum(d - 1 for d in all_degrees(spec))


def coxeter_numbers(spec: str) -> list[int]:
    return [max(degrees(fam, n)) for fam, n in factors(spec)]


def short_all_small(spec: str, max_length: int) -> bool:
    """Every element of length <= L is small: h >= 3 (L=1), h >= 5 (L=2)."""
    return min(coxeter_numbers(spec)) >= (3 if max_length == 1 else 5)


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def length_histogram(spec: str) -> list[int]:
    """Coefficients of prod [d_i]_q: the number of elements of each length."""
    poly = [1]
    for d in all_degrees(spec):
        poly = _polymul(poly, [1] * d)
    return poly


def a_parabolic_order(theta_1based) -> int:
    """|W_Theta| for generators of type A: consecutive runs are A_k factors."""
    total, run, prev = 1, 0, None
    for i in sorted(theta_1based):
        run = run + 1 if prev is not None and i == prev + 1 else 1
        total *= run + 1
        prev = i
    return total


def palindromic(xs) -> bool:
    xs = list(xs)
    return xs == xs[::-1]


# Balanced-ideal counts.  BALANCED_COUNTS are the published values;
# PINNED entries were recorded from the program (see module docstring).
BALANCED_COUNTS = {"A2": 1, "A3": 10, "B3": 29, "C3": 29, "A4": 4608}
PINNED_BALANCED_COUNTS = {"A2xA2": 50, "B2xA2": 118, "B2xA1": 7}
# (type, 1-based invariance generators) -> count
PINNED_INVARIANT_COUNTS = {
    ("D4", (1,)): 562, ("D4", (3,)): 562, ("D4", (4,)): 562,
    ("B4", (1, 2)): 43, ("C4", (1, 2)): 43,
    ("A5", (1, 2, 3)): 5, ("A5", (2, 3, 4)): 9, ("A5", (3, 4, 5)): 5,
    ("A6", (1, 2, 3, 4, 5)): 0, ("A6", (2, 3, 4, 5, 6)): 0,
    ("B3", (1,)): 6,
}
# Middle Betti numbers b_2k of the two S_6 domains (j = 1), from the
# Mahonian numbers: 2 M_6(7) and 2 sum_{v>3} M_5(7 - (6 - v)).
DISTINCT_J1 = (202, 114)


# ---------------------------------------------------------------------------
# Group-table helpers: only rmult, inverse, length and the BFS words are read.

def w0_left_table(g) -> list[int]:
    """w0 * x for every x, as (x^-1 w0)^-1 along a reduced word of w0."""
    word = g.bfs_word(g.w0)
    out = []
    for x in range(g.order):
        cur = g.inverse[x]
        for i in word:
            cur = g.rmult[cur][i]
        out.append(g.inverse[cur])
    return out


def subgroup_order(g, theta) -> int:
    """Size of the closure of the identity under right multiplication."""
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for i in theta:
            y = g.rmult[x][i]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_balanced_ideal(g, w0x: list[int], mask: int, theta) -> None:
    """|I| = |W|/2, I = w0 (W \\ I), and I is a union of cosets x W_Theta."""
    require(2 * mask.bit_count() == g.order, "balanced ideal is not |W|/2")
    full = (1 << g.order) - 1
    perp = 0
    for x in bits(full ^ mask):
        perp |= 1 << w0x[x]
    require(perp == mask, "ideal differs from its orthogonal w0(W \\ I)")
    for x in bits(mask):
        for i in theta:
            require(mask >> g.rmult[x][i] & 1, "ideal is not right-invariant")


def splitting_holds(g, mask: int, perp: int, theta) -> bool:
    """#W^P of length k = r_k(I) + r_{n-k}(I-perp), counted from the table."""
    reps = [x for x in range(g.order)
            if all(g.length[g.rmult[x][i]] > g.length[x] for i in theta)]
    n = max(g.length[x] for x in reps)
    full = [0] * (n + 1)
    r_i = [0] * (n + 1)
    r_p = [0] * (n + 1)
    for x in reps:
        full[g.length[x]] += 1
        if mask >> x & 1:
            r_i[g.length[x]] += 1
        if perp >> x & 1:
            r_p[g.length[x]] += 1
    return all(full[k] == r_i[k] + r_p[n - k] for k in range(n + 1))


def subword_closure(g, word) -> set[int]:
    """All products of subwords of `word`: the principal ideal of its value."""
    reach = {0}
    for i in word:
        reach |= {g.rmult[x][i] for x in reach}
    return reach
