"""Cartan types and root systems.

Everything downstream works over exact integer coordinates:

* roots are integer vectors in the simple-root basis, so the simple
  reflection s_i changes only coordinate i and the Cartan matrix drives
  the whole computation;
* weights are integer vectors in the fundamental-weight basis (the value
  of the weight on each simple coroot), see module bbw.

A type is a product of simple factors like ``A2`` or ``B2xA1``.  All per
factor data (Cartan matrix blocks, roots, Coxeter numbers) is assembled
block-diagonally, so the Weyl group of a product is the direct product.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, prod
import re

from .errors import InvalidInputError, Record, clip, require

# ---------------------------------------------------------------------------
# Cartan types

_FACTOR_RE = re.compile(r"([A-Ga-g])([0-9]+)")

# valid ranks per family; D needs rank >= 2 to have a diagram at all
_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 1,
    "C": lambda n: n >= 1,
    "D": lambda n: n >= 2,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# (|W|, |Sigma^+|) of one factor of rank n, from the classical formulas;
# budgets are checked with these before any root or table is built
_COUNTS = {
    "A": lambda n: (factorial(n + 1), n * (n + 1) // 2),
    "B": lambda n: (2**n * factorial(n), n * n),
    "C": lambda n: (2**n * factorial(n), n * n),
    "D": lambda n: (2 ** (n - 1) * factorial(n), n * (n - 1)),
    "E": lambda n: {6: (51840, 36), 7: (2903040, 63), 8: (696729600, 120)}[n],
    "F": lambda n: (1152, 24),
    "G": lambda n: (12, 6),
}


class CartanType(Record):
    """An ordered product of (family, rank) factors; a value, usable as a
    dict key."""

    def __init__(self, factors: tuple[tuple[str, int], ...]) -> None:
        if not factors:
            raise InvalidInputError("empty Cartan type")
        for fam, rank in factors:
            if fam not in _RANK_OK:
                raise InvalidInputError(f"unknown family {fam!r}")
            if not _RANK_OK[fam](rank):
                raise InvalidInputError(
                    f"invalid rank {clip(rank)} for family {fam}")
        self.factors = factors

    def __hash__(self) -> int:
        return hash(self.factors)

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def weyl_order(self) -> int:
        """|W|, from the classical per-family order formulas."""
        return prod(_COUNTS[fam](n)[0] for fam, n in self.factors)

    def weyl_order_at_most(self, cap: int) -> int | None:
        """|W| if at most cap, else None; as |W| >= 2^rank, a rank of
        cap.bit_length() or more gives None with no factorial taken."""
        if self.rank >= cap.bit_length():
            return None
        order = self.weyl_order()
        return order if order <= cap else None

    @property
    def n_positive(self) -> int:
        """|Sigma^+| = l(w0), from the per-family closed forms."""
        return sum(_COUNTS[fam](n)[1] for fam, n in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)


def parse_type(spec: str) -> CartanType:
    """Parse a product expression like ``"A3"``, ``"B2"``, ``"a1xA1"``.

    Case-insensitive; factors joined by ``x``.
    """
    text = spec.strip()
    if not text:
        raise InvalidInputError("empty type string")
    factors = []
    for part in re.split(r"[xX]", text):
        m = _FACTOR_RE.fullmatch(part.strip())
        if m is None:
            raise InvalidInputError(f"malformed type factor {clip(repr(part))} "
                                    f"in {clip(repr(spec))}")
        try:
            rank = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidInputError(f"rank of {m.group(1)} factor too large")
        factors.append((m.group(1).upper(), rank))
    return CartanType(tuple(factors))


# ---------------------------------------------------------------------------
# Cartan matrices

def _simple_cartan_matrix(fam: str, n: int) -> list[list[int]]:
    """Standard Cartan matrix, entries C[i][j] = <alpha_j, alpha_i^vee>.

    Convention: simple reflection action on a root coordinate vector v is
    v_i -> v_i - sum_j C[i][j] v_j.  For B the last simple root is short,
    for C it is long (the two are transposes of each other).
    """
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B" and n >= 2:
            # alpha_{n-1} short: <alpha_{n-2}, alpha_{n-1}^vee> = -2
            c[n - 1][n - 2] = -2
        if fam == "C" and n >= 2:
            c[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        if n >= 3:
            edge(n - 3, n - 1)
        # n == 2: no edges, the diagram is two isolated vertices (= A1xA1)
    elif fam == "E":
        # Bourbaki numbering: node 1 (index 1) hangs off node 3 (index 2)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif fam == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif fam == "G":
        edge(0, 1, -1, -3)
    return c


# ---------------------------------------------------------------------------
# Root systems

class RootSystem:
    """Positive roots and Cartan data for a (product) type.

    positive_roots holds integer coordinate vectors in the simple-root
    basis, the first ``rank`` entries being the simple roots themselves.
    components lists the connected Dynkin-diagram components (the true
    simple factors, which for D2 differ from the input factors).  The
    simple actions, the coroots and the Coxeter numbers are computed once
    per root system, on first use.  Equality is identity.
    """

    def __init__(self, cartan_type: CartanType,
                 cartan_matrix: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[tuple[int, ...], ...],
                 components: tuple[tuple[int, ...], ...]) -> None:
        self.cartan_type = cartan_type
        self.cartan_matrix = cartan_matrix
        self.positive_roots = positive_roots
        self.components = components

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    def reflect(self, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
        """Apply the simple reflection s_i to a root coordinate vector."""
        row = self.cartan_matrix[i]
        pairing = sum(row[j] * v[j] for j in range(len(v)))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    @cached_property
    def simple_actions(self) -> tuple[tuple[int, ...], ...]:
        """Entry j of row i is +-(k + 1) when s_i sends positive root j
        to +- positive root k."""
        root_index = {r: k for k, r in enumerate(self.positive_roots)}
        rows = []
        for i in range(self.rank):
            row = []
            for r in self.positive_roots:
                img = self.reflect(i, r)
                k = root_index.get(img)
                row.append(k + 1 if k is not None
                           else -(root_index[tuple(-c for c in img)] + 1))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def coroots(self) -> tuple[tuple[int, ...], ...]:
        """Positive coroots in simple-coroot coordinates.

        These are the positive roots of the dual system, whose Cartan
        matrix is the transpose; the count matches the root count.
        """
        coroots = _positive_roots([list(col) for col in
                                   zip(*self.cartan_matrix)])
        require(len(coroots) == self.n_positive,
                "coroot count differs from root count")
        return tuple(coroots)

    @cached_property
    def coxeter_numbers(self) -> tuple[int, ...]:
        """One Coxeter number per factor of the input type."""
        numbers, offset = [], 0
        for _, n in self.cartan_type.factors:
            numbers.append(component_coxeter_number(
                self, tuple(range(offset, offset + n))))
            offset += n
        return tuple(numbers)


def _dynkin_components(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Connected components of the Dynkin diagram, each sorted."""
    n = len(cartan)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j != i and not seen[j] and cartan[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def _positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Close the simple roots under simple reflections.

    Keeps exactly the vectors with all coordinates >= 0; the closure of
    the simple roots under W meets the positive cone in Sigma^+.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simple)
    queue = list(simple)
    while queue:
        v = queue.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * v[j] for j in range(n))
            w = list(v)
            w[i] -= pairing
            wt = tuple(w)
            if wt not in found and all(c >= 0 for c in wt):
                found.add(wt)
                queue.append(wt)
    # simple roots first, then by (height, coords): deterministic layout
    found.difference_update(simple)
    return simple + sorted(found, key=lambda v: (sum(v), v))


def build_root_system(t: CartanType) -> RootSystem:
    """Assemble the block-diagonal root system of a product type."""
    rank = t.rank
    cartan = [[0] * rank for _ in range(rank)]
    offset = 0
    for fam, n in t.factors:
        block = _simple_cartan_matrix(fam, n)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = block[i][j]
        offset += n

    roots = _positive_roots(cartan)
    require(len(roots) == t.n_positive,
            "positive-root closure differs from the closed-form count")
    return RootSystem(
        cartan_type=t,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=tuple(roots),
        components=tuple(_dynkin_components(cartan)),
    )


def positive_coroots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Positive coroots in simple-coroot coordinates (RootSystem.coroots)."""
    return rs.coroots


def component_coxeter_number(rs: RootSystem, component: tuple[int, ...]) -> int:
    """Coxeter number of one connected Dynkin component of rs (or one
    factor of its type): 1 + the height of its highest root, the largest
    coordinate sum among the positive roots supported on it (Kostant
    1959; Humphreys, Reflection Groups and Coxeter Groups, Ch. 3).  Only
    the positive roots are read; criterion 8 checks the rule
    independently, as 2N/rank.  D2, whose two nodes are not joined,
    gets 2.
    """
    outside = [j for j in range(rs.rank) if j not in component]
    return 1 + max(sum(r) for r in rs.positive_roots
                   if not any(r[j] for j in outside))
