"""Symmetric-group combinatorics and three named families of ideals.

Permutations are 1-based tuples (x(1),...,x(n)) at the API boundary.
The correspondence with type-A Weyl elements sends the generator s_i
(0-based index i) to the transposition of positions i+1, i+2; right
multiplication swaps positions, so the table of one-line forms is
filled in one pass over the group's search tree.

Family constructors re-derive the structural claims about each ideal
(downward closed, balanced, invariance, generators, lengths) as runtime
checks.  The checks run unless verify=False is passed, also under
``python -O``; a failed check raises VerificationError.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from .bruhat import (BruhatOrder, Ideal, build_order, classify,
                     is_downward_closed, mask_of, minimal_generators,
                     principal_ideal)
from .cartan import CartanType
from .errors import InvalidInputError, checked_int, clip, require
from .parabolic import build_parabolic, is_right_invariant
from .weyl import WeylGroup, build_group

Permutation = tuple[int, ...]


def check_permutation(p: Permutation) -> int:
    n = len(p)
    entries = sorted(checked_int("permutation entry", v) for v in p)
    if n == 0 or entries != list(range(1, n + 1)):
        raise InvalidInputError(f"not a permutation of 1..{n}: {clip(p)}")
    return n


def perm_length(p: Permutation) -> int:
    """Number of inversions."""
    n = check_permutation(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def ascents(p: Permutation) -> list[int]:
    """1-based positions i with p(i) < p(i+1)."""
    return [i + 1 for i in range(len(p) - 1) if p[i] < p[i + 1]]


def rank_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat comparison via prefix order statistics.

    x <= y iff for every ascent position i of y the sorted prefixes
    satisfy sorted(x(1..i)) <= sorted(y(1..i)) elementwise.
    """
    n = check_permutation(x)
    if check_permutation(y) != n:
        raise InvalidInputError("permutations have different sizes")
    asc = set(ascents(y))
    sx: list[int] = []
    sy: list[int] = []
    for i in range(n - 1):
        insort(sx, x[i])
        insort(sy, y[i])
        if i + 1 in asc:
            if any(a > b for a, b in zip(sx, sy)):
                return False
    return True


# ---------------------------------------------------------------------------
# Weyl element <-> permutation

def symmetric_n(g: WeylGroup) -> int:
    """n with W isomorphic to S_n; requires a single A-type factor."""
    t = g.rs.cartan_type
    if len(t.factors) != 1 or t.factors[0][0] != "A":
        raise InvalidInputError(f"type {t} is not a single A factor")
    return g.rank + 1


def perm_table(g: WeylGroup) -> list[Permutation]:
    """One-line form of every element, indexed by element id."""
    n = symmetric_n(g)
    table: list[Permutation] = [()] * g.order
    table[0] = tuple(range(1, n + 1))
    for x in range(1, g.order):         # parents have smaller ids
        p = list(table[g.bfs_parent[x]])
        i = g.bfs_letter[x]
        p[i], p[i + 1] = p[i + 1], p[i]
        table[x] = tuple(p)
    return table


def perm_to_element(g: WeylGroup, p: Permutation) -> int:
    """Element id with the given one-line form (sort by adjacent swaps)."""
    n = check_permutation(p)
    if n != symmetric_n(g):
        raise InvalidInputError(f"size-{n} permutation for rank-{g.rank} group")
    q = list(p)
    swaps = []
    while True:
        i = next((i for i in range(n - 1) if q[i] > q[i + 1]), None)
        if i is None:
            break
        q[i], q[i + 1] = q[i + 1], q[i]
        swaps.append(i)
    x = 0
    for i in reversed(swaps):
        x = g.rmult[x][i]
    return x


def build_symmetric(n: int) -> tuple[WeylGroup, BruhatOrder]:
    """Group and order for S_n (type A_{n-1}); n >= 2."""
    if n < 2:
        raise InvalidInputError("need n >= 2")
    g = build_group(CartanType((("A", n - 1),)))
    return g, build_order(g)


# ---------------------------------------------------------------------------
# Lower-half families (any type)

def lower_half_ideal(o: BruhatOrder, verify: bool = True) -> Ideal:
    """All elements of length <= (l(w0)-1)/2; needs l(w0) odd."""
    g = o.g
    half, odd = divmod(g.n_positive, 2)
    if not odd:
        raise InvalidInputError(
            f"l(w0) = {g.n_positive} is even; use lower_half_with_selection")
    # lengths never decrease along the ids: the lower half is a prefix
    m = (1 << bisect_right(g.length, half)) - 1
    ideal = Ideal(g, m)
    if verify:
        require(is_downward_closed(o, m), "lower half not downward closed")
        require(classify(o, ideal).balanced, "lower half not balanced")
        require(2 * ideal.size == g.order, "lower half has wrong size")
    return ideal


def lower_half_with_selection(o: BruhatOrder, selection,
                              verify: bool = True) -> Ideal:
    """W_{<k} plus one chosen middle-level element per {x, w0 x} pair.

    l(w0) = 2k must be even; the selection consists of element ids of
    length k, exactly one from each pair.
    """
    g = o.g
    k, odd = divmod(g.n_positive, 2)
    if odd:
        raise InvalidInputError(
            f"l(w0) = {g.n_positive} is odd; use lower_half_ideal")
    selection = list(selection)
    for x in selection:
        g._check_id(x)
        if g.length[x] != k:
            raise InvalidInputError(
                f"selected element has length {g.length[x]}, middle is {k}")
    chosen = set(selection)
    for x in range(bisect_left(g.length, k), bisect_right(g.length, k)):
        if (x in chosen) == (g.w0_left(x) in chosen):
            raise InvalidInputError(
                "selection must contain exactly one of each middle pair")
    m = (1 << bisect_left(g.length, k)) - 1 | mask_of(chosen, g.order)
    ideal = Ideal(g, m)
    if verify:
        require(is_downward_closed(o, m), "selection ideal not downward closed")
        require(classify(o, ideal).balanced, "selection ideal not balanced")
        gens = set(minimal_generators(o, ideal))
        require(chosen <= gens, "selection not among minimal generators")
    return ideal


def middle_level_pairs(g: WeylGroup) -> list[tuple[int, int]]:
    """The {x, w0 x} pairs of the middle length level (l(w0) even),
    each as (smaller id, larger id), sorted; the level is one id range."""
    k, odd = divmod(g.n_positive, 2)
    if odd:
        raise InvalidInputError("no middle level: l(w0) is odd")
    return [(x, y) for x in range(bisect_left(g.length, k),
                                  bisect_right(g.length, k))
            if x < (y := g.w0_left(x))]


# ---------------------------------------------------------------------------
# Incidence family

def incidence_generator_perm(n: int, k: int) -> Permutation:
    """z_k: first entry k, last entry k+1, the rest decreasing between."""
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"need 1 <= k <= {n - 1}")
    rest = sorted(set(range(1, n + 1)) - {k, k + 1}, reverse=True)
    return (k, *rest, k + 1)


def incidence_subgroup_indices(n: int) -> tuple[int, ...]:
    """Generators of {w : w(1)=1, w(n)=n}: all but the outer two."""
    return tuple(range(1, n - 2))


def incidence_ideal(o: BruhatOrder, verify: bool = True) -> Ideal:
    """{x in S_n : x(1) < x(n)} with its structure theorem as checks."""
    g = o.g
    n = symmetric_n(g)
    table = perm_table(g)
    m = mask_of((x for x, p in enumerate(table) if p[0] < p[-1]), g.order)
    ideal = Ideal(g, m)
    if verify:
        require(is_downward_closed(o, m), "incidence set not downward closed")
        require(classify(o, ideal).balanced, "incidence ideal not balanced")
        p = build_parabolic(g, incidence_subgroup_indices(n))
        require(is_right_invariant(ideal, p),
                "incidence ideal not right-invariant")
        want = {perm_to_element(g, incidence_generator_perm(n, k))
                for k in range(1, n)}
        got = set(minimal_generators(o, ideal))
        require(got == want, "incidence generators differ from z_1..z_{n-1}")
        lz = (n - 1) * (n - 2) // 2
        require(all(g.length[x] == lz for x in got),
                "incidence generator of unexpected length")
    return ideal


# ---------------------------------------------------------------------------
# Principal family in S_2n

def principal_generator_perm(n: int) -> Permutation:
    """lambda: 2n..1 descending with n+1 removed, then n+1 at the end."""
    body = [v for v in range(2 * n, 0, -1) if v != n + 1]
    return (*body, n + 1)


def principal_2n_ideal(o: BruhatOrder, verify: bool = True) -> Ideal:
    """{w in S_2n : w(2n) > n}: the principal balanced ideal of lambda."""
    g = o.g
    size = symmetric_n(g)
    n, odd = divmod(size, 2)
    if odd:
        raise InvalidInputError(f"S_{size} has odd degree; need S_2n")
    table = perm_table(g)
    m = mask_of((x for x, p in enumerate(table) if p[-1] > n), g.order)
    ideal = Ideal(g, m)
    lam = perm_to_element(g, principal_generator_perm(n))
    if verify:
        require(is_downward_closed(o, m), "principal set not downward closed")
        require(classify(o, ideal).balanced, "principal ideal not balanced")
        require(principal_ideal(o, lam).mask == m,
                "membership differs from the principal ideal of lambda")
        require(minimal_generators(o, ideal) == [lam],
                "ideal is not generated by lambda alone")
        require(g.length[lam] == g.n_positive - n,
                f"l(lambda) = {g.length[lam]}, expected {g.n_positive - n}")
    return ideal


# ---------------------------------------------------------------------------
# Homotopy-distinction witness

def distinction_witness_mu(j: int, verify: bool = True) -> Permutation:
    """The witness tuple mu in S_{2(2j+1)}: (2j..j+1, 4j+2, j..1, 4j+1..2j+1).

    Checks that mu lies outside the principal family's ideal
    (mu(2n) = n) and that its inversion count equals j(4j+3).
    """
    if j < 1:
        raise InvalidInputError("need j >= 1")
    mu = (*range(2 * j, j, -1), 4 * j + 2, *range(j, 0, -1),
          *range(4 * j + 1, 2 * j, -1))
    n = 2 * j + 1
    require(check_permutation(mu) == 2 * n, "mu is not a permutation of 1..2n")
    if verify:
        require(mu[-1] == n, "mu(2n) != n")
        k = j * (4 * j + 3)
        got = perm_length(mu)
        require(got == k,
                f"inversion count of mu is {got}, expected k = {k}")
    return mu
