"""Standard parabolic subgroups, coset representatives, double cosets.

The input is the generator subset that generates W_P itself, not its
complement.  Each left coset x W_P contains a unique element with no
right descent into the subset, and it is the strictly shortest member.
build_parabolic finds these representatives W^P by one length test per
generator, then builds each coset as the orbit rep * W_P along one walk
of W_P.  It checks, for every element, that it lies in exactly one
orbit (the orbits cover W, and |W^P| |W_P| = |W|) and that lengths add
along x = rep * u.  Invariance tests and graded ranks are whole-mask
kernels: one gather per generator for the image x -> x s (or s x), and
one popcount per quotient length against the masks of W^P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bruhat import Gather, mask_bits, mask_of
from .errors import InvalidInputError, require
from .weyl import WeylGroup


@dataclass
class ParabolicSubset:
    g: WeylGroup
    theta: tuple[int, ...]            # generator indices of W_P, sorted
    subgroup: list[int]               # element ids of W_P, sorted
    subgroup_mask: int
    min_reps: list[int]               # W^P, sorted by id, so by (length, id)
    coset_of: list[int]               # element id -> its representative id

    @property
    def order(self) -> int:
        return len(self.subgroup)

    @property
    def n_cosets(self) -> int:
        return len(self.min_reps)

    @property
    def longest_subgroup_element(self) -> int:
        return self.subgroup[-1]

    @property
    def max_quotient_length(self) -> int:
        """l(w0 W_P): quotient length of the longest coset."""
        return self.g.length[self.min_reps[-1]]

    def quotient_length(self, x: int) -> int:
        return self.g.length[self.coset_of[x]]

    # Built on first use, not fields: an instance keeps its own tables.

    @cached_property
    def length_masks(self) -> list[int]:
        """length_masks[k] = mask of the W^P elements of length k."""
        levels = [[] for _ in range(self.max_quotient_length + 1)]
        for x in self.min_reps:
            levels[self.g.length[x]].append(x)
        return [mask_of(xs, self.g.order) for xs in levels]

    @cached_property
    def _right_gather(self) -> Gather:
        """The images of a mask under x -> x s, for s in theta, end to end."""
        g = self.g
        return Gather([row[i] for i in self.theta for row in g.rmult],
                      g.order)

    @cached_property
    def _left_gather(self) -> Gather:
        """The images of a mask under x -> s x, for s in theta, end to end."""
        g = self.g
        return Gather([g.left_mult_gen(i, x)
                       for i in self.theta for x in range(g.order)], g.order)


def build_parabolic(g: WeylGroup, theta) -> ParabolicSubset:
    """W_P, W^P and each element's coset, by orbits of W^P under W_P.

    W^P is the set of y that every s in theta lengthens.  W_P is walked
    once from the identity, each member reached from an earlier one by
    one letter; along the same walk, y u comes from one table lookup
    per member u.  Every element must lie in one orbit with
    l(y u) = l(y) + l(u), and |W^P| |W_P| must be |W|: the orbits then
    cover W without overlap, so each x is rep * u with u in W_P, by
    construction and length-additively.
    """
    theta = tuple(sorted(set(theta)))
    for i in theta:
        if not 0 <= i < g.rank:
            raise InvalidInputError(f"generator index {i} out of range")
    rmult, length = g.rmult, g.length

    # W_P in discovery order; member j > 0 is member k times s_i
    walk, steps, seen = [0], [], {0}
    for k, x in enumerate(walk):
        for i in theta:
            y = rmult[x][i]
            if y not in seen:
                seen.add(y)
                walk.append(y)
                steps.append((k, i))
    walk_len = [length[u] for u in walk]

    min_reps = [y for y in range(g.order)
                if all(length[rmult[y][i]] > length[y] for i in theta)]
    require(len(min_reps) * len(walk) == g.order,
            "coset count times |W_P| differs from |W|")
    coset_of = [-1] * g.order
    additive = True
    for y in min_reps:
        orbit = [y]
        for k, i in steps:
            orbit.append(rmult[orbit[k]][i])
        ly = length[y]
        additive = additive and all(
            length[x] == ly + lu for x, lu in zip(orbit, walk_len))
        for x in orbit:
            coset_of[x] = y
    require(additive,
            "x = rep * u is not a length-additive factorization into W_P")
    # the orbits hold |W| entries in all, so covering W leaves no overlap
    require(-1 not in coset_of, "some element lies in no orbit of W^P")

    return ParabolicSubset(g=g, theta=theta, subgroup=sorted(walk),
                           subgroup_mask=mask_of(walk, g.order),
                           min_reps=min_reps, coset_of=coset_of)


def _invariant(mask: int, gather: Gather, p: ParabolicSubset) -> bool:
    """Each image of mask under gather equals mask (each is a bijection)."""
    n = p.g.order
    copies = sum(1 << c * n for c in range(len(p.theta)))
    return gather(mask_bits(mask, n)) == mask * copies


def is_right_invariant(ideal, p: ParabolicSubset) -> bool:
    """Membership constant on left cosets x W_P: I s = I for s in theta."""
    return _invariant(ideal.mask, p._right_gather, p)


def is_left_invariant(ideal, p: ParabolicSubset) -> bool:
    """Membership constant on right cosets W_P x: s I = I for s in theta."""
    return _invariant(ideal.mask, p._left_gather, p)


def quotient_ideal(ideal, p: ParabolicSubset) -> list[tuple[int, int]]:
    """W^P representatives inside a right-W_P-invariant ideal.

    Returns (representative id, quotient length) sorted by (length, id).
    """
    if not is_right_invariant(ideal, p):
        raise InvalidInputError("ideal is not right-invariant under W_P")
    g = p.g
    return [(x, g.length[x]) for x in p.min_reps if ideal.mask >> x & 1]


def double_coset_min_rep(g: WeylGroup, p: ParabolicSubset,
                         q: ParabolicSubset, x: int) -> int:
    """The unique minimal element of W_P x W_Q.

    Alternately strip left descents into P and right descents into Q;
    each step shortens, so this terminates at the minimum.
    """
    g._check_id(x)
    while True:
        i = next((i for i in p.theta
                  if g.length[g.left_mult_gen(i, x)] < g.length[x]), None)
        if i is not None:
            x = g.left_mult_gen(i, x)
            continue
        j = next((j for j in q.theta
                  if g.length[g.rmult[x][j]] < g.length[x]), None)
        if j is None:
            return x
        x = g.rmult[x][j]
