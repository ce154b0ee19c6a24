"""Standard parabolic subgroups and their minimal coset representatives.

The input is the generator subset that generates W_P itself, not its
complement.  Each left coset x W_P contains a unique element with no
right descent into the subset, and it is the strictly shortest member.
build_parabolic finds these representatives W^P by one length test per
generator, then builds each coset as the orbit rep * W_P along one walk
of W_P.  It checks, for every element, that it lies in exactly one
orbit (the orbits cover W, and |W^P| |W_P| = |W|) and that lengths add
along x = rep * u.  Cosets are read through that one map, coset_of:
right invariance is one gather of a mask through it, and graded ranks
are popcounts against W^P by length.  The paper's thickenings are
right-W_P-invariant only, so no left-coset map is kept.
"""

from __future__ import annotations

from functools import cached_property

from .bruhat import Gather, check_group, mask_bits, mask_of
from .errors import InvalidInputError, require
from .weyl import WeylGroup


class ParabolicSubset:
    """W_P, W^P and the coset map of one group; equality is identity."""

    def __init__(self, g: WeylGroup, theta: tuple[int, ...],
                 subgroup: list[int], min_reps: list[int],
                 coset_of: list[int]) -> None:
        self.g = g
        self.theta = theta            # generator indices of W_P, sorted
        self.subgroup = subgroup      # element ids of W_P, sorted
        self.min_reps = min_reps      # W^P, sorted by id, so by (length, id)
        self.coset_of = coset_of      # element id -> its representative id

    @property
    def order(self) -> int:
        return len(self.subgroup)

    @property
    def n_cosets(self) -> int:
        return len(self.min_reps)

    @property
    def max_quotient_length(self) -> int:
        """l(w0 W_P): quotient length of the longest coset."""
        return self.g.length[self.min_reps[-1]]

    # Built on first use: an instance keeps its own tables.

    @cached_property
    def length_masks(self) -> list[int]:
        """length_masks[k] = mask of the W^P elements of length k."""
        levels = [[] for _ in range(self.max_quotient_length + 1)]
        for x in self.min_reps:
            levels[self.g.length[x]].append(x)
        return [mask_of(xs, self.g.order) for xs in levels]

    @cached_property
    def _right_gather(self) -> Gather:
        """The image of a mask under x -> min(x W_P)."""
        return Gather(self.coset_of, self.g.order)


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
                           min_reps=min_reps, coset_of=coset_of)


def is_right_invariant(ideal, p: ParabolicSubset) -> bool:
    """Membership constant on left cosets x W_P: I s = I for s in theta.

    Every x has the bit of its coset minimum: the gather through
    coset_of gives the mask back.  With theta empty each coset is one
    element, so every set is invariant and no gather is built.
    """
    check_group(ideal.g, p)
    if not p.theta:
        return True
    return p._right_gather(mask_bits(ideal.mask, p.g.order)) == ideal.mask


def quotient_ideal(ideal, p: ParabolicSubset) -> list[tuple[int, int]]:
    """W^P representatives inside a right-W_P-invariant ideal.

    Returns (representative id, quotient length) sorted by (length, id).
    """
    if not is_right_invariant(ideal, p):
        raise InvalidInputError("ideal is not right-invariant under W_P")
    g = p.g
    return [(x, g.length[x]) for x in p.min_reps if ideal.mask >> x & 1]
