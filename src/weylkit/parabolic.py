"""Standard parabolic subgroups and their minimal coset representatives.

The input is the generator subset that generates W_P itself, not its
complement.  Each left coset x W_P contains a unique element with no
right descent into the subset, and it is the strictly shortest member
(Bjorner-Brenti, Prop. 2.4.4).  build_parabolic walks W_P from the
identity over the subset's columns of the table, so the coset count is
|W| / |W_P| (Lagrange), and an odd count answers with no coset map.
The map, coset_of, is built on first read: ids are in BFS order, so s
is a right descent of x exactly when x s < x, and one ascending pass
over the ids strips one descent from each element, so labels it with
its coset's representative.  That pass checks that the label does not
change under right multiplication by the subset, that lengths add along
the strips, and that |W^P| |W_P| = |W|.  Cosets are read through that
one map: right invariance is one gather of a mask through it, kept on
the ideal, and graded ranks are popcounts against W^P by length.  The
paper's thickenings are right-W_P-invariant only, so no left-coset map
is kept.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, eq, itemgetter

from .bruhat import Gather, _cached, check_group, mask_bits, mask_of
from .errors import InvalidInputError, clip, require
from .weyl import WeylGroup


class ParabolicSubset:
    """W_P, W^P and the coset map of one group; equality is identity.

    build_parabolic makes a parabolic that builds coset_of and min_reps
    on first read; a copy made through __init__ holds the parts it is
    given.
    """

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

    # Built on first use: an instance keeps its own tables.

    @cached_property
    def n_cosets(self) -> int:
        """|W/W_P| = |W| / |W_P|, read without the coset map."""
        count, rest = divmod(self.g.order, len(self.subgroup))
        require(rest == 0, "|W_P| does not divide |W|")
        return count

    @cached_property
    def coset_of(self) -> list[int]:
        return _coset_map(self.g, self.theta, self.subgroup)

    @cached_property
    def min_reps(self) -> list[int]:
        return [x for x, rep in enumerate(self.coset_of) if rep == x]

    @cached_property
    def max_quotient_length(self) -> int:
        """l(w0 W_P): quotient length of the longest coset."""
        return self.g.length[self.min_reps[-1]]

    @cached_property
    def length_masks(self) -> list[int]:
        """length_masks[k] = mask of the W^P elements of length k."""
        levels = [[] for _ in range(self.max_quotient_length + 1)]
        for x in self.min_reps:
            levels[self.g.length[x]].append(x)
        return [mask_of(xs, self.g.order) for xs in levels]

    @cached_property
    def _level_sizes(self) -> list[int]:
        """_level_sizes[k] = |W^P elements of length k|, popcounted once."""
        return [m.bit_count() for m in self.length_masks]

    @cached_property
    def _right_gather(self) -> Gather:
        """The image of a mask under x -> min(x W_P)."""
        return Gather(self.coset_of, self.g.order)


def build_parabolic(g: WeylGroup, theta) -> ParabolicSubset:
    """W_P of the generator indices theta; its cosets are built on first
    read (_coset_map).

    W_P is walked from the identity over the columns of theta in rmult.
    """
    try:
        theta = tuple(theta)
    except TypeError:
        raise InvalidInputError(f"theta {clip(repr(theta))} is not an "
                                "iterable of generator indices") from None
    for i in theta:
        g._check_letter(i, "generator index")
    theta = tuple(sorted(set(theta)))
    rmult = g.rmult
    subgroup, seen = [0], {0}
    for x in subgroup:
        row = rmult[x]
        for i in theta:
            y = row[i]
            if y not in seen:
                seen.add(y)
                subgroup.append(y)
    subgroup.sort()
    p = ParabolicSubset.__new__(ParabolicSubset)    # no map given: none stored
    p.g, p.theta, p.subgroup = g, theta, subgroup
    return p


def _coset_map(g: WeylGroup, theta: tuple[int, ...],
               subgroup: list[int]) -> list[int]:
    """Each element's coset representative, by stripping descents in theta.

    In ascending id order, x takes the label of x s for the first s in
    theta with x s < x, one strip further; with no such s, x is its own
    label, a minimal representative.  The label must not change under
    x -> x s for s in theta (one gather of the labels through the
    column of s in rmult), so each class is a union of cosets; every
    coset holds an element with no descent in theta, its least id, and
    each class only one, its label, so each class is one coset.  l(x)
    must be l(label) plus the strips, so the label is the strictly
    shortest member, and |W^P| |W_P| must be |W|.
    """
    rmult, length = g.rmult, g.length
    coset_of, strips = [], []
    for x, row in enumerate(rmult):
        rep, k = x, 0
        for i in theta:
            y = row[i]
            if y < x:               # ids are in BFS order: a descent
                rep, k = coset_of[y], strips[y] + 1
                break
        coset_of.append(rep)
        strips.append(k)
    for i in theta:
        require(list(map(coset_of.__getitem__, map(itemgetter(i), rmult)))
                == coset_of,
                "x s lies in another coset than x for some s in theta")
    require(all(map(eq, length,
                    map(add, map(length.__getitem__, coset_of), strips))),
            "x = rep * u is not a length-additive factorization into W_P")
    require(sum(map(eq, coset_of, range(g.order))) * len(subgroup)
            == g.order, "coset count times |W_P| differs from |W|")
    return coset_of


def is_right_invariant(ideal, p: ParabolicSubset) -> bool:
    """Membership constant on left cosets x W_P: I s = I for s in theta.

    Every x has the bit of its coset minimum: the gather through
    coset_of gives the mask back.  With theta empty each coset is one
    element, so every set is invariant: no gather is built and nothing
    is kept.  Otherwise the answer is kept on the ideal once per
    parabolic (_cached, which refuses one of another group), so it is
    gathered once; an ideal enumerated under p comes with the
    invariance its certificate proved.
    """
    if not p.theta:
        check_group(ideal.g, p)
        return True
    return _cached(ideal, "_invariant", p, _gathers_back, ideal, p)


def _gathers_back(ideal, p: ParabolicSubset) -> bool:
    return p._right_gather(mask_bits(ideal.mask, p.g.order)) == ideal.mask


def quotient_ideal(ideal, p: ParabolicSubset) -> list[tuple[int, int]]:
    """W^P representatives inside a right-W_P-invariant ideal.

    Returns (representative id, quotient length) sorted by (length, id).
    """
    if not is_right_invariant(ideal, p):
        raise InvalidInputError("ideal is not right-invariant under W_P")
    g = p.g
    return [(x, g.length[x]) for x in p.min_reps if ideal.mask >> x & 1]
