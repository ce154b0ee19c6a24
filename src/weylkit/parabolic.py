"""Standard parabolic subgroups and their minimal coset representatives.

The input is the generator subset that generates W_P itself, not its
complement.  Each left coset x W_P contains a unique element with no
right descent into the subset, and it is the strictly shortest member
(Bjorner-Brenti, Prop. 2.4.4).  Ids are in BFS order, so s is a right
descent of x exactly when x s < x: build_parabolic strips one descent
from each element in one ascending pass over the ids, and so labels it
with its coset's representative.  It checks that the label does not
change under right multiplication by the subset, that lengths add along
the strips, and that |W^P| |W_P| = |W|.  Cosets are read through that
one map, coset_of: right invariance is one gather of a mask through it,
and graded ranks are popcounts against W^P by length.  The paper's
thickenings are right-W_P-invariant only, so no left-coset map is kept.
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
    def _level_sizes(self) -> list[int]:
        """_level_sizes[k] = |W^P elements of length k|, popcounted once."""
        return [m.bit_count() for m in self.length_masks]

    @cached_property
    def _right_gather(self) -> Gather:
        """The image of a mask under x -> min(x W_P)."""
        return Gather(self.coset_of, self.g.order)


def build_parabolic(g: WeylGroup, theta) -> ParabolicSubset:
    """W_P, W^P and each element's coset, by stripping descents in theta.

    In ascending id order, x takes the label of x s for the first s in
    theta with x s < x, one strip further; with no such s, x is its own
    label, a minimal representative.  W_P is the class of the identity.
    The label must not change under x -> x s for s in theta, so each
    class is a union of cosets; every coset holds an element with no
    descent in theta, its least id, and each class only one, its label,
    so each class is one coset.  l(x) must be l(label) plus the strips,
    so the label is the strictly shortest member, and |W^P| |W_P| must
    be |W|.
    """
    theta = tuple(theta)
    for i in theta:
        g._check_letter(i, "generator index")
    theta = tuple(sorted(set(theta)))
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
    require(all(coset_of[row[i]] == rep
                for row, rep in zip(rmult, coset_of) for i in theta),
            "x s lies in another coset than x for some s in theta")
    require(all(l == length[rep] + k
                for l, rep, k in zip(length, coset_of, strips)),
            "x = rep * u is not a length-additive factorization into W_P")
    min_reps = [x for x, rep in enumerate(coset_of) if rep == x]
    subgroup = [x for x, rep in enumerate(coset_of) if rep == 0]
    require(len(min_reps) * len(subgroup) == g.order,
            "coset count times |W_P| differs from |W|")
    return ParabolicSubset(g=g, theta=theta, subgroup=subgroup,
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
