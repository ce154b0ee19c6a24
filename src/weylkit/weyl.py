"""The finite Weyl group as an explicit table.

An element is keyed by its images of the simple roots, as signed
indices into the list of positive roots (``+-(k+1)`` for ``+-`` positive
root k): the simple roots are a basis, so these images fix the element.
Equality testing is exact, with no irrational arithmetic.

The table is built breadth-first from the identity over right
multiplication by the simple reflections, so an element's BFS depth is
its length; the build cross-checks that against the root-inversion count
of the element's full signed action, which it holds only for the BFS
frontier.  Only the generator-multiplication columns are kept (memory
|W| x rank); general products are composed letter by letter, and the
full action of every element (``acts``) is built on first use.  The
build composes only ascents, x s_i with x(alpha_i) > 0, and fills the
descent slot of x s_i from the same product (Bjorner-Brenti, Sec. 1.4).
The inverses and the w0 table are walks through the finished columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, neg

from .cartan import (CartanType, RootSystem, build_root_system,
                     component_coxeter_number)
from .errors import BudgetExceededError, InvalidInputError, require

Word = tuple[int, ...]

# the table design is memory-bound: |W| * (|Sigma^+| + rank) small ints.
# The stored table holds only the |W| * rank part, but acts, built on
# first use, costs the |W| * |Sigma^+| part again; a budget on the stored
# part alone would admit A8 and B7.
DEFAULT_MAX_TABLE_ENTRIES = 10**7


def _ext_getters(rs: RootSystem) -> list[itemgetter]:
    """Gathers that turn ext(x) into ext(x s_i), one per generator.

    ext(x) = (0,) + ax + (-ax reversed), for ax the signed action of x,
    has ext[v] = +-ax[|v| - 1] for v = +-(k + 1), so reading the
    generator's own ext as indices into ext(x) gives ext(x s_i).
    """
    return [itemgetter(0, *a, *map(neg, reversed(a)))
            for a in rs.simple_actions]


def _ext_identity(npos: int) -> tuple[int, ...]:
    return (0, *range(1, npos + 1), *range(-npos, 0))


@dataclass
class WeylGroup:
    rs: RootSystem
    length: list[int]
    rmult: list[tuple[int, ...]]    # rmult[x][i] = id of x * s_i
    bfs_parent: list[int]
    bfs_letter: list[int]
    generators: list[int]           # ids of the simple reflections
    inverse: list[int]
    w0: int

    @property
    def order(self) -> int:
        return len(self.length)

    @property
    def rank(self) -> int:
        return self.rs.rank

    @property
    def n_positive(self) -> int:
        return self.rs.n_positive

    # -- products ----------------------------------------------------------

    def bfs_word(self, x: int) -> Word:
        """Some reduced word for x (the BFS discovery word)."""
        letters = []
        while x != 0:
            letters.append(self.bfs_letter[x])
            x = self.bfs_parent[x]
        return tuple(reversed(letters))

    def multiply(self, x: int, y: int) -> int:
        """Product xy, composed along a reduced word of y."""
        self._check_id(x)
        cur = x
        for i in self.bfs_word(y):
            cur = self.rmult[cur][i]
        return cur

    def left_mult_gen(self, i: int, x: int) -> int:
        """s_i * x in O(1) table lookups, via (x^-1 s_i)^-1."""
        return self.inverse[self.rmult[self.inverse[x]][i]]

    def word_to_id(self, word: Word) -> int:
        cur = 0
        for i in word:
            if not 0 <= i < self.rank:
                raise InvalidInputError(f"letter {i} out of range")
            cur = self.rmult[cur][i]
        return cur

    def w0_left(self, x: int) -> int:
        """w0 * x, from a table built on first use."""
        return self._w0_left[x]

    # memos, not fields: a dataclasses.replace copy builds its own

    @cached_property
    def _w0_left(self) -> list[int]:
        """With x = p s for p its BFS parent, w0 x = (w0 p) s."""
        table = [self.w0]
        for y in range(1, self.order):
            table.append(
                self.rmult[table[self.bfs_parent[y]]][self.bfs_letter[y]])
        return table

    @cached_property
    def _words(self) -> dict[int, Word]:
        return {}

    @cached_property
    def acts(self) -> list[tuple[int, ...]]:
        """acts[x][j] = +-(k + 1) when x sends positive root j to +-
        positive root k.  Built on first use, one gather per element
        from its BFS parent's extended action; the table keeps no copy."""
        npos, get = self.n_positive, _ext_getters(self.rs)
        exts = [_ext_identity(npos)]
        for p, s in zip(self.bfs_parent[1:], self.bfs_letter[1:]):
            exts.append(get[s](exts[p]))
        return [ext[1:npos + 1] for ext in exts]

    # -- descents and words -------------------------------------------------

    def right_descents(self, x: int) -> list[int]:
        """Generators s with l(xs) < l(x)."""
        row, length = self.rmult[x], self.length
        return [i for i in range(self.rank) if length[row[i]] < length[x]]

    def left_descents(self, x: int) -> list[int]:
        return self.right_descents(self.inverse[x])

    def reduced_word(self, x: int) -> Word:
        """Canonical reduced word: greedy smallest left descent.

        Stripping the smallest left descent first yields the
        lexicographically smallest reduced word.
        """
        self._check_id(x)
        cached = self._words.get(x)
        if cached is not None:
            return cached
        letters = []
        cur = x
        while cur != 0:
            i = min(self.left_descents(cur))
            letters.append(i)
            cur = self.left_mult_gen(i, cur)
        word = tuple(letters)
        self._words[x] = word
        return word

    def _check_id(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise InvalidInputError(f"element id {x} out of range")


def check_table_budget(t: CartanType) -> None:
    """Refuse, from the type alone, a table larger than the entry budget.

    Each element takes an entry, so |W| is bounded first; that refusal
    does not name the type, whose rank may be too long for str().
    """
    order = t.weyl_order_at_most(DEFAULT_MAX_TABLE_ENTRIES)
    if order is None:
        raise BudgetExceededError(
            f"|W| alone exceeds table budget {DEFAULT_MAX_TABLE_ENTRIES}")
    entries = order * (t.n_positive + t.rank)
    if entries > DEFAULT_MAX_TABLE_ENTRIES:
        raise BudgetExceededError(f"{t}: table needs {entries} entries > "
                                  f"budget {DEFAULT_MAX_TABLE_ENTRIES}")


def build_group(t: CartanType) -> WeylGroup:
    """The group table of a type, refused before any root is built."""
    check_table_budget(t)
    return generate(build_root_system(t))


def generate(rs: RootSystem) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Elements are keyed by their images of the simple roots; lengths are
    BFS depths, cross-checked against inversion counts.  Element ids are
    BFS discovery order, hence never decrease in length: sorting ids
    sorts by (length, id).  Only ascents x s_i with x(alpha_i) > 0 are
    composed, each setting both rmult[x][i] and rmult[x s_i][i]; as
    l(x s_i) = l(x) +- 1 (Bjorner-Brenti, Sec. 1.4) that fills every
    slot, which the build requires, and the ids are those of the full
    product table.  Refuses tables larger than the entry budget.
    """
    check_table_budget(rs.cartan_type)
    order = rs.cartan_type.weyl_order()
    npos, rank = rs.n_positive, rs.rank

    # reading entries 1..rank of a generator's own ext as indices into
    # ext(x) gives the key of x s_i; a one-index itemgetter returns a
    # scalar, so rank 1 gets a tuple-making getter
    keys = [itemgetter(*a[:rank]) if rank > 1 else lambda e, k=a[0]: (e[k],)
            for a in rs.simple_actions]
    steps = list(zip(range(1, rank + 1), range(rank), keys, _ext_getters(rs)))
    negative = (0).__gt__

    id_of = {tuple(range(1, rank + 1)): 0}
    length = [0]
    parent = [0]
    letter = [-1]
    exts: list[tuple[int, ...] | None] = [_ext_identity(npos)]  # None once read
    rmult: list = [[-1] * rank]

    # exts grows while it is read: breadth-first.  Rows of unread
    # elements are lists that their shorter neighbours fill; a row
    # becomes a tuple, and its ext is dropped, once the element is read.
    for x, ext in enumerate(exts):
        exts[x] = None
        row = rmult[x]
        for k, i, key_of, get_ext in steps:
            if ext[k] < 0:          # x(alpha_i) < 0: a descent
                continue
            key = key_of(ext)
            y = id_of.get(key)
            if y is None:
                y = len(length)
                id_of[key] = y
                new = get_ext(ext)
                require(sum(map(negative, new[1:npos + 1])) == length[x] + 1,
                        "BFS depth differs from the inversion count")
                length.append(length[x] + 1)
                parent.append(x)
                letter.append(i)
                exts.append(new)
                rmult.append([-1] * rank)
            row[i] = y
            rmult[y][i] = x
        rmult[x] = tuple(row)

    require(len(length) == order,
            f"BFS found {len(length)} elements, order formula says {order}")
    require(min(map(min, rmult)) >= 0, "a descent slot was left unset")

    # x = s_1 ... s_k along its BFS word, so x^-1 = s_k ... s_1: read the
    # letters back up the parent chain, multiplying on the right
    inverse = []
    for x in range(order):
        cur = 0
        while x:
            cur = rmult[cur][letter[x]]
            x = parent[x]
        inverse.append(cur)
    require(all(inverse[y] == x for x, y in enumerate(inverse)),
            "inverse is not an involution")

    maxlen = max(length)
    longest = [x for x in range(order) if length[x] == maxlen]
    require(maxlen == npos and len(longest) == 1,
            "longest element is not unique of length |Sigma^+|")

    return WeylGroup(
        rs=rs,
        length=length,
        rmult=rmult,
        bfs_parent=parent,
        bfs_letter=letter,
        generators=list(rmult[0]),
        inverse=inverse,
        w0=longest[0],
    )


# ---------------------------------------------------------------------------
# Bourbaki bipartite word for w0

def default_bipartition(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy 2-coloring of the Dynkin diagram (a forest, so it works)."""
    color = {}
    for comp in rs.components:
        start = comp[0]
        color[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j in comp:
                if j != i and rs.cartan_matrix[i][j] != 0 and j not in color:
                    color[j] = 1 - color[i]
                    stack.append(j)
    part0 = tuple(sorted(i for i, c in color.items() if c == 0))
    part1 = tuple(sorted(i for i, c in color.items() if c == 1))
    return part0, part1


def bipartite_w0_word(g: WeylGroup,
                      split: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
                      ) -> Word:
    """The reduced word (ab)^(h/2), resp. (ab)^((h-1)/2) a for odd h.

    a and b are the products of the two parts of a pairwise-commuting
    bipartition of the generators; the construction runs per connected
    Dynkin component and the component words are concatenated.  The result
    is checked reduced and equal to w0.
    """
    rs = g.rs
    if split is None:
        split = default_bipartition(rs)
    s_prime, s_second = (tuple(sorted(set(p))) for p in split)
    if sorted(s_prime + s_second) != list(range(rs.rank)):
        raise InvalidInputError("split must partition the generator indices")
    for part in (s_prime, s_second):
        for i in part:
            for j in part:
                if i < j and rs.cartan_matrix[i][j] != 0:
                    raise InvalidInputError(
                        f"generators {i},{j} in the same part are adjacent")

    word: list[int] = []
    for comp in rs.components:
        a = [i for i in s_prime if i in comp]
        b = [i for i in s_second if i in comp]
        h = component_coxeter_number(rs, comp)
        if h % 2 == 0:
            piece = (a + b) * (h // 2)
        else:
            piece = (a + b) * ((h - 1) // 2) + a
        word.extend(piece)

    result = tuple(word)
    require(len(result) == g.n_positive and g.word_to_id(result) == g.w0,
            "bipartite word is not a reduced word for w0")
    return result
