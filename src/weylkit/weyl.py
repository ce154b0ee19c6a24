"""The finite Weyl group as an explicit table.

An element is identified with its signed action on the list of positive
roots: entry j of the action tuple is ``+-(k+1)`` when the element sends
positive root j to ``+-`` positive root k.  This gives exact equality
testing and O(|Sigma^+|) products without any irrational arithmetic.

The table is built breadth-first from the identity over right
multiplication by the simple reflections, so an element's BFS depth is
its length; the build cross-checks that against the root-inversion count.
Only the generator-multiplication columns are cached (memory |W| x rank);
general products are composed letter by letter.  The build composes
only ascents, x s_i with x(alpha_i) > 0, and fills the descent slot of
y = x s_i from the same product: i is a descent of y, and x is y s_i.
Since l(x s_i) = l(x) +- 1, every descent slot is filled this way
(Bjorner-Brenti, Sec. 1.4), so half the products are never composed.
Each composition is one C-level ``itemgetter`` gather, and a new
element's extended action is gathered from its parent's.  The inverses
and the w0 table are walks through the finished columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, neg

from .cartan import (CartanType, RootSystem, build_root_system,
                     component_coxeter_number)
from .errors import BudgetExceededError, InvalidInputError, require

Word = tuple[int, ...]

# the table design is memory-bound: |W| * (|Sigma^+| + rank) small ints
DEFAULT_MAX_TABLE_ENTRIES = 10**7


@dataclass
class WeylGroup:
    rs: RootSystem
    acts: list[tuple[int, ...]]
    length: list[int]
    rmult: list[tuple[int, ...]]    # rmult[x][i] = id of x * s_i
    bfs_parent: list[int]
    bfs_letter: list[int]
    generators: list[int]           # ids of the simple reflections
    inverse: list[int]
    w0: int

    @property
    def order(self) -> int:
        return len(self.acts)

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

    # -- descents and words -------------------------------------------------

    def right_descents(self, x: int) -> list[int]:
        """Generators s with l(xs) < l(x): simple roots sent negative."""
        act = self.acts[x]
        return [i for i in range(self.rank) if act[i] < 0]

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

    Element identity is the signed root action; lengths are BFS depths,
    cross-checked against inversion counts.  Element ids are BFS
    discovery order, hence never decrease in length: sorting ids sorts
    by (length, id).  Only ascents are composed: when x is read, each i
    with x(alpha_i) > 0 gives y = x s_i, one longer, and sets both
    rmult[x][i] and rmult[y][i].  A descent i of x has x s_i one shorter,
    read earlier with i as an ascent, so its slot is already set; the
    build requires that no slot is left unset.  Descents discover no
    element, so ids match those of the full product table.  Refuses
    tables larger than the entry budget.
    """
    check_table_budget(rs.cartan_type)
    order = rs.cartan_type.weyl_order()
    npos, rank = rs.n_positive, rs.rank

    root_index = {r: k for k, r in enumerate(rs.positive_roots)}
    gen_acts = []
    for i in range(rs.rank):
        act = []
        for r in rs.positive_roots:
            img = rs.reflect(i, r)
            if img in root_index:
                act.append(root_index[img] + 1)
            else:
                opposite = tuple(-c for c in img)
                act.append(-(root_index[opposite] + 1))
        gen_acts.append(tuple(act))

    # ext(x) = (0,) + ax + (-ax reversed) has ext[v] = +-ax[|v| - 1] for
    # v = +-(k + 1), so reading a generator's action as indices into
    # ext(x) gives the action of x s_i, and reading the generator's own
    # ext gives ext(x s_i); a one-index itemgetter returns a scalar
    ident = tuple(range(1, npos + 1))
    ext_ident = (0,) + ident + tuple(map(neg, reversed(ident)))
    getters = [itemgetter(*a) if npos > 1 else lambda e, k=a[0]: (e[k],)
               for a in gen_acts]
    ext_getters = [itemgetter(0, *a, *map(neg, reversed(a))) for a in gen_acts]
    steps = list(zip(range(1, rank + 1), range(rank), getters, ext_getters))

    acts = [ident]
    id_of = {ident: 0}
    length = [0]
    parent = [0]
    letter = [-1]
    exts: list[tuple[int, ...] | None] = [ext_ident]   # None once read
    rmult: list = [[-1] * rank]

    # exts grows while it is read: breadth-first.  Rows of unread
    # elements are lists that their shorter neighbours fill; a row
    # becomes a tuple, and its ext is dropped, once the element is read.
    for x, ext in enumerate(exts):
        exts[x] = None
        row = rmult[x]
        for k, i, get, get_ext in steps:
            if ext[k] < 0:          # x(alpha_i) < 0: a descent
                continue
            t = get(ext)
            y = id_of.get(t)
            if y is None:
                y = len(acts)
                id_of[t] = y
                acts.append(t)
                length.append(length[x] + 1)
                parent.append(x)
                letter.append(i)
                exts.append(get_ext(ext))
                rmult.append([-1] * rank)
            row[i] = y
            rmult[y][i] = x
        rmult[x] = tuple(row)

    require(len(acts) == order,
            f"BFS found {len(acts)} elements, order formula says {order}")
    require(min(map(min, rmult)) >= 0, "a descent slot was left unset")
    for x, a in enumerate(acts):
        require(sum(1 for v in a if v < 0) == length[x],
                "BFS depth differs from the inversion count")

    # x = s_1 ... s_k along its BFS word, so x^-1 = s_k ... s_1: read the
    # letters back up the parent chain, multiplying on the right
    inverse = []
    for x in range(len(acts)):
        cur = 0
        while x:
            cur = rmult[cur][letter[x]]
            x = parent[x]
        inverse.append(cur)
    require(all(inverse[y] == x for x, y in enumerate(inverse)),
            "inverse is not an involution")

    maxlen = max(length)
    longest = [x for x in range(len(acts)) if length[x] == maxlen]
    require(maxlen == npos and len(longest) == 1,
            "longest element is not unique of length |Sigma^+|")

    return WeylGroup(
        rs=rs,
        acts=acts,
        length=length,
        rmult=rmult,
        bfs_parent=parent,
        bfs_letter=letter,
        generators=[id_of[g] for g in gen_acts],
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
