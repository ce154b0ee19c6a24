"""The finite Weyl group as an explicit table.

The table is built breadth-first from the identity over right
multiplication by the simple reflections, so an element's BFS depth is
its length.  An element x is keyed by the signed action of x^-1 on the
positive roots, a bytes of one root code per positive root (k for
beta_k, |Sigma^+| + k for -beta_k): the action fixes the element, and
equality testing is exact, with no irrational arithmetic.  As
(x s_i)^-1 = s_i x^-1, each product is one C-level bytes.translate of
x's key through a code table of s_i; once the BFS is done, the build
checks each depth against the key's count of negative codes, an
inversion count that it computes independently of the BFS.  Only the
generator-multiplication columns are kept (memory |W| x rank), filled
as one flat list and cut into rows at the end; general products are
composed letter by letter, and the full action of every element
(``acts``) is built on first use.  The build composes only ascents,
x s_i with x(alpha_i) > 0, and fills the descent slot of x s_i from the
same product (Bjorner-Brenti, Sec. 1.4).  Ids are read in order and letters
tried in increasing order, so the BFS word is the shortlex normal form,
the lex-first reduced word (Bjorner-Brenti, Ch. 3): the canonical word.
The inverses and the w0 table are walks through the finished columns,
built on first use, and the canonical word of an id is walked once, when
it is first asked for, and kept.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter, neg

from .cartan import (Bipartition, CartanType, RootSystem, build_root_system,
                     component_coxeter_number)
from .errors import BudgetExceededError, checked_int, require

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


class WeylGroup:
    """The group table; equality is identity."""

    def __init__(self, rs: RootSystem, length: list[int],
                 rmult: list[tuple[int, ...]], bfs_parent: list[int],
                 bfs_letter: list[int], generators: list[int],
                 w0: int) -> None:
        self.rs = rs
        self.length = length
        self.rmult = rmult              # rmult[x][i] = id of x * s_i
        self.bfs_parent = bfs_parent
        self.bfs_letter = bfs_letter
        self.generators = generators    # ids of the simple reflections
        self.w0 = w0

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
        """The BFS discovery word of x, unchecked (see reduced_word)."""
        letters = []
        while x != 0:
            letters.append(self.bfs_letter[x])
            x = self.bfs_parent[x]
        return tuple(reversed(letters))

    def multiply(self, x: int, y: int) -> int:
        """Product xy, composed along a reduced word of y."""
        self._check_id(x)
        cur = x
        for i in self.reduced_word(y):
            cur = self.rmult[cur][i]
        return cur

    def word_to_id(self, word: Word) -> int:
        cur = 0
        for i in word:
            self._check_letter(i)
            cur = self.rmult[cur][i]
        return cur

    def w0_left(self, x: int) -> int:
        """w0 * x, from a table built on first use."""
        return self._w0_left[x]

    # memos: a copy built through __init__ builds its own

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
        """The reduced words asked for so far, by id; it holds only
        those, not a table over all of W."""
        return {}

    @cached_property
    def inverse(self) -> list[int]:
        """x = s_1 ... s_k along its BFS word, so x^-1 = s_k ... s_1: read
        the letters back up the parent chain, multiplying on the right.
        The library reads no inverse; this is kept for the benchmark's
        queries workload and its reference implementations."""
        rmult, parent, letter = self.rmult, self.bfs_parent, self.bfs_letter
        inverse = []
        for x in range(self.order):
            cur = 0
            while x:
                cur = rmult[cur][letter[x]]
                x = parent[x]
            inverse.append(cur)
        require(all(inverse[y] == x for x, y in enumerate(inverse)),
                "inverse is not an involution")
        return inverse

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

    # -- words -------------------------------------------------------------

    def reduced_word(self, x: int) -> Word:
        """Canonical reduced word: the BFS word, which is the shortlex
        normal form, the lex-first reduced word (Bjorner-Brenti, Ch. 3).
        The build reaches y first as x s_i for the least id x, then the
        least i, so by induction on length ids within a length follow
        lex order and lexfirst(y) = lexfirst(x) + (i).

        Each id's word is walked once and kept in _words; an id not yet
        kept, or not an int, is checked first, so only int ids in range
        are ever kept and 1.0 or True never reads the word of 1."""
        words = self._words
        word = words.get(x) if type(x) is int else None
        if word is None:
            self._check_id(x)
            word = words[x] = self.bfs_word(x)
        return word

    def _check_id(self, x: int) -> None:
        """Refuse any id but an int in range(|W|); a bool is no int here."""
        checked_int("element id", x, self.order)

    def _check_letter(self, i: int, name: str = "letter") -> None:
        """Refuse any generator index but an int in range(rank)."""
        checked_int(name, i, self.rank)


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

    Element x is keyed by the signed action of x^-1 on the positive
    roots, a bytes of root codes: k for beta_k, |Sigma^+| + k for
    -beta_k.  As (x s_i)^-1 = s_i x^-1, the key of x s_i is x's key
    mapped through s_i's code table, one bytes.translate; x(alpha_i) > 0,
    an ascent, iff the code i occurs in x's key.  Lengths are BFS
    depths, checked after the BFS against each key's count of negative
    codes, l((x s_i)^-1) = l(x s_i).  Element ids are BFS discovery
    order, hence never decrease in length: sorting ids sorts by
    (length, id), and w0 is the last id.  Only ascents x s_i are
    composed, each setting both slots (x, i) and (x s_i, i) of one flat
    list of |W| rank slots; as l(x s_i) = l(x) +- 1 (Bjorner-Brenti,
    Sec. 1.4) that fills every slot, which the build requires, and the
    ids are those of the full product table.  The list is cut into the
    rows of rmult by one zip.  Refuses tables larger than the entry
    budget, and stops as soon as it finds more than |W| elements.
    """
    check_table_budget(rs.cartan_type)
    order = rs.cartan_type.weyl_order()
    npos, rank = rs.n_positive, rs.rank
    require(2 * npos <= 256, f"{npos} positive roots need more than "
                             "256 byte codes")

    # tables[i][c] is the code of s_i applied to the root of code c
    tables = []
    for a in rs.simple_actions:
        require(sorted(map(abs, a)) == list(range(1, npos + 1)),
                "a simple action is not a signed permutation")
        image = [v - 1 if v > 0 else npos - v - 1 for v in a]
        negated = [(c + npos) % (2 * npos) for c in image]
        tables.append(bytes(image + negated + list(range(2 * npos, 256))))
    steps = list(enumerate(tables))
    positive = bytes(range(npos))
    too_many = (f"BFS found more than {order} elements, order formula "
                f"says {order}")

    keys = [positive]               # the identity's key
    id_of = {positive: 0}
    ids = [0]
    length = [0]
    parent = [0]
    letter = [-1]
    flat = [-1] * (order * rank)    # flat[x * rank + i] = id of x s_i

    # keys and ids grow while they are read: breadth-first.  Each id is
    # made once and stored as that one object wherever it goes.
    for x, key in zip(ids, keys):
        base = x * rank
        depth = length[x] + 1
        for i, table in steps:
            if i not in key:        # x(alpha_i) < 0: a descent
                continue
            new = key.translate(table)
            y = id_of.get(new)
            if y is None:
                y = len(ids)
                require(y < order, too_many)
                id_of[new] = y
                ids.append(y)
                keys.append(new)
                length.append(depth)
                parent.append(x)
                letter.append(i)
            else:
                require(y > x, "a product lands on an element already read")
            flat[base + i] = y
            flat[y * rank + i] = x

    require(len(ids) == order,
            f"BFS found {len(ids)} elements, order formula says {order}")
    require(-1 not in flat, "a descent slot was left unset")
    require([len(key.translate(None, positive)) for key in keys] == length,
            "BFS depth differs from the inversion count")
    rmult = list(zip(*[iter(flat)] * rank))

    # w0 is the last id, unique when the id before it is shorter
    require(length[-1] == npos > length[-2],
            "longest element is not unique of length |Sigma^+|")

    return WeylGroup(
        rs=rs,
        length=length,
        rmult=rmult,
        bfs_parent=parent,
        bfs_letter=letter,
        generators=list(rmult[0]),
        w0=order - 1,
    )


# ---------------------------------------------------------------------------
# Bourbaki bipartite word for w0

def default_bipartition(rs: RootSystem) -> Bipartition:
    """The two colour classes of the Dynkin diagram, each component's
    least node in the first (RootSystem.bipartition)."""
    return rs.bipartition


def bipartite_w0_word(g: WeylGroup) -> Word:
    """The reduced word (ab)^(h/2), resp. (ab)^((h-1)/2) a for odd h.

    a and b are the products of the two colour classes of the Dynkin
    diagram, rs.bipartition, each of pairwise-commuting generators; the
    construction runs per connected Dynkin component and the component
    words are concatenated.  The result is checked reduced and equal to
    w0.
    """
    rs = g.rs
    s_prime, s_second = rs.bipartition
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
