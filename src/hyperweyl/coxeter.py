"""Coset labels, generator actions, orbit structure and discrete distances.

Three label spaces appear:

* 56 eight-slot-side labels +-v(i,j), 0 <= i < j <= 7, indexing cosets of the
  invariance group inside the big reflection group;
* 32 "sign string" labels p0..p15 / n0..n15 for the first summand family on
  the seven-slot side (strings of six signs with an even number of minuses);
* 12 labels 1..6 / 1bar..6bar for the second summand family.

The seven-slot labels together form the 44-element T space.  The map
jl_label sends every eight-slot label to a colored seven-slot one (blue and
red copies of the 12 L labels, plus the 32 J labels), it intertwines the two
generator actions through matching_generator, and it compresses the
discrete distance in a controlled way (t_distance).

Each space is one ordered table (_table) of its labels, keyed by their
classifying forms: it gives the label list, the classifier, and the action,
since a generator's matrix carries every classifying form to another
(_space).  Words, orbits, group orders, distances and triple censuses share
one core, built on first use: each generator of a side, in the order of
W_GENERATOR_NAMES or V_GENERATOR_NAMES, as an index array of label images,
one breadth-first orbit walk that records words, one pointer-jumping sweep
that finds orbits without them (_orbit_minima), Schreier-Sims, one table of
the 56x56 discrete distances that every other space's distances gather,
and each space's action on its three-element label sets (_triples): the
sets as rows in combinations() order, an n x n rank table that finds the
row of a sorted set, and each generator's image of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .exactalg import (
    HYPERPLANES,
    LinForm,
    Q_GENERATOR_NAMES,
    SUBGROUP_WORDS,
    V_GENERATOR_NAMES,
    V_SYMBOLS,
    W_GENERATOR_NAMES,
    W_SYMBOLS,
    generator,
    symbol_forms,
)

__all__ = [
    "MLabel",
    "JLabel",
    "LLabel",
    "Color",
    "act",
    "all_m_labels",
    "all_j_labels",
    "all_l_labels",
    "all_t_labels",
    "parse_label",
    "classify_m",
    "classify_j",
    "classify_l",
    "orbit_color",
    "jl_label",
    "jl_preimage",
    "matching_generator",
    "color_orbits",
    "distance_table",
    "dd",
    "dd_by_cases",
    "t_distance",
    "triple_orbits",
    "triple_words",
    "group_order",
    "full_group_census",
    "d6_certificate",
    "perm_group_order",
    "representative_words",
]


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLabel:
    """Signed pair label +-v(i,j) with 0 <= i < j <= 7."""

    sign: int
    i: int
    j: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if not (0 <= self.i < self.j <= 7):
            raise ValueError("need 0 <= i < j <= 7")

    def __str__(self):
        return f"{'+' if self.sign > 0 else '-'}v({self.i},{self.j})"

    def __neg__(self):
        return MLabel(-self.sign, self.i, self.j)

    @property
    def pair(self):
        return (self.i, self.j)

    def sort_key(self):
        return (self.i, self.j, -self.sign)


@dataclass(frozen=True)
class JLabel:
    """Six-sign string with an even number of minuses; also named p0..p15/n0..n15."""

    signs: tuple

    def __post_init__(self):
        if len(self.signs) != 6 or any(s not in (1, -1) for s in self.signs):
            raise ValueError("need six signs +-1")
        if sum(1 for s in self.signs if s < 0) % 2:
            raise ValueError("sign string must have an even number of minuses")

    def __str__(self):
        return self.pn_name()

    def pn_name(self) -> str:
        # halves with an even minus count mean a p label, odd means n
        first, second = self.signs[:3], self.signs[3:]
        if sum(1 for s in first if s < 0) % 2 == 0:
            r = _BLOCKS.index(first)
            q = _BLOCKS.index(second)
            return f"p{4 * q + r}"
        r = _BLOCKS.index(tuple(-s for s in first))
        q = _BLOCKS.index(tuple(-s for s in second))
        return f"n{4 * q + r}"

    def __neg__(self):
        return JLabel(tuple(-s for s in self.signs))

    def sort_key(self):
        name = self.pn_name()
        return (name[0], int(name[1:]))


_BLOCKS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def j_label_from_name(name: str) -> JLabel:
    kind, num = name[0], int(name[1:])
    if kind not in "pn" or not (0 <= num <= 15):
        raise ValueError(f"bad J label {name!r}")
    return all_j_labels()[16 * "pn".index(kind) + num]


@dataclass(frozen=True)
class LLabel:
    """Label 1..6, optionally barred."""

    index: int
    barred: bool = False

    def __post_init__(self):
        if not (1 <= self.index <= 6):
            raise ValueError("index must be 1..6")

    def __str__(self):
        return f"{self.index}bar" if self.barred else f"{self.index}"

    def __neg__(self):
        return LLabel(self.index, not self.barred)

    def sort_key(self):
        return (self.index, self.barred)


class Color:
    BLUE = "blue"
    RED = "red"
    J = "J"


def all_m_labels():
    return list(_table("M").values())


def all_j_labels():
    return list(_table("J").values())


def all_l_labels():
    return list(_table("L").values())


def all_t_labels():
    return list(_table("T").values())


def parse_label(text: str):
    """Parse any label form: "+v(0,7)", "-v(1,3)", "v(2,5)", "p11", "--+-+-", "4bar"."""
    s = text.strip()
    if "v(" in s:
        sign = 1
        if s[0] in "+-":
            sign = 1 if s[0] == "+" else -1
            s = s[1:]
        if not (s.startswith("v(") and s.endswith(")")):
            raise ValueError(f"bad label {text!r}")
        i_s, j_s = s[2:-1].split(",")
        return MLabel(sign, int(i_s), int(j_s))
    if len(s) == 6 and set(s) <= {"+", "-"}:
        return JLabel(tuple(1 if ch == "+" else -1 for ch in s))
    if s and s[0] in "pn" and s[1:].isdigit():
        return j_label_from_name(s)
    if s.endswith("bar"):
        return LLabel(int(s[:-3]), True)
    if s.isdigit():
        return LLabel(int(s), False)
    raise ValueError(f"bad label {text!r}")


# ---------------------------------------------------------------------------
# the label spaces: one ordered table of classifying forms each
# ---------------------------------------------------------------------------


def _m_rows():
    # +-v(i,j) in combinations() order, + first: x_i + x_j - x_7 and its
    # complement 1 - (x_i + x_j - x_7), with x_0..x_7 = b, h, g, f, e, d, c, a
    x = [LinForm.symbol(W_SYMBOLS, s) for s in "bhgfedca"]
    for i, j in combinations(range(8), 2):
        plus = x[i] + x[j] - x[7]
        yield plus, MLabel(1, i, j)
        yield 1 - plus, MLabel(-1, i, j)


def _j_rows():
    # p0..p15, then n0..n15: p(4q + r) has the signs _BLOCKS[r] + _BLOCKS[q] and
    # the form 1 + A_r - E_q (A_r in A..D, E_q in 1, E, F, G); n(4q + r) negates
    a = [LinForm.symbol(V_SYMBOLS, s) for s in "ABCD"]
    e = [LinForm.const_form(V_SYMBOLS, 1)] + [LinForm.symbol(V_SYMBOLS, s) for s in "EFG"]
    p = [(1 + a[n % 4] - e[n // 4], JLabel(_BLOCKS[n % 4] + _BLOCKS[n // 4])) for n in range(16)]
    yield from p
    yield from ((1 - form, -label) for form, label in p)


# The six free coordinates of the seven-slot side: label k is the coordinate
# x_k = (form)/4 in the seven parameters, and kbar is -x_k.  The
# second-family invariance group fixes x_4 pointwise, so the functional
# (slot6 + slot7 - slot5 - 1)/4 of an arrangement is constant on cosets and
# always lands on one of these twelve forms.
_L_INVARIANT_FORMS = {
    1: "A+B-C-D", 2: "A+C-B-D", 3: "A+D-B-C",
    4: "F+G-E-1", 5: "E+G-F-1", 6: "E+F-G-1",
}


def _l_rows():
    # 1, 1bar, ..., 6, 6bar
    for k, text in _L_INVARIANT_FORMS.items():
        form = LinForm.parse(text, V_SYMBOLS) * Fraction(1, 4)
        yield form, LLabel(k)
        yield -form, LLabel(k, True)


# each space's rows (classifying form, label) in label order, its side, and
# its classifying quantity (see _classify); T is L followed by J
_SPACES = {
    "M": (_m_rows, "w", lambda f: f[1]),
    "J": (_j_rows, "v", lambda f: f[0]),
    "L": (_l_rows, "v", lambda f: (f[5] + f[6] - f[4] - 1) * Fraction(1, 4)),
    "T": (lambda: (*_l_rows(), *_j_rows()), "v", None),
}


@lru_cache(maxsize=None)
def _table(space: str):
    """Each label of a space keyed by its classifying form, reduced modulo
    the hyperplane, as a read-only mapping in label order."""
    rows = [(form.reduced(), label) for form, label in _SPACES[space][0]()]
    table = dict(rows)
    assert len(table) == len(rows), "coset-defining forms must be pairwise distinct"
    return MappingProxyType(table)


def _classify(space: str, forms: Sequence[LinForm]):
    """Label of the coset containing the group element that produced the
    forms (its image of the symbol forms): the space's classifying quantity,
    reduced modulo the hyperplane, must match one of its labels' forms.

    The quantity is the second slot for M and the first for J.  For L it is
    (slot6 + slot7 - slot5 - 1)/4, which the arrangement-fixing subgroup
    leaves unchanged; the identity classifies as label 4.  (The raw fifth
    slot is *not* a coset invariant: within one coset different
    representatives show different fifth-slot forms.)
    """
    f = _SPACES[space][2](forms).reduced()
    table = _table(space)
    if f not in table:
        raise ValueError(f"{space}: classifying form {f} matches no coset form")
    return table[f]


def classify_m(forms: Sequence[LinForm]) -> MLabel:
    """M label of eight forms, by _classify."""
    return _classify("M", forms)


def classify_j(forms: Sequence[LinForm]) -> JLabel:
    """J label of seven forms, by _classify."""
    return _classify("J", forms)


def classify_l(forms: Sequence[LinForm]) -> LLabel:
    """L label of seven forms, by _classify."""
    return _classify("L", forms)


# ---------------------------------------------------------------------------
# generator actions on labels
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _space(space: str):
    """Labels of a space, their indices, and each generator as a read-only
    index array of images (label k goes to label perms[g][k]), read off the
    generator's matrix.

    A label's classifying form, its key in the space's table, is an affine
    form in the rows of any coset representative r, and the representative
    r g substitutes g's images of the symbols into it.  So the forms, in
    label order, are stacked as integer rows (constant first) over one even
    denominator and act by one product with g's doubled matrix, the
    constant column held fixed; the images, reduced modulo the hyperplane
    (whose last coefficient is 1), are again keys.  A generator that moves
    the hyperplane, leaves the denominator or reaches no key raises
    ValueError.
    """
    table, side = _table(space), _SPACES[space][1]
    labels = tuple(table.values())
    coefs = [(form.const, *form.coefs) for form in table]
    den = math.lcm(2, *(q.denominator for row in coefs for q in row))
    rows = np.array([[int(q * den) for q in row] for row in coefs])
    keys = {row: k for k, row in enumerate(map(tuple, rows.tolist()))}
    plane = HYPERPLANES[W_SYMBOLS if side == "w" else V_SYMBOLS]
    plane = np.array([int(q) for q in (plane.const, *plane.coefs)])
    perms = {}
    for g in W_GENERATOR_NAMES if side == "w" else V_GENERATOR_NAMES:
        doubled = np.zeros((len(plane),) * 2, dtype=np.int64)
        doubled[0, 0], doubled[1:, 1:] = 2, generator(side, g).twice
        if not np.array_equal(plane @ doubled, 2 * plane):
            raise ValueError(f"{g} does not preserve the hyperplane")
        image = rows @ doubled
        if (image & 1).any():
            raise ValueError(f"{g} takes a classifying form off the denominator {den}")
        image >>= 1
        image -= np.outer(image[:, -1], plane)
        found = [keys.get(row) for row in map(tuple, image.tolist())]
        if None in found:
            raise ValueError(f"{g} takes a classifying form to no label")
        perms[g] = np.array(found)
        perms[g].setflags(write=False)
    return labels, {lab: k for k, lab in enumerate(labels)}, perms


def act(space: str, gen: str, label):
    """Image of a label of space M, J, L or T under a generator."""
    labels, index, perms = _space(space)
    return labels[perms[gen][index[label]]]


# ---------------------------------------------------------------------------
# the blue/red/J correspondence
# ---------------------------------------------------------------------------


def orbit_color(label: MLabel) -> str:
    """Which of the three index-action orbits the label belongs to."""
    if label.i == 0 and label.j >= 2:
        return Color.BLUE if label.sign > 0 else Color.RED
    if label.i == 1 and label.j >= 2:
        return Color.RED if label.sign > 0 else Color.BLUE
    return Color.J


def jl_label(label: MLabel):
    """Map an eight-slot label to (color, seven-slot label).

    Blue labels v(0,j)/-v(1,j) go to the L label j-1 (barred for the negated
    ones); red ones are the mirror family; everything else goes to a J sign
    string: v(0,1) is all-plus, v(i,j) with 2 <= i < j has plus exactly in
    positions i-1 and j-1 counted from 1, and negation flips the string.
    """
    color = orbit_color(label)
    if color in (Color.BLUE, Color.RED):
        # blue v(0,j) and red v(1,j) unbarred, blue -v(1,j) and red -v(0,j) barred
        return color, LLabel(label.j - 1, label.sign < 0)
    if (label.i, label.j) == (0, 1):
        s = JLabel((1,) * 6)
        return Color.J, s if label.sign > 0 else -s
    signs = [-1] * 6
    signs[label.i - 2] = 1
    signs[label.j - 2] = 1
    s = JLabel(tuple(signs))
    return Color.J, s if label.sign > 0 else -s


@lru_cache(maxsize=1)
def _jl_inverse() -> dict:
    inverse = {jl_label(lab): lab for lab in all_m_labels()}
    assert len(inverse) == 56, "jl_label must be injective"
    return inverse


def jl_preimage(t_label, color: str = None) -> MLabel:
    """Inverse of jl_label.  For L labels the color (blue or red) is required;
    the blue preimage is the default used by the distance compression."""
    if isinstance(t_label, LLabel):
        color = color or Color.BLUE
        if color not in (Color.BLUE, Color.RED):
            raise ValueError("color must be blue or red for L labels")
    elif isinstance(t_label, JLabel):
        color = Color.J
    else:
        raise TypeError("expected a J or L label")
    return _jl_inverse()[color, t_label]


_GENERATOR_BRIDGE = dict(zip(Q_GENERATOR_NAMES, ("a5", "a4", "a3", "a2", "a1", "a1'")))


def matching_generator(gen: str) -> str:
    """Seven-slot-side generator matching an index-action generator.

    s_k maps to a_{6-k} for k = 1..5 and the branch generator maps to the
    branch generator; the last simple reflection s6 has no counterpart.
    """
    if gen not in _GENERATOR_BRIDGE:
        raise KeyError(f"{gen!r} does not act on the seven-slot side")
    return _GENERATOR_BRIDGE[gen]


# ---------------------------------------------------------------------------
# the permutation-group core
# ---------------------------------------------------------------------------

def _orbit_words(perms: dict, start: int) -> dict:
    """Breadth-first orbit of a point: each point reached, in the order
    reached, with the first minimal-length word (letters in the order of
    perms) that carries start to it."""
    lists = [(g, perm.tolist()) for g, perm in perms.items()]
    words = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g, perm in lists:
                q = perm[p]
                if q not in words:
                    words[q] = words[p] + (g,)
                    nxt.append(q)
        frontier = nxt
    return words


def _word_perm(space: str, word: Sequence[str]) -> np.ndarray:
    """Permutation of a word, its letters applied in order."""
    labels, _, perms = _space(space)
    return reduce(lambda u, g: perms[g][u], word, np.arange(len(labels)))


def perm_group_order(gens: Sequence) -> int:
    """Order of the group generated by permutations of 0..n-1 (sequences or
    index arrays of images, at least one, all of length n; anything else
    raises ValueError), by the Schreier-Sims algorithm.

    The chain keeps base points b_0, b_1, ... and one list of strong
    generators.  Level i acts through every strong generator that fixes
    b_0..b_{i-1}, including those found at deeper levels, and holds the
    orbit of b_i with the inverses of a transversal.  Levels are verified
    from the deepest up: each Schreier generator of level i must sift to the
    identity through the levels below it.  One that does not becomes a
    strong generator, and the check restarts at the level where its sifting
    stopped.  The order is the product of the orbit lengths.  Permutations
    are intp index arrays: g then h is h[g], the inverse of u is argsort(u),
    and g is the identity when its bytes are the identity's.  Transversals
    are keyed, and looked up, by Python ints.
    """
    gens = [np.asarray(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    ident = np.arange(gens[0].size, dtype=np.intp)
    one = ident.tobytes()
    base, strong, chain = [], [], []

    def add(g):
        if np.array_equal(g[base], base):
            base.append(int(np.flatnonzero(g != ident)[0]))
            chain.append(None)
        strong.append(g)

    def sift(g, i):
        for j in range(i, len(base)):
            u_inv = chain[j].get(g.item(base[j]))
            if u_inv is None:
                return g, j
            g = u_inv[g]
        return g, len(base)

    for g in gens:
        if g.shape != ident.shape or not np.array_equal(np.sort(g), ident):
            raise ValueError(f"{g.tolist()} is not a permutation of 0..{len(ident) - 1}")
        g = g.astype(np.intp)
        if g.tobytes() != one:
            add(g)
    i = len(base) - 1
    while i >= 0:
        level = [g for g in strong if np.array_equal(g[base[:i]], base[:i])]
        words = _orbit_words(dict(enumerate(level)), base[i])
        trans = {p: reduce(lambda u, k: level[k][u], w, ident) for p, w in words.items()}
        chain[i] = {p: np.argsort(u) for p, u in trans.items()}
        sifted = (sift(chain[i][s.item(p)][s[u]], i + 1) for p, u in trans.items() for s in level)
        h, j = next(((h, j) for h, j in sifted if h.tobytes() != one), (None, i - 1))
        if h is not None:
            add(h)
        i = j
    return math.prod(len(orbit) for orbit in chain)


@lru_cache(maxsize=None)
def representative_words(space: str = "M"):
    """Minimal-length, first-found representative word for every label, as
    a read-only mapping built once per space.

    Words compose left to right; the word's label is the result of applying
    its letters in order to the identity's label, the classify_m, classify_j
    or classify_l of the symbol forms (+v(0,7), the all-plus string or the
    label 4).
    """
    if space not in ("M", "J", "L"):
        raise ValueError("space must be M, J or L")
    labels, index, perms = _space(space)
    words = _orbit_words(perms, index[_classify(space, symbol_forms(_SPACES[space][1]))])
    return MappingProxyType({labels[k]: word for k, word in words.items()})


def _orbit_minima(images, n: int) -> np.ndarray:
    """The smallest point of each point's orbit under index arrays of images
    of 0..n-1.  orbit[x] is always a point of x's orbit, so each sweep of
    the images ends by pointer jumping, orbit[orbit]."""
    orbit, last = np.arange(n), None
    while not np.array_equal(orbit, last):
        last = orbit
        for img in images:
            orbit = np.minimum(orbit, orbit[img])
        orbit = orbit[orbit]
    return orbit


def color_orbits():
    """The three orbits of the 56 labels under the six index-action
    generators, each in label order, ordered by their first labels."""
    labels, _, perms = _space("M")
    orbit = _orbit_minima([perms[g] for g in Q_GENERATOR_NAMES], len(labels)).tolist()
    return [[lab for lab, o in zip(labels, orbit) if o == first] for first in sorted(set(orbit))]


def group_order(name: str) -> int:
    """Order of a named subgroup: Schreier-Sims on the permutations its
    generator words induce on the 56 labels (eight-slot side) or on the 44
    T labels (seven-slot side).  See full_group_census for why the
    permutation order is the order of the matrix group."""
    if name not in SUBGROUP_WORDS:
        raise KeyError(f"unknown group {name!r}")
    side, words = SUBGROUP_WORDS[name]
    space = "M" if side == "w" else "T"
    return perm_group_order([_word_perm(space, word) for word in words])


def full_group_census() -> int:
    """Order of the full eight-slot-side group W(E7), by Schreier-Sims on the
    permutations its seven generators induce on the 56 labels.

    The permutation order certifies the order of the matrix group:

    1. Check 03 proves that the generator matrices satisfy the Coxeter
       relations of E7, so the matrix group is a quotient of the abstract
       W(E7), whose order is the product of its degrees, 2,903,040.
    2. Each generator's permutation is read off its matrix, acting on the
       classifying forms of the cosets (by construction, in _space), so the
       permutation group is the image of the matrix group acting on cosets.
    3. An image of the full order 2,903,040 therefore makes both maps
       isomorphisms.

    The seven-slot side is certified the same way, through the forms of
    classify_j and classify_l; d6_certificate shows that its group is W(D6),
    of order 23,040, and that the index-action subgroup Q is isomorphic to it.
    """
    return perm_group_order([_word_perm("M", (g,)) for g in W_GENERATOR_NAMES])


def d6_certificate() -> dict:
    """Q is isomorphic to W(D6), certified on the 12 L labels.

    Label k stands for the coordinate x_k and kbar for -x_k, so a generator
    that commutes with the bar and bars an even number of the labels 1..6
    is an even signed permutation of six coordinates, an element of W(D6),
    of order 2^5 * 6! = 23,040.  Generators that are all even and generate
    that order generate W(D6).  If the six bridged pairs (each Q generator
    on the 56 M labels beside its match on the 12 L labels) generate that
    order too, both projections are bijective: the bridge extends to an
    isomorphism from Q onto W(D6).

    Returns the coordinate forms, each generator's images of the labels
    1..6, whether all are even, and the two orders.  Raises ValueError for
    a generator that does not commute with the bar.
    """
    labels, index, perms = _space("L")
    bar = np.array([index[-lab] for lab in labels])
    unbarred = [index[LLabel(k)] for k in _L_INVARIANT_FORMS]
    signed, even = {}, True
    for g, p in perms.items():
        if not np.array_equal(bar[p], p[bar]):
            raise ValueError(f"{g} is not a signed permutation of the six coordinates")
        images = [labels[p[k]] for k in unbarred]
        even = even and sum(lab.barred for lab in images) % 2 == 0
        signed[g] = [str(lab) for lab in images]
    m_perms = _space("M")[2]
    bridged = [np.concatenate([m_perms[s], 56 + perms[g]]) for s, g in _GENERATOR_BRIDGE.items()]
    return {
        "coordinates": {str(k): f"({text})/4" for k, text in _L_INVARIANT_FORMS.items()},
        "signed_permutations": signed,
        "even": even,
        "order": perm_group_order(list(perms.values())),
        "bridged_order": perm_group_order(bridged),
    }


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def distance_table(space: str) -> np.ndarray:
    """Every distance between two labels of a space, as a read-only table in
    the space's label order (all_m_labels(), all_j_labels() and so on).

    M: the discrete distance (1/16)|v(u) - v(w)|^2 of the label vectors
    v = +-(4(e_i + e_j) - sum_k e_k), always 0, 2, 4 or 6.  Every |v|^2 is
    24, so for V the 56x8 matrix of label vectors the table is
    (48 - 2 V V^T)/16.  J, L and T read M at their labels' blue preimages.
    """
    labels = _space(space)[0]
    if space == "M":
        v = np.array([lab.sign * (4 * np.isin(np.arange(8), lab.pair) - 1) for lab in labels])
        table = (48 - 2 * v @ v.T) // 16
    else:
        m_index = _space("M")[1]
        pre = [m_index[jl_preimage(lab)] for lab in labels]
        table = distance_table("M")[np.ix_(pre, pre)]
    table.setflags(write=False)
    return table


def dd(u: MLabel, v: MLabel) -> int:
    """Discrete distance between two eight-slot labels, from distance_table("M")."""
    index = _space("M")[1]
    return int(distance_table("M")[index[u], index[v]])


def dd_by_cases(u: MLabel, v: MLabel) -> int:
    """Same distance from the case table: overlap size and relative sign."""
    overlap = len({u.i, u.j} & {v.i, v.j})
    same = u.sign == v.sign
    if overlap == 2:
        return 0 if same else 6
    if overlap == 1:
        return 2 if same else 4
    return 4 if same else 2


def t_distance(s, t) -> int:
    """Distance on the 44 seven-slot labels via blue preimages, from distance_table("T")."""
    index = _space("T")[1]
    return int(distance_table("T")[index[s], index[t]])


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

def _type_keys(space: str, tri: np.ndarray) -> np.ndarray:
    """Type key of each row of label indices: the sorted pairwise distances
    as three decimal digits and, in T, the number of L labels as the fourth."""
    d = distance_table(space)
    i, j, k = tri.T
    a, b, c = d[i, j], d[i, k], d[j, k]
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    keys = 100 * lo + 10 * (a + b + c - lo - hi) + hi
    if space == "T":
        is_l = np.array([isinstance(lab, LLabel) for lab in _space(space)[0]])
        keys += 1000 * is_l[tri].sum(axis=1)
    return keys


def _type_tag(space: str, key) -> str:
    # the type tag of a key of _type_keys: the sorted pairwise distances
    # (after the J/L mixture in T), or in L coherent when the three indices
    # differ, which is when every pairwise distance is 2
    if space == "L":
        return "coherent" if key == 222 else "incoherent"
    n_l, digits = divmod(int(key), 1000)
    mixture = "J" * (3 - n_l) + "L" * n_l + ":" if space == "T" else ""
    return f"{mixture}{digits:03d}"


@lru_cache(maxsize=None)
def _triples(space: str):
    """The action on three-element label sets, as read-only tables built
    once per space: the sets as rows of label indices i < j < k in the order
    of combinations(), an n x n rank table in which the row of {i < j < k}
    is rank[i, j] + k, and each generator's image of every row as a row.

    The rows that share i and j are consecutive, with k counting up from
    j + 1, so a row's own index minus its k is the same for all of them.
    """
    labels, _, perms = _space(space)
    n = len(labels)
    i, j = np.triu_indices(n, 1)
    count = n - 1 - j
    offset = np.cumsum(count) - count - j - 1
    rank = np.zeros((n, n), dtype=np.intp)
    rank[i, j] = offset
    k = np.arange(count.sum()) - np.repeat(offset, count)
    columns = np.stack([np.repeat(i, count), np.repeat(j, count), k])
    images = {}
    for g, p in perms.items():
        # sort each image set: with lo <= hi the first two, the middle of
        # three is max(lo, min(hi, c))
        a, b, c = p[columns]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        mid = np.maximum(lo, np.minimum(hi, c))
        images[g] = rank.take(np.minimum(lo, c) * n + mid) + np.maximum(hi, c)
    for table in (columns, rank, *images.values()):
        table.setflags(write=False)
    return columns.T, rank, MappingProxyType(images)


def triple_orbits(space: str):
    """Orbit decomposition of all three-element label sets under the action.

    Returns a list of dicts (space, size, type, representative), one per
    orbit in the order in which combinations() first meets it; the
    representative is that first set with its members sorted.  The type tag
    is checked to be constant on each orbit, not assumed.
    """
    labels = _space(space)[0]
    tri, _, images = _triples(space)
    orbit = _orbit_minima(images.values(), len(tri))
    keys = _type_keys(space, tri)
    assert np.array_equal(keys, keys[orbit]), f"{space}: type tag not orbit-constant"
    out = []
    for first, size in zip(*np.unique(orbit, return_counts=True)):
        # members in label order, L labels before J labels in T
        rep = sorted((labels[k] for k in tri[first]), key=lambda l: (isinstance(l, JLabel), l.sort_key()))
        out.append({
            "space": space,
            "size": int(size),
            "type": _type_tag(space, keys[first]),
            "representative": tuple(str(x) for x in rep),
        })
    return out


def triple_words(space: str, triple) -> dict:
    """Each set in the orbit of a three-element label set, as a frozenset in
    breadth-first order, with the first minimal-length word (letters applied
    in order) that carries the given set to it.  A repeated label raises
    ValueError."""
    labels, index, _ = _space(space)
    tri, rank, images = _triples(space)
    i, j, k = sorted(index[lab] for lab in triple)
    if not i < j < k:
        raise ValueError("need three different labels")
    words = _orbit_words(images, int(rank[i, j] + k))
    return {frozenset(labels[k] for k in tri[row]): word for row, word in words.items()}
