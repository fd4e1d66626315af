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

Words, orbits, group orders and triple censuses share one permutation-group
core: every generator as a permutation of label indices (built on first
use), one breadth-first orbit walk that records words, and Schreier-Sims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .exactalg import (
    LinForm,
    SUBGROUP_WORDS,
    V_SYMBOLS,
    W_GENERATOR_NAMES,
    W_SYMBOLS,
)

__all__ = [
    "MLabel",
    "JLabel",
    "LLabel",
    "Color",
    "act_m",
    "act_j",
    "act_l",
    "act_t",
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
    "label_vector",
    "dd",
    "dd_by_cases",
    "hamming",
    "t_distance",
    "triple_type",
    "triple_orbits",
    "group_order",
    "full_group_census",
    "d6_certificate",
    "perm_group_order",
    "representative_words",
    "M_BFS_GENERATOR_ORDER",
    "J_BFS_GENERATOR_ORDER",
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
    q, r = divmod(num, 4)
    signs = _BLOCKS[r] + _BLOCKS[q]
    if kind == "n":
        signs = tuple(-s for s in signs)
    return JLabel(tuple(signs))


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
    out = []
    for i, j in combinations(range(8), 2):
        out.append(MLabel(1, i, j))
        out.append(MLabel(-1, i, j))
    return out


def all_j_labels():
    return [j_label_from_name(f"{k}{n}") for k in "pn" for n in range(16)]


def all_l_labels():
    return [LLabel(i, b) for i in range(1, 7) for b in (False, True)]


def all_t_labels():
    return all_l_labels() + all_j_labels()


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
# generator actions on labels
# ---------------------------------------------------------------------------

_K0 = frozenset({0, 1, 2, 3})
_K1 = frozenset({4, 5, 6, 7})


def act_m(gen: str, label: MLabel) -> MLabel:
    """Action of an eight-slot-side generator on the 56 labels.

    s_m with 1 <= m <= 6 transposes the index values 7-m and 8-m; the branch
    generator flips the sign and complements the pair inside {0,1,2,3} or
    {4,5,6,7} when the pair lies inside one of them, else acts trivially.
    """
    if gen == "s3'":
        pair = {label.i, label.j}
        for block in (_K0, _K1):
            if pair <= block:
                comp = sorted(block - pair)
                return MLabel(-label.sign, comp[0], comp[1])
        return label
    if gen in ("s1", "s2", "s3", "s4", "s5", "s6"):
        m = int(gen[1])
        u, v = 7 - m, 8 - m
        swap = {u: v, v: u}
        i2 = swap.get(label.i, label.i)
        j2 = swap.get(label.j, label.j)
        if i2 > j2:
            i2, j2 = j2, i2
        return MLabel(label.sign, i2, j2)
    raise KeyError(f"unknown generator {gen!r}")


def act_j(gen: str, label: JLabel) -> JLabel:
    """Action of a seven-slot-side generator on the 32 sign strings."""
    s = list(label.signs)
    if gen in ("a1", "a2", "a3", "a4", "a5"):
        k = int(gen[1])
        s[k - 1], s[k] = s[k], s[k - 1]
        return JLabel(tuple(s))
    if gen == "a1'":
        s0, s1 = s[0], s[1]
        s[0], s[1] = -s1, -s0
        return JLabel(tuple(s))
    raise KeyError(f"unknown generator {gen!r}")


def act_l(gen: str, label: LLabel) -> LLabel:
    """Action of a seven-slot-side generator on the 12 barred labels."""
    if gen in ("a1", "a2", "a3", "a4", "a5"):
        k = int(gen[1])
        if label.index == k:
            return LLabel(k + 1, label.barred)
        if label.index == k + 1:
            return LLabel(k, label.barred)
        return label
    if gen == "a1'":
        if label.index == 1:
            return LLabel(2, not label.barred)
        if label.index == 2:
            return LLabel(1, not label.barred)
        return label
    raise KeyError(f"unknown generator {gen!r}")


def act_t(gen: str, label):
    if isinstance(label, JLabel):
        return act_j(gen, label)
    if isinstance(label, LLabel):
        return act_l(gen, label)
    raise TypeError("T labels are J or L labels")


# ---------------------------------------------------------------------------
# classification of symbolic vectors
# ---------------------------------------------------------------------------


def _x_forms():
    # x_0..x_7 = b, h, g, f, e, d, c, a as forms
    order = ["b", "h", "g", "f", "e", "d", "c", "a"]
    return [LinForm.symbol(W_SYMBOLS, s) for s in order]


@lru_cache(maxsize=1)
def _m_classify_table():
    x = _x_forms()
    table = {}
    for i, j in combinations(range(8), 2):
        plus = (x[i] + x[j] - x[7]).reduced()
        minus = (LinForm.const_form(W_SYMBOLS, 1) + x[7] - x[i] - x[j]).reduced()
        table[plus] = MLabel(1, i, j)
        table[minus] = MLabel(-1, i, j)
    assert len(table) == 56, "coset-defining forms must be pairwise distinct"
    return table


def classify_m(forms: Sequence[LinForm]) -> MLabel:
    """Label of the coset containing the group element that produced the
    eight forms (its image of the symbol forms).

    The second slot determines the coset; it must match one of the 56
    defining forms modulo the hyperplane.
    """
    f = forms[1].reduced()
    table = _m_classify_table()
    if f not in table:
        raise ValueError(f"second slot {f} matches no coset form")
    return table[f]


@lru_cache(maxsize=1)
def _j_classify_table():
    a_forms = [LinForm.symbol(V_SYMBOLS, s) for s in ("A", "B", "C", "D")]
    e_forms = [
        LinForm.const_form(V_SYMBOLS, 1),
        LinForm.symbol(V_SYMBOLS, "E"),
        LinForm.symbol(V_SYMBOLS, "F"),
        LinForm.symbol(V_SYMBOLS, "G"),
    ]
    table = {}
    for q in range(4):
        for r in range(4):
            p_form = (LinForm.const_form(V_SYMBOLS, 1) + a_forms[r] - e_forms[q]).reduced()
            n_form = (e_forms[q] - a_forms[r]).reduced()
            table[p_form] = j_label_from_name(f"p{4 * q + r}")
            table[n_form] = j_label_from_name(f"n{4 * q + r}")
    assert len(table) == 32, "coset-defining forms must be pairwise distinct"
    return table


def classify_j(forms: Sequence[LinForm]) -> JLabel:
    """J label determined by the first of seven forms, modulo the hyperplane."""
    f = forms[0].reduced()
    table = _j_classify_table()
    if f not in table:
        raise ValueError(f"first slot {f} matches no J coset form")
    return table[f]


# The six free coordinates of the seven-slot side: label k is the coordinate
# x_k = (form)/4 in the seven parameters, and kbar is -x_k.  The
# second-family invariance group fixes x_4 pointwise, so the functional
# (slot6 + slot7 - slot5 - 1)/4 of an arrangement is constant on cosets and
# always lands on one of these twelve forms.
_L_INVARIANT_FORMS = {
    1: "A+B-C-D", 2: "A+C-B-D", 3: "A+D-B-C",
    4: "F+G-E-1", 5: "E+G-F-1", 6: "E+F-G-1",
}


@lru_cache(maxsize=1)
def _l_classify_table():
    table = {}
    for k, text in _L_INVARIANT_FORMS.items():
        form = LinForm.parse(text, V_SYMBOLS) * Fraction(1, 4)
        table[form.reduced()] = LLabel(k)
        table[(-form).reduced()] = LLabel(k, True)
    assert len(table) == 12, "coset-defining forms must be pairwise distinct"
    return table


def classify_l(forms: Sequence[LinForm]) -> LLabel:
    """L label of seven forms: a group image of the symbol forms.

    The classifying quantity is (slot6 + slot7 - slot5 - 1)/4 modulo the
    hyperplane, which the arrangement-fixing subgroup leaves unchanged; the
    identity classifies as label 4.  (The raw fifth slot is *not* a coset
    invariant: within one coset different representatives show different
    fifth-slot forms.)
    """
    r = ((forms[5] + forms[6] - forms[4] - 1) * Fraction(1, 4)).reduced()
    table = _l_classify_table()
    if r not in table:
        raise ValueError(f"arrangement invariant {r} matches no L coset form")
    return table[r]


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
        if label.i == 0:
            # v(0,j) blue unbarred, -v(0,j) red barred
            return color, LLabel(label.j - 1, label.sign < 0)
        # i == 1: -v(1,j) blue barred, v(1,j) red unbarred
        return color, LLabel(label.j - 1, label.sign < 0)
    if (label.i, label.j) == (0, 1):
        s = JLabel((1,) * 6)
        return Color.J, s if label.sign > 0 else -s
    signs = [-1] * 6
    signs[label.i - 2] = 1
    signs[label.j - 2] = 1
    s = JLabel(tuple(signs))
    return Color.J, s if label.sign > 0 else -s


def jl_preimage(t_label, color: str = None) -> MLabel:
    """Inverse of jl_label.  For L labels the color (blue or red) is required;
    the blue preimage is the default used by the distance compression."""
    if isinstance(t_label, LLabel):
        color = color or Color.BLUE
        j = t_label.index + 1
        if color == Color.BLUE:
            return MLabel(-1, 1, j) if t_label.barred else MLabel(1, 0, j)
        if color == Color.RED:
            return MLabel(-1, 0, j) if t_label.barred else MLabel(1, 1, j)
        raise ValueError("color must be blue or red for L labels")
    if isinstance(t_label, JLabel):
        plus_positions = [k for k, s in enumerate(t_label.signs) if s > 0]
        if len(plus_positions) == 6:
            return MLabel(1, 0, 1)
        if len(plus_positions) == 0:
            return MLabel(-1, 0, 1)
        if len(plus_positions) == 2:
            i, j = plus_positions
            return MLabel(1, i + 2, j + 2)
        if len(plus_positions) == 4:
            minus_positions = [k for k, s in enumerate(t_label.signs) if s < 0]
            i, j = minus_positions
            return MLabel(-1, i + 2, j + 2)
        raise ValueError("not a valid J string")
    raise TypeError("expected a J or L label")


_GENERATOR_BRIDGE = {
    "s1": "a5",
    "s2": "a4",
    "s3": "a3",
    "s4": "a2",
    "s5": "a1",
    "s3'": "a1'",
}


def matching_generator(gen: str) -> str:
    """Seven-slot-side generator matching an index-action generator.

    s_k maps to a_{6-k} for k = 1..5 and the branch generator maps to the
    branch generator; the last simple reflection s6 has no counterpart.
    """
    if gen not in _GENERATOR_BRIDGE:
        raise KeyError(f"{gen!r} does not act on the seven-slot side")
    return _GENERATOR_BRIDGE[gen]


# ---------------------------------------------------------------------------
# vectors and distances
# ---------------------------------------------------------------------------


def label_vector(label: MLabel) -> np.ndarray:
    """Eight-component integer vector +-(4(e_{i+1}+e_{j+1}) - sum e_k)."""
    v = -np.ones(8, dtype=np.int64)
    v[label.i] += 4
    v[label.j] += 4
    return label.sign * v


def dd(u: MLabel, v: MLabel) -> int:
    """Discrete distance: (1/16) |vec(u) - vec(v)|^2, always in {0,2,4,6}."""
    diff = label_vector(u) - label_vector(v)
    q = int(np.dot(diff, diff))
    assert q % 16 == 0
    return q // 16


def dd_by_cases(u: MLabel, v: MLabel) -> int:
    """Same distance from the case table: overlap size and relative sign."""
    overlap = len({u.i, u.j} & {v.i, v.j})
    same = u.sign == v.sign
    if overlap == 2:
        return 0 if same else 6
    if overlap == 1:
        return 2 if same else 4
    return 4 if same else 2


def hamming(s: JLabel, t: JLabel) -> int:
    return sum(1 for x, y in zip(s.signs, t.signs) if x != y)


def t_distance(s, t) -> int:
    """Distance on the 44 seven-slot labels via blue preimages."""
    return dd(jl_preimage(s), jl_preimage(t))


# ---------------------------------------------------------------------------
# the permutation-group core
# ---------------------------------------------------------------------------

# fixed expansion order: reproducible minimal-length lexicographically-first words
M_BFS_GENERATOR_ORDER = ("s1", "s2", "s3", "s4", "s5", "s3'", "s6")
J_BFS_GENERATOR_ORDER = ("a1", "a2", "a3", "a4", "a5", "a1'")

# label list, generators in expansion order, and action of each space
_SPACES = {
    "M": (all_m_labels, M_BFS_GENERATOR_ORDER, act_m),
    "J": (all_j_labels, J_BFS_GENERATOR_ORDER, act_j),
    "L": (all_l_labels, J_BFS_GENERATOR_ORDER, act_l),
    "T": (all_t_labels, J_BFS_GENERATOR_ORDER, act_t),
}


@lru_cache(maxsize=None)
def _space(space: str):
    """Labels of a space, their indices, and each generator as the tuple of
    image indices (label k goes to label perms[g][k])."""
    labels_fn, gens, act = _SPACES[space]
    labels = tuple(labels_fn())
    index = {lab: k for k, lab in enumerate(labels)}
    perms = {g: tuple(index[act(g, lab)] for lab in labels) for g in gens}
    return labels, index, perms


def _orbit_words(perms: dict, start: int) -> dict:
    """Breadth-first orbit of a point: each point reached, in the order
    reached, with the first minimal-length word (letters in the order of
    perms) that carries start to it."""
    words = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g, perm in perms.items():
                q = perm[p]
                if q not in words:
                    words[q] = words[p] + (g,)
                    nxt.append(q)
        frontier = nxt
    return words


def _mul(p: tuple, q: tuple) -> tuple:
    # p, then q
    return tuple(q[k] for k in p)


def _inv(p: tuple) -> tuple:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _word_perm(space: str, word: Sequence[str]) -> tuple:
    """Permutation of a word, its letters applied in order."""
    labels, _, perms = _space(space)
    return reduce(_mul, (perms[g] for g in word), tuple(range(len(labels))))


def perm_group_order(gens: Sequence[tuple]) -> int:
    """Order of the group generated by permutations of 0..n-1 (tuples of
    images, at least one), by the Schreier-Sims algorithm.

    The chain keeps base points b_0, b_1, ... and one list of strong
    generators.  Level i acts through every strong generator that fixes
    b_0..b_{i-1}, including those found at deeper levels, and holds the
    orbit of b_i with the inverses of a transversal.  Levels are verified
    from the deepest up: each Schreier generator of level i must sift to the
    identity through the levels below it.  One that does not becomes a
    strong generator, and the check restarts at the level where its sifting
    stopped.  The order is the product of the orbit lengths.
    """
    ident = tuple(range(len(gens[0])))
    base, strong, chain = [], [], []

    def add(g):
        if all(g[b] == b for b in base):
            base.append(next(k for k, gk in enumerate(g) if gk != k))
            chain.append(None)
        strong.append(g)

    def sift(g, i):
        for j in range(i, len(base)):
            u_inv = chain[j].get(g[base[j]])
            if u_inv is None:
                return g, j
            g = _mul(g, u_inv)
        return g, len(base)

    for g in gens:
        if tuple(g) != ident:
            add(tuple(g))
    i = len(base) - 1
    while i >= 0:
        level = [g for g in strong if all(g[b] == b for b in base[:i])]
        words = _orbit_words(dict(enumerate(level)), base[i])
        trans = {p: reduce(_mul, (level[k] for k in w), ident) for p, w in words.items()}
        chain[i] = {p: _inv(u) for p, u in trans.items()}
        sifted = (
            sift(_mul(_mul(u, s), chain[i][s[p]]), i + 1)
            for p, u in trans.items()
            for s in level
        )
        h, j = next(((h, j) for h, j in sifted if h != ident), (None, i - 1))
        if h is not None:
            add(h)
        i = j
    return math.prod(len(orbit) for orbit in chain)


def representative_words(space: str = "M"):
    """Minimal-length, first-found representative word for every label.

    Words compose left to right; the word's label is the result of applying
    its letters in order to the base label: +v(0,7), the all-plus string or
    the label 4, the labels of the identity arrangement under classify_m,
    classify_j and classify_l.
    """
    bases = {"M": MLabel(1, 0, 7), "J": JLabel((1,) * 6), "L": LLabel(4)}
    if space not in bases:
        raise ValueError("space must be M, J or L")
    labels, index, perms = _space(space)
    words = _orbit_words(perms, index[bases[space]])
    return {labels[k]: word for k, word in words.items()}


def color_orbits():
    """The three orbits of the 56 labels under the six index-action generators."""
    labels, index, perms = _space("M")
    gens = {g: perms[g] for g in _GENERATOR_BRIDGE}
    seen = set()
    orbits = []
    for start in sorted(labels, key=MLabel.sort_key):
        if index[start] in seen:
            continue
        members = _orbit_words(gens, index[start])
        seen.update(members)
        orbits.append(sorted((labels[k] for k in members), key=MLabel.sort_key))
    return orbits


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
    2. Each generator matrix induces act_m's permutation on the cosets
       through classify_m (tested), so the permutation group is the image
       of the matrix group acting on cosets.
    3. An image of the full order 2,903,040 therefore makes both maps
       isomorphisms.

    The seven-slot side is certified the same way, with act_j/act_l and
    classify_j/classify_l; d6_certificate shows that its group is W(D6),
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
    bar = tuple(index[-lab] for lab in labels)
    unbarred = [index[LLabel(k)] for k in _L_INVARIANT_FORMS]
    signed, even = {}, True
    for g, p in perms.items():
        if _mul(p, bar) != _mul(bar, p):
            raise ValueError(f"{g} is not a signed permutation of the six coordinates")
        images = [labels[p[k]] for k in unbarred]
        even = even and sum(lab.barred for lab in images) % 2 == 0
        signed[g] = [str(lab) for lab in images]
    m_perms = _space("M")[2]
    bridged = [m_perms[s] + tuple(56 + k for k in perms[g]) for s, g in _GENERATOR_BRIDGE.items()]
    return {
        "coordinates": {str(k): f"({text})/4" for k, text in _L_INVARIANT_FORMS.items()},
        "signed_permutations": signed,
        "even": even,
        "order": perm_group_order(list(perms.values())),
        "bridged_order": perm_group_order(bridged),
    }


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

# the pairwise value behind each space's type tag (in L, 1 when two labels
# share an index)
_PAIR_VALUE = {"M": dd, "J": hamming, "L": lambda a, b: int(a.index == b.index), "T": t_distance}


@lru_cache(maxsize=None)
def _pair_table(space: str) -> np.ndarray:
    labels = _space(space)[0]
    table = np.array([[_PAIR_VALUE[space](a, b) for b in labels] for a in labels])
    table.setflags(write=False)
    return table


def _type_keys(space: str, tri: np.ndarray) -> np.ndarray:
    """Type key of each row of label indices: the sorted pairwise values as
    three decimal digits and, in T, the number of L labels as the fourth."""
    pairs = np.sort(_pair_table(space)[tri[:, [0, 0, 1]], tri[:, [1, 2, 2]]], axis=1)
    keys = pairs @ np.array([100, 10, 1])
    if space == "T":
        is_l = np.array([isinstance(lab, LLabel) for lab in _space(space)[0]])
        keys += 1000 * is_l[tri].sum(axis=1)
    return keys


def triple_type(space: str, triple) -> str:
    """Type tag of a three-element set: its sorted pairwise distances (after
    its J/L mixture in T), or the coherence tag in the L space (coherent when
    the three indices differ)."""
    if space not in _SPACES:
        raise ValueError(f"unknown space {space!r}")
    index = _space(space)[1]
    key = int(_type_keys(space, np.array([[index[x] for x in triple]]))[0])
    if space == "L":
        return "incoherent" if key else "coherent"
    n_l, digits = divmod(key, 1000)
    mixture = "J" * (3 - n_l) + "L" * n_l + ":" if space == "T" else ""
    return f"{mixture}{digits:03d}"


def triple_orbits(space: str):
    """Orbit decomposition of all three-element label sets under the action.

    Returns a list of dicts (space, size, type, representative), one per
    orbit in the order in which combinations() first meets it; the
    representative is that first set with its members sorted.  The type tag
    is checked to be constant on each orbit, not assumed.
    """
    labels, _, perms = _space(space)
    n = len(labels)
    tri = np.array(list(combinations(range(n), 3)))
    code = np.array([n * n, n, 1])
    position = np.zeros(n**3, dtype=np.int64)
    position[tri @ code] = np.arange(len(tri))
    images = [position[np.sort(np.array(p)[tri], axis=1) @ code] for p in perms.values()]
    # every set takes the smallest position in its orbit
    orbit, last = np.arange(len(tri)), None
    while not np.array_equal(orbit, last):
        last = orbit
        for img in images:
            orbit = np.minimum(orbit, orbit[img])
    keys = _type_keys(space, tri)
    assert np.array_equal(keys, keys[orbit]), "type tag not orbit-constant"
    out = []
    for first, size in zip(*np.unique(orbit, return_counts=True)):
        # members in label order, L labels before J labels in T
        rep = sorted((labels[k] for k in tri[first]), key=lambda l: (isinstance(l, JLabel), l.sort_key()))
        out.append({
            "space": space,
            "size": int(size),
            "type": triple_type(space, rep),
            "representative": tuple(str(x) for x in rep),
        })
    return out
