"""Exact affine-linear forms over parameter alphabets, and the matrix groups
that act on them.

Two alphabets are in play: the eight-symbol one (a..h), living on the
hyperplane b+c+d+e+f+g+h = 2+3a, and the seven-symbol one (A..G), living on
the Saalschuetzian hyperplane E+F+G = 1+A+B+C+D.  ``HYPERPLANES`` holds the
two, keyed by alphabet.  A LinForm is an affine-linear combination with
exact rational coefficients, held as integer numerators over one
denominator in lowest terms; equality is always tested either exactly or
modulo its own alphabet's hyperplane (by comparing ``reduced()`` forms).
A vector of forms is a plain tuple of LinForms sharing one alphabet.

Matrices are stored doubled (2x entries) in int64 numpy arrays so that the
half-integer entries occurring here stay exact.  Every product checks that
the result is again half-integer and that entries stay small; a violation
raises ExactArithmeticError instead of silently producing garbage.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

W_SYMBOLS = ("a", "b", "c", "d", "e", "f", "g", "h")
V_SYMBOLS = ("A", "B", "C", "D", "E", "F", "G")

# abort bound for doubled entries; generous, only guards runaway products
_ENTRY_BOUND = 30000


class ExactArithmeticError(ArithmeticError):
    """Raised when matrix arithmetic leaves the checked half-integer domain."""


def _rational(x):
    # ints pass through: they carry numerator and denominator too
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _form(alphabet: tuple, num: tuple, den: int) -> "LinForm":
    """The form num/den (constant first; den != 0) in lowest terms, den > 0."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    f = object.__new__(LinForm)
    f.alphabet, f._num, f._den, f._float_terms = alphabet, num, den, None
    return f


class LinForm:
    """Affine-linear form  const + sum(coef_i * symbol_i)  with exact coefficients.

    Stored as one tuple of ints (the constant first, then one coefficient per
    symbol) over one positive denominator, in lowest terms, so equal forms
    have equal storage and hash alike.  ``const`` and ``coefs`` are read-only
    Fraction views of it.
    """

    __slots__ = ("alphabet", "_num", "_den", "_float_terms")

    def __init__(self, alphabet: Sequence[str], const=0, coefs=None):
        alphabet = tuple(alphabet)
        if coefs is None:
            coefs = (0,) * len(alphabet)
        elif len(coefs) != len(alphabet):
            raise ValueError("coefficient count does not match alphabet")
        qs = [_rational(x) for x in (const, *coefs)]
        # lowest terms already: each q is, and den is the lcm of their denominators
        self.alphabet = alphabet
        self._den = lcm(*(q.denominator for q in qs))
        self._num = tuple(q.numerator * (self._den // q.denominator) for q in qs)
        # the float constant, indices and coefficients of the nonzero terms,
        # built by the first evaluate: most forms are only manipulated exactly
        self._float_terms = None

    @property
    def const(self) -> Fraction:
        return Fraction(self._num[0], self._den)

    @property
    def coefs(self) -> tuple:
        return tuple(Fraction(x, self._den) for x in self._num[1:])

    # -- constructors ---------------------------------------------------

    @classmethod
    def symbol(cls, alphabet: Sequence[str], name: str) -> "LinForm":
        alphabet = tuple(alphabet)
        idx = alphabet.index(name)
        return _form(alphabet, tuple(int(i == idx) for i in range(-1, len(alphabet))), 1)

    @classmethod
    def const_form(cls, alphabet: Sequence[str], value) -> "LinForm":
        return cls(alphabet, value, None)

    @classmethod
    def parse(cls, text: str, alphabet: Sequence[str]) -> "LinForm":
        """Parse forms like "1+a-c-d", "2c-a", "-1/2+3/2e".

        Terms are [sign][coefficient][symbol] with the coefficient optional
        (also as p/q); a term without symbol is a constant.
        """
        alphabet = tuple(alphabet)
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty LinForm text")
        terms = []  # (slot, numerator, denominator); slot 0 is the constant
        i = 0
        n = len(s)
        while i < n:
            sign = 1
            while i < n and s[i] in "+-":
                if s[i] == "-":
                    sign = -sign
                i += 1
            j = i
            while j < n and (s[j].isdigit() or s[j] == "/"):
                j += 1
            num = s[i:j]
            slot = 0
            if j < n and s[j] not in "+-":
                if s[j] not in alphabet:
                    raise ValueError(f"unknown symbol {s[j]!r} in {text!r}")
                slot = alphabet.index(s[j]) + 1
                j += 1
            elif not num:
                raise ValueError(f"dangling sign in {text!r}")
            p, slash, q = num.partition("/")
            if slash and not (p and q.isdigit() and int(q)):
                raise ValueError(f"bad coefficient {num!r} in {text!r}")
            terms.append((slot, sign * int(p or 1), int(q or 1)))
            i = j
        den = lcm(*(q for _, _, q in terms))
        out = [0] * (len(alphabet) + 1)
        for slot, p, q in terms:
            out[slot] += p * (den // q)
        return _form(alphabet, tuple(out), den)

    # -- algebra --------------------------------------------------------

    def _check(self, other: "LinForm"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __add__(self, other):
        if not isinstance(other, LinForm):
            other = LinForm.const_form(self.alphabet, other)
        self._check(other)
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, den // other._den
        return _form(
            self.alphabet, tuple(x * m1 + y * m2 for x, y in zip(self._num, other._num)), den
        )

    __radd__ = __add__

    def __neg__(self):
        return _form(self.alphabet, tuple(-x for x in self._num), self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LinForm) else -_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, k):
        k = _rational(k)
        p = k.numerator
        return _form(self.alphabet, tuple(x * p for x in self._num), self._den * k.denominator)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            return NotImplemented
        return (self._num, self._den, self.alphabet) == (other._num, other._den, other.alphabet)

    def __hash__(self):
        return hash((self.alphabet, self._num, self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def coef(self, name: str) -> Fraction:
        return Fraction(self._num[self.alphabet.index(name) + 1], self._den)

    def substitute(self, forms: Sequence["LinForm"]) -> "LinForm":
        """Replace symbol_i by forms[i] (forms may live in another alphabet)."""
        if len(forms) != len(self.alphabet):
            raise ValueError("substitution arity mismatch")
        alphabet = forms[0].alphabet
        used = [(c, f) for c, f in zip(self._num[1:], forms) if c]
        den = lcm(*(f._den for _, f in used))
        out = [0] * (len(alphabet) + 1)
        out[0] = self._num[0] * den
        for c, f in used:
            f._check(forms[0])
            m = c * (den // f._den)
            out = [x + m * y for x, y in zip(out, f._num)]
        return _form(alphabet, tuple(out), self._den * den)

    def evaluate(self, values: Sequence[complex]) -> complex:
        """Numeric value at the given symbol values (sequence in alphabet order)."""
        terms = self._float_terms
        if terms is None:
            num, den = self._num, self._den
            nonzero = [i for i in range(1, len(num)) if num[i]]
            terms = self._float_terms = (
                num[0] / den,
                tuple(i - 1 for i in nonzero),
                tuple(num[i] / den for i in nonzero),
            )
        const, idx, coefs = terms
        z = complex(const)
        for i, c in zip(idx, coefs):
            z += c * values[i]
        return z

    def reduced(self) -> "LinForm":
        """Canonical form modulo the alphabet's hyperplane: zero the last
        symbol's coefficient.

        Raises ValueError for an alphabet without a hyperplane.
        """
        plane = HYPERPLANES.get(self.alphabet)
        if plane is None:
            raise ValueError(f"alphabet {''.join(self.alphabet)} has no hyperplane")
        last = self._num[-1]
        if last == 0:
            return self
        clast = plane._num[-1]
        # self - (last/clast) * plane, over the denominator den * clast
        return _form(
            self.alphabet,
            tuple(x * clast - last * y for x, y in zip(self._num, plane._num)),
            self._den * clast,
        )

    # -- text -----------------------------------------------------------

    def __str__(self):
        out = ""
        for sym, q in zip(("",) + self.alphabet, (self.const,) + self.coefs):
            if q:
                body = sym if sym and abs(q) == 1 else str(abs(q)) + sym
                out += ("-" if q < 0 else "+") + body
        return out.lstrip("+") or "0"

    def __repr__(self):
        return f"LinForm({self!s})"


# the defining hyperplane of each alphabet, as a form vanishing on it; each
# has a nonzero coefficient on its alphabet's last symbol
HYPERPLANES = {
    W_SYMBOLS: LinForm(W_SYMBOLS, -2, [-3, 1, 1, 1, 1, 1, 1, 1]),  # b+...+h-3a-2
    V_SYMBOLS: LinForm(V_SYMBOLS, -1, [-1, -1, -1, -1, 1, 1, 1]),  # E+F+G-A-B-C-D-1
}


def pretty_str(form: LinForm) -> str:
    """Shortest rendering of the form among natural hyperplane reductions.

    The canonical (last-symbol-free) form is not always the most readable;
    this tries zeroing each coefficient in turn and picks the rendering with
    fewest terms, breaking ties toward the canonical one.
    """
    candidates = [form.reduced()]
    plane = HYPERPLANES[form.alphabet]
    for c, cc in zip(form._num[1:], plane._num[1:]):
        if cc:
            candidates.append(form - plane * Fraction(c * plane._den, form._den * cc))
    # min keeps the first of equal keys, the canonical form
    return str(min(candidates, key=lambda f: (sum(1 for x in f._num if x), len(str(f)))))


def symbol_forms(side: str) -> tuple:
    """The symbol forms of the given side ("w" eight slots, "v" seven)."""
    if side == "w":
        syms = W_SYMBOLS
    elif side == "v":
        syms = V_SYMBOLS
    else:
        raise ValueError("side must be 'w' or 'v'")
    return tuple(LinForm.symbol(syms, s) for s in syms)


class RatMatrix:
    """Square matrix with half-integer entries, stored doubled as int64."""

    __slots__ = ("twice",)

    def __init__(self, twice: np.ndarray):
        t = np.asarray(twice, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("matrix must be square")
        if np.abs(t).max(initial=0) > _ENTRY_BOUND:
            raise ExactArithmeticError("matrix entry out of checked range")
        self.twice = t
        self.twice.setflags(write=False)

    @property
    def order(self) -> int:
        return self.twice.shape[0]

    @classmethod
    def from_rows(cls, rows) -> "RatMatrix":
        n = len(rows)
        t = np.zeros((n, n), dtype=np.int64)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged matrix rows")
            for j, x in enumerate(row):
                q = _rational(x) * 2
                if q.denominator != 1:
                    raise ExactArithmeticError(f"entry {x} is not half-integer")
                t[i, j] = q.numerator
        return cls(t)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(2 * np.eye(n, dtype=np.int64))

    @classmethod
    def permutation(cls, cycles, n: int) -> "RatMatrix":
        """Permutation matrix sending e_i to e_{sigma(i)} for sigma given by cycles.

        Cycles use 1-based positions, e.g. [(1,2,3,4),(5,6,7)].
        """
        perm = list(range(n))
        for cyc in cycles:
            for k, pos in enumerate(cyc):
                perm[pos - 1] = cyc[(k + 1) % len(cyc)] - 1
        t = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            t[perm[i], i] = 2
        return cls(t)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        p = self.twice @ other.twice
        if (p & 1).any():
            raise ExactArithmeticError("product left the half-integer domain")
        p >>= 1
        if np.abs(p).max(initial=0) > _ENTRY_BOUND:
            raise ExactArithmeticError("product entry out of checked range")
        return RatMatrix(p)

    def __pow__(self, k: int) -> "RatMatrix":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = RatMatrix.identity(self.order)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return np.array_equal(self.twice, other.twice)

    def is_identity(self) -> bool:
        return np.array_equal(self.twice, 2 * np.eye(self.order, dtype=np.int64))

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.twice[i, j]), 2)

    def apply(self, forms: Sequence[LinForm]) -> tuple:
        """Matrix action on a vector of forms (rows dot entries).

        The forms must share one alphabet; the image is a tuple of forms in it.
        """
        if self.order != len(forms):
            raise ValueError("dimension mismatch")
        alphabet = forms[0].alphabet
        if any(f.alphabet != alphabet for f in forms):
            raise ValueError("forms must share one alphabet")
        den = lcm(*(f._den for f in forms))
        # slot k of every form over the common denominator
        slots = tuple(zip(*(tuple(x * (den // f._den) for x in f._num) for f in forms)))
        return tuple(
            _form(alphabet, tuple(sum(map(mul, row, slot)) for slot in slots), 2 * den)
            for row in self.twice.tolist()
        )

    def apply_values(self, values: Sequence[complex]):
        v = np.asarray(values, dtype=complex)
        return tuple((self.twice @ v) / 2.0)

    def __repr__(self):
        rows = []
        for i in range(self.order):
            rows.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.order)) + "]")
        return "RatMatrix(" + "; ".join(rows) + ")"


# ---------------------------------------------------------------------------
# generator catalogs
# ---------------------------------------------------------------------------

def _x_matrix() -> RatMatrix:
    h = Fraction(1, 2)
    rows = [
        [h, h, -h, -h, -h, h, h, h],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [-h, h, h, -h, -h, h, h, h],
        [-h, h, -h, h, -h, h, h, h],
        [-h, h, -h, -h, h, h, h, h],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    return RatMatrix.from_rows(rows)


def _y_matrix() -> RatMatrix:
    rows = [
        [-1, 2, 0, 0, 0, 0, 0, 0],
        [-1, 1, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 1, 0, 0, 0, 0],
        [-1, 1, 0, 0, 1, 0, 0, 0],
        [-1, 1, 0, 0, 0, 1, 0, 0],
        [-1, 1, 0, 0, 0, 0, 1, 0],
        [-1, 1, 0, 0, 0, 0, 0, 1],
    ]
    return RatMatrix.from_rows(rows)


def _x1_matrix() -> RatMatrix:
    rows = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 0],
        [0, -1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, -1, -1, 0, 1, 1, 0],
        [0, -1, -1, 0, 1, 0, 1],
    ]
    return RatMatrix.from_rows(rows)


W_GENERATOR_NAMES = ("s1", "s2", "s3", "s4", "s5", "s3'", "s6")
V_GENERATOR_NAMES = ("a1", "a2", "a3", "a4", "a5", "a1'")
# the index-action subgroup Q: every eight-slot generator but s6
Q_GENERATOR_NAMES = tuple(g for g in W_GENERATOR_NAMES if g != "s6")


def _build_w_generators():
    p = lambda *cyc: RatMatrix.permutation([cyc], 8)
    return {
        "s1": _y_matrix() @ p(2, 3),
        "s2": p(3, 4),
        "s3": p(4, 5),
        "s4": p(5, 6),
        "s5": p(6, 7),
        "s6": p(7, 8),
        "s3'": _x_matrix(),
    }


def _build_v_generators():
    p = lambda *cyc: RatMatrix.permutation([cyc], 7)
    return {
        "a1": p(2, 3),
        "a2": p(3, 4),
        "a3": _x1_matrix(),
        "a4": p(5, 6),
        "a5": p(6, 7),
        "a1'": p(1, 4),
    }


W_GENERATORS = _build_w_generators()
V_GENERATORS = _build_v_generators()


def generator(side: str, name: str) -> RatMatrix:
    table = W_GENERATORS if side == "w" else V_GENERATORS
    if name not in table:
        raise KeyError(f"unknown generator {name!r} for side {side!r}")
    return table[name]


def word_to_matrix(word: Sequence[str], side: str) -> RatMatrix:
    """Product of generator matrices along the word (first letter leftmost)."""
    if side == "w":
        table, n = W_GENERATORS, 8
    elif side == "v":
        table, n = V_GENERATORS, 7
    else:
        raise ValueError("side must be 'w' or 'v'")
    out = RatMatrix.identity(n)
    for name in word:
        if name not in table:
            raise KeyError(f"unknown generator {name!r}")
        out = out @ table[name]
    return out


# named subgroups: the side each acts on, and its generators as words in the
# named generators
SUBGROUP_WORDS = {
    # stabilizer of the two-term family on the eight-slot side
    "G": ("w", (("s2",), ("s3",), ("s4",), ("s5",), ("s6",), ("s3'",))),
    # index-56 action subgroup missing the last simple reflection
    "Q": ("w", tuple((n,) for n in Q_GENERATOR_NAMES)),
    # full seven-slot group
    "H1": ("v", tuple((n,) for n in V_GENERATOR_NAMES)),
    # stabilizer of the first coordinate (seven-slot side): (23) (34) (56) (67) X1
    "G_J": ("v", (("a1",), ("a2",), ("a4",), ("a5",), ("a3",))),
    # stabilizer of the second summand structure (seven-slot side):
    # (12) (23) (34) (67) and X1 conjugated by (57)
    "G_L": ("v", (("a1", "a2", "a1", "a1'", "a1", "a2", "a1"), ("a1",), ("a2",), ("a5",),
                  ("a4", "a5", "a4", "a3", "a4", "a5", "a4"))),
}

# the same generators as matrices
SUBGROUP_GENERATORS = {
    name: [word_to_matrix(word, side) for word in words]
    for name, (side, words) in SUBGROUP_WORDS.items()
}


def _diagram_edges(letter, length, branch, vertex):
    chain = [(f"{letter}{k}", f"{letter}{k + 1}") for k in range(1, length)]
    return frozenset(map(frozenset, chain + [(branch, vertex)]))


# the edges of each Coxeter diagram: the chain s1-...-s6 with s3' attached to
# s4, and the chain a1-...-a5 with a1' attached to a2
_DIAGRAM_EDGES = {
    "w": _diagram_edges("s", 6, "s3'", "s4"),
    "v": _diagram_edges("a", 5, "a1'", "a2"),
}


def coxeter_order(side: str, g1: str, g2: str) -> int:
    """Order m(g1,g2) prescribed by the relevant Coxeter diagram."""
    if g1 == g2:
        return 1
    if side not in _DIAGRAM_EDGES:
        raise ValueError("side must be 'w' or 'v'")
    return 3 if frozenset((g1, g2)) in _DIAGRAM_EDGES[side] else 2
