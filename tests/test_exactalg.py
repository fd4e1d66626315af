"""Exact algebra layer: forms, hyperplanes, generator matrices, presentations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperweyl.exactalg import (
    ExactArithmeticError,
    HYPERPLANES,
    LinForm,
    RatMatrix,
    SUBGROUP_GENERATORS,
    V_GENERATOR_NAMES,
    V_GENERATORS,
    V_SYMBOLS,
    W_GENERATOR_NAMES,
    W_GENERATORS,
    W_SYMBOLS,
    coxeter_order,
    symbol_forms,
    pretty_str,
    word_to_matrix,
)

WF = lambda s: LinForm.parse(s, W_SYMBOLS)
VF = lambda s: LinForm.parse(s, V_SYMBOLS)


def test_parse_and_str_roundtrip():
    for text in ["1+a-c-d", "2c-a", "b", "-1-3a+b", "1/2+1/2a", "0"]:
        f = WF(text)
        assert WF(str(f)) == f


def test_parse_rejects_bad_symbols():
    with pytest.raises(ValueError):
        LinForm.parse("1+a-z", W_SYMBOLS)
    with pytest.raises(ValueError):
        LinForm.parse("a+b", V_SYMBOLS)
    for bad in ("1/0a", "3/a", "/2a", "1/2/3", "+"):
        with pytest.raises(ValueError):
            LinForm.parse(bad, W_SYMBOLS)


def test_canonical_str_is_alphabet_ordered():
    assert str(WF("2c-a")) == "-a+2c"
    assert str(WF("c+b-a")) == "-a+b+c"
    assert str(WF("1+a-c-d")) == "1+a-c-d"


def test_reduced_zeroes_last_symbol():
    f = WF("h").reduced()
    assert f.coef("h") == 0
    assert f == WF("2+3a-b-c-d-e-f-g")
    g = VF("2-G").reduced()
    assert g.coef("G") == 0
    assert g == VF("1-A-B-C-D+E+F")


def test_reduced_forms_agree_modulo_the_constraint():
    assert WF("h").reduced() == WF("2+3a-b-c-d-e-f-g").reduced()
    assert WF("h").reduced() != WF("g").reduced()
    assert VF("E+F-B-C").reduced() == VF("1+A+D-G").reduced()


def test_an_alphabet_without_a_hyperplane_has_no_reduction():
    # an alphabet of six free symbols has no constraint to reduce by
    f = LinForm.parse("1+u-2z", "uvwxyz")
    with pytest.raises(ValueError, match="no hyperplane"):
        f.reduced()
    with pytest.raises(ValueError, match="no hyperplane"):
        pretty_str(f)


@given(
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.integers(-3, 3),
    st.integers(-5, 5),
)
@settings(max_examples=60, deadline=None)
def test_reduced_is_shift_invariant(coefs, const, lam):
    f = LinForm(W_SYMBOLS, const, coefs)
    g = f + HYPERPLANES[W_SYMBOLS] * lam
    assert f.reduced() == g.reduced()
    if lam != 0:
        # adding a non-multiple breaks it
        assert f.reduced() != (g + LinForm.symbol(W_SYMBOLS, "a")).reduced()


@given(st.lists(st.integers(-6, 6), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_linform_evaluate_is_linear(coefs):
    f = LinForm(W_SYMBOLS, 1, coefs)
    pt = [complex(k, -k) / 7 for k in range(1, 9)]
    direct = complex(1) + sum(float(c) * v for c, v in zip(f.coefs, pt))
    assert abs(f.evaluate(pt) - direct) < 1e-12


@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=8, max_size=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
@settings(max_examples=40, deadline=None)
def test_linform_evaluate_matches_the_coefficient_loop(coefs, const):
    # the stored (index, float) pairs give the same bits as converting every
    # nonzero coefficient on each call, on the first call and on later ones
    f = LinForm(W_SYMBOLS, const, coefs)
    pt = [complex(0.3 * k - 1, 0.7 - 0.2 * k) for k in range(8)]
    ref = complex(f.const)
    for c, v in zip(f.coefs, pt):
        if c != 0:
            ref += float(c) * v
    assert f.evaluate(pt) == ref
    assert f.evaluate(pt) == ref


class _RefForm:
    """Reference linear form: one Fraction per coefficient, the textbook way."""

    def __init__(self, const, coefs):
        self.const, self.coefs = Fraction(const), tuple(Fraction(c) for c in coefs)

    @classmethod
    def of(cls, f):
        return cls(f.const, f.coefs)

    def __add__(self, o):
        return _RefForm(self.const + o.const, [x + y for x, y in zip(self.coefs, o.coefs)])

    def __neg__(self):
        return _RefForm(-self.const, [-c for c in self.coefs])

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, k):
        return _RefForm(self.const * k, [c * k for c in self.coefs])

    def substitute(self, forms):
        out = _RefForm(self.const, [0] * len(forms[0].coefs))
        for c, f in zip(self.coefs, forms):
            out = out + f * c
        return out

    def reduced(self, cons):
        return self - cons * (self.coefs[-1] / cons.coefs[-1])

    def evaluate(self, values):
        z = complex(self.const)
        for c, v in zip(self.coefs, values):
            if c != 0:
                z += float(c) * v
        return z


def _same(f, ref):
    return f.const == ref.const and f.coefs == ref.coefs


_fracs = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 1, 2, 3, 4, 6, 12]))
_w_forms = st.builds(
    lambda const, coefs: LinForm(W_SYMBOLS, const, coefs),
    _fracs, st.lists(_fracs, min_size=8, max_size=8),
)
_scalars = st.one_of(
    st.sampled_from([Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), 0, 3]), _fracs
)


@given(
    _w_forms, _w_forms, _scalars,
    st.lists(_w_forms, min_size=8, max_size=8),
    st.lists(st.lists(st.integers(-4, 4), min_size=8, max_size=8), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_integer_linform_matches_the_fraction_reference(f, g, k, forms, twice):
    rf, rg = _RefForm.of(f), _RefForm.of(g)
    assert _same(f + g, rf + rg)
    assert _same(f - g, rf - rg)
    assert _same(-f, -rf)
    assert _same(f * k, rf * k)
    assert _same(k * f, rf * k)
    assert _same(f.substitute(forms), rf.substitute([_RefForm.of(x) for x in forms]))
    assert _same(f.reduced(), rf.reduced(_RefForm.of(HYPERPLANES[W_SYMBOLS])))
    # half-integer matrix action, row by row
    got = RatMatrix(twice).apply(forms)
    for row, out in zip(twice, got):
        ref = _RefForm(0, [0] * 8)
        for t, x in zip(row, forms):
            ref = ref + _RefForm.of(x) * Fraction(t, 2)
        assert _same(out, ref)
    # one storage per value: equal forms compare and hash alike
    h = (f * Fraction(2, 3)) * Fraction(3, 2)
    assert h == f and hash(h) == hash(f)
    assert (f + g) - g == f and hash((f + g) - g) == hash(f)
    assert (f == g) == _same(f, rg)
    # the cached floats give the reference loop's bits, on every call
    pt = [complex(0.3 * i - 1, 0.7 - 0.2 * i) for i in range(8)]
    assert f.evaluate(pt) == rf.evaluate(pt)
    assert f.evaluate(pt) == rf.evaluate(pt)


# -- matrix layer ------------------------------------------------------------


def test_half_integer_closure_is_checked():
    m = RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(ExactArithmeticError):
        RatMatrix.from_rows([[Fraction(1, 4), 0], [0, 1]])
    # (1/2 I) * (1/2 I) has quarter entries and must be refused
    with pytest.raises(ExactArithmeticError):
        half = RatMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        _ = half @ half


def test_known_generator_actions():
    idw = symbol_forms("w")
    got = W_GENERATORS["s3'"].apply(idw)
    expected = ["1+2a-c-d-e", "b", "1+a-d-e", "1+a-c-e", "1+a-c-d", "f", "g", "h"]
    for e, s in zip(got, expected):
        assert e.reduced() == WF(s).reduced()

    got_y = word_to_matrix(["s1"], "w").apply(idw)
    expected_s1 = ["2c-a", "c+b-a", "c", "c+d-a", "c+e-a", "c+f-a", "c+g-a", "c+h-a"]
    for e, s in zip(got_y, expected_s1):
        assert e.reduced() == WF(s).reduced()

    idv = symbol_forms("v")
    got_x1 = V_GENERATORS["a3"].apply(idv)
    expected_x1 = ["A", "E-C", "E-B", "D", "E", "1+A+D-G", "1+A+D-F"]
    for e, s in zip(got_x1, expected_x1):
        assert e.reduced() == VF(s).reduced()


def test_apply_takes_forms_of_one_alphabet():
    idw = symbol_forms("w")
    assert symbol_forms("v") == tuple(LinForm.symbol(V_SYMBOLS, s) for s in V_SYMBOLS)
    assert RatMatrix.identity(8).apply(idw) == idw
    # the v-side matrices act on seven forms of any one alphabet
    mixed = symbol_forms("v")[:6] + (LinForm.symbol(W_SYMBOLS, "a"),)
    with pytest.raises(ValueError, match="one alphabet"):
        V_GENERATORS["a3"].apply(mixed)
    with pytest.raises(ValueError, match="dimension"):
        V_GENERATORS["a3"].apply(idw)


def test_generators_preserve_constraint_functional():
    # every group element fixes the hyperplane functional, so hyperplane
    # membership is preserved exactly
    idw = symbol_forms("w")
    for name in W_GENERATOR_NAMES:
        v = W_GENERATORS[name].apply(idw)
        total = v[1]
        for e in v[2:]:
            total = total + e
        lhs = total - v[0] * 3
        assert lhs.reduced() == LinForm.const_form(W_SYMBOLS, 2).reduced()
    idv = symbol_forms("v")
    for name in V_GENERATOR_NAMES:
        v = V_GENERATORS[name].apply(idv)
        lhs = v[4] + v[5] + v[6] - (v[0] + v[1] + v[2] + v[3])
        assert lhs.reduced() == LinForm.const_form(V_SYMBOLS, 1).reduced()


def test_coxeter_presentation_w_side():
    names = W_GENERATOR_NAMES
    for n1 in names:
        g1 = W_GENERATORS[n1]
        assert (g1 @ g1).is_identity(), n1
        for n2 in names:
            m = coxeter_order("w", n1, n2)
            prod = g1 @ W_GENERATORS[n2]
            assert (prod ** m).is_identity(), (n1, n2, m)
            if m == 3:
                assert not (prod ** 2).is_identity(), (n1, n2)


def test_coxeter_presentation_v_side():
    names = V_GENERATOR_NAMES
    for n1 in names:
        g1 = V_GENERATORS[n1]
        assert (g1 @ g1).is_identity(), n1
        for n2 in names:
            m = coxeter_order("v", n1, n2)
            prod = g1 @ V_GENERATORS[n2]
            assert (prod ** m).is_identity(), (n1, n2, m)
            if m == 3:
                assert not (prod ** 2).is_identity(), (n1, n2)


def test_word_to_matrix_composes_left_to_right():
    w1 = word_to_matrix(["s1", "s2"], "w")
    assert w1 == W_GENERATORS["s1"] @ W_GENERATORS["s2"]
    with pytest.raises(KeyError):
        word_to_matrix(["sX"], "w")


def test_subgroup_generator_catalog_shapes():
    assert len(SUBGROUP_GENERATORS["G"]) == 6
    assert len(SUBGROUP_GENERATORS["Q"]) == 6
    assert len(SUBGROUP_GENERATORS["H1"]) == 6
    assert len(SUBGROUP_GENERATORS["G_J"]) == 5
    assert len(SUBGROUP_GENERATORS["G_L"]) == 5


def test_subgroup_words_reproduce_the_explicit_generators():
    p = lambda *cyc: RatMatrix.permutation([cyc], 7)
    x1 = RatMatrix.from_rows([
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 0],
        [0, -1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, -1, -1, 0, 1, 1, 0],
        [0, -1, -1, 0, 1, 0, 1],
    ])
    # X1 conjugated by the transposition (57)
    x1_conj_57 = RatMatrix.from_rows([
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 1],
        [0, -1, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 0],
        [0, -1, -1, 0, 1, 0, 1],
        [0, -1, -1, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1],
    ])
    assert x1_conj_57 == p(5, 7) @ x1 @ p(5, 7)
    assert SUBGROUP_GENERATORS["G_J"] == [p(2, 3), p(3, 4), p(5, 6), p(6, 7), x1]
    assert SUBGROUP_GENERATORS["G_L"] == [p(1, 2), p(2, 3), p(3, 4), p(6, 7), x1_conj_57]
