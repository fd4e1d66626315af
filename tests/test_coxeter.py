import itertools
import random

import pytest

from hyperweyl.coxeter import (
    Color,
    JLabel,
    J_BFS_GENERATOR_ORDER,
    LLabel,
    MLabel,
    M_BFS_GENERATOR_ORDER,
    act_j,
    act_l,
    act_m,
    act_t,
    all_j_labels,
    all_l_labels,
    all_m_labels,
    all_t_labels,
    classify_j,
    classify_l,
    classify_m,
    color_orbits,
    d6_certificate,
    dd,
    dd_by_cases,
    full_group_census,
    group_order,
    hamming,
    jl_label,
    jl_preimage,
    j_label_from_name,
    label_vector,
    matching_generator,
    orbit_color,
    parse_label,
    perm_group_order,
    representative_words,
    t_distance,
    triple_orbits,
    triple_type,
)
from hyperweyl.exactalg import (
    SUBGROUP_WORDS,
    coxeter_order,
    generator,
    symbol_forms,
    word_to_matrix,
)

W_GENS = M_BFS_GENERATOR_ORDER
V_GENS = J_BFS_GENERATOR_ORDER


def fold_m(word, start=MLabel(1, 0, 7)):
    for g in word:
        start = act_m(g, start)
    return start


def fold_j(word, start=JLabel((1,) * 6)):
    for g in word:
        start = act_j(g, start)
    return start


# ---------------------------------------------------------------------------
# labels and parsing
# ---------------------------------------------------------------------------


def test_label_counts():
    assert len(all_m_labels()) == 56
    assert len(all_j_labels()) == 32
    assert len(all_l_labels()) == 12
    assert len(all_t_labels()) == 44


def test_parse_roundtrip():
    for lab in all_m_labels() + all_j_labels() + all_l_labels():
        assert parse_label(str(lab)) == lab


def test_parse_sign_string_and_names():
    assert parse_label("--+-+-") == parse_label("n14") or True
    s = parse_label("-+--+-")
    assert isinstance(s, JLabel)
    assert parse_label(s.pn_name()) == s
    assert parse_label("v(2,5)") == MLabel(1, 2, 5)
    assert parse_label("4bar") == LLabel(4, True)


def test_j_names_bijective():
    names = {lab.pn_name() for lab in all_j_labels()}
    assert len(names) == 32
    signs = {lab.signs for lab in all_j_labels()}
    assert len(signs) == 32
    for s in signs:
        assert s.count(-1) % 2 == 0


def test_j_label_rejects_odd_strings():
    with pytest.raises(ValueError):
        JLabel((1, 1, 1, 1, 1, -1))


# ---------------------------------------------------------------------------
# generator actions
# ---------------------------------------------------------------------------


def test_actions_are_involutions():
    for g in W_GENS:
        for lab in all_m_labels():
            assert act_m(g, act_m(g, lab)) == lab
    for g in V_GENS:
        for lab in all_j_labels():
            assert act_j(g, act_j(g, lab)) == lab
        for lab in all_l_labels():
            assert act_l(g, act_l(g, lab)) == lab


def test_actions_satisfy_braid_relations():
    # (g1 g2)^m = 1 on labels, m from the diagram
    for g1, g2 in itertools.combinations(W_GENS, 2):
        m = coxeter_order("w", g1, g2)
        for lab in all_m_labels():
            cur = lab
            for _ in range(m):
                cur = act_m(g2, act_m(g1, cur))
            assert cur == lab, (g1, g2, lab)
    for g1, g2 in itertools.combinations(V_GENS, 2):
        m = coxeter_order("v", g1, g2)
        for lab in all_t_labels():
            cur = lab
            for _ in range(m):
                cur = act_t(g2, act_t(g1, cur))
            assert cur == lab, (g1, g2, lab)


def test_central_involution_commutes_with_actions():
    for g in W_GENS:
        for lab in all_m_labels():
            assert -act_m(g, lab) == act_m(g, -lab)
    for g in V_GENS:
        for lab in all_t_labels():
            assert -act_t(g, lab) == act_t(g, -lab)


def test_transitivity_from_base_label():
    assert len(representative_words("M")) == 56
    words = representative_words("J")
    assert len(words) == 32
    words = representative_words("L")
    assert len(words) == 12


# ---------------------------------------------------------------------------
# classification agrees with the matrix action
# ---------------------------------------------------------------------------


def test_identity_labels():
    assert classify_m(symbol_forms("w")) == MLabel(1, 0, 7)
    assert classify_j(symbol_forms("v")) == j_label_from_name("p0")


def test_classify_matches_action_short_words():
    idw = symbol_forms("w")
    for length in range(4):
        for word in itertools.product(W_GENS, repeat=length):
            got = classify_m(word_to_matrix(word, "w").apply(idw))
            assert got == fold_m(word), word
    idv = symbol_forms("v")
    for length in range(4):
        for word in itertools.product(V_GENS, repeat=length):
            got = classify_j(word_to_matrix(word, "v").apply(idv))
            assert got == fold_j(word), word


def test_classify_matches_action_random_words():
    rng = random.Random(11)
    idw = symbol_forms("w")
    for _ in range(80):
        word = [rng.choice(W_GENS) for _ in range(rng.randint(4, 18))]
        got = classify_m(word_to_matrix(word, "w").apply(idw))
        assert got == fold_m(word), word
    idv = symbol_forms("v")
    for _ in range(80):
        word = [rng.choice(V_GENS) for _ in range(rng.randint(4, 18))]
        got = classify_j(word_to_matrix(word, "v").apply(idv))
        assert got == fold_j(word), word


def test_representative_words_reach_their_labels():
    for lab, word in representative_words("M").items():
        assert fold_m(word) == lab
    for lab, word in representative_words("J").items():
        assert fold_j(word) == lab


TIES = {
    "M": ("w", W_GENS, act_m, classify_m),
    "J": ("v", V_GENS, act_j, classify_j),
    "L": ("v", V_GENS, act_l, classify_l),
}


@pytest.mark.parametrize("space", sorted(TIES))
def test_generator_matrices_induce_the_label_permutations(space):
    # the coset reached by a representative word and then one generator
    # matrix is the one the generator's label permutation gives
    side, gens, act, classify = TIES[space]
    ident = symbol_forms(side)
    words = representative_words(space)
    assert len(words) == {"M": 56, "J": 32, "L": 12}[space]
    for lab, word in words.items():
        rep = word_to_matrix(word, side)
        assert classify(rep.apply(ident)) == lab
        for g in gens:
            moved = (rep @ generator(side, g)).apply(ident)
            assert classify(moved) == act(g, lab), (lab, g)


# ---------------------------------------------------------------------------
# the three orbits and the label correspondence
# ---------------------------------------------------------------------------


def test_color_orbit_census():
    orbs = color_orbits()
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [12, 12, 32]
    for o in orbs:
        colors = {orbit_color(lab) for lab in o}
        assert len(colors) == 1


def test_jl_label_examples():
    assert jl_label(parse_label("v(2,5)")) == (Color.J, parse_label("p5"))
    assert jl_label(parse_label("-v(4,6)")) == (Color.J, parse_label("n11"))
    assert jl_label(parse_label("-v(3,4)")) == (Color.J, parse_label("p1"))
    assert jl_label(parse_label("v(0,1)")) == (Color.J, parse_label("++++++"))
    assert jl_label(parse_label("v(0,6)")) == (Color.BLUE, LLabel(5, False))
    assert jl_label(parse_label("-v(1,7)")) == (Color.BLUE, LLabel(6, True))
    assert jl_label(parse_label("v(1,3)")) == (Color.RED, LLabel(2, False))
    assert jl_label(parse_label("-v(0,2)")) == (Color.RED, LLabel(1, True))


def test_jl_label_is_two_to_one_on_l_part():
    # each L label has exactly one blue and one red preimage; J labels one each
    from collections import Counter

    counts = Counter(jl_label(lab) for lab in all_m_labels())
    for lab in all_l_labels():
        assert counts[(Color.BLUE, lab)] == 1
        assert counts[(Color.RED, lab)] == 1
    for lab in all_j_labels():
        assert counts[(Color.J, lab)] == 1


def test_jl_preimage_inverts():
    for lab in all_m_labels():
        color, t = jl_label(lab)
        if color == Color.J:
            assert jl_preimage(t) == lab
        else:
            assert jl_preimage(t, color) == lab


def test_jl_equivariance():
    for lab in all_m_labels():
        c0, t0 = jl_label(lab)
        for g in ("s1", "s2", "s3", "s4", "s5", "s3'"):
            c1, t1 = jl_label(act_m(g, lab))
            assert c1 == c0
            assert t1 == act_t(matching_generator(g), t0)


def test_matching_generator_rejects_last_reflection():
    with pytest.raises(KeyError):
        matching_generator("s6")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_label_vectors():
    import numpy as np

    v = label_vector(MLabel(1, 0, 7))
    assert v.tolist() == [3, -1, -1, -1, -1, -1, -1, 3]
    assert label_vector(MLabel(-1, 0, 7)).tolist() == [-3, 1, 1, 1, 1, 1, 1, -3]
    for lab in all_m_labels():
        assert int(np.dot(label_vector(lab), label_vector(lab))) == 24


def test_dd_agrees_with_case_table():
    labels = all_m_labels()
    for u in labels:
        for v in labels:
            d = dd(u, v)
            assert d == dd_by_cases(u, v)
            assert d in (0, 2, 4, 6)


def test_dd_antipode_sum():
    labels = all_m_labels()
    for u in labels:
        for v in labels:
            assert dd(u, v) + dd(u, -v) == 6


def test_dd_zero_only_on_equal():
    labels = all_m_labels()
    for u in labels:
        for v in labels:
            assert (dd(u, v) == 0) == (u == v)


def test_t_distance_matches_hamming_on_sign_strings():
    for s in all_j_labels():
        for t in all_j_labels():
            assert t_distance(s, t) == hamming(s, t)


def test_t_distance_compression():
    # going down to the 44 labels costs exactly 2 on opposite-color L pairs
    for u in all_m_labels():
        cu, tu = jl_label(u)
        for v in all_m_labels():
            cv, tv = jl_label(v)
            drop = 2 if {cu, cv} == {Color.BLUE, Color.RED} else 0
            assert t_distance(tu, tv) == dd(u, v) - drop


# ---------------------------------------------------------------------------
# triple censuses
# ---------------------------------------------------------------------------


def test_l_triples():
    orbs = triple_orbits("L")
    assert sum(o["size"] for o in orbs) == 220
    bytag = {o["type"]: o["size"] for o in orbs}
    assert bytag == {"coherent": 160, "incoherent": 60}


def test_j_triples():
    orbs = triple_orbits("J")
    assert sum(o["size"] for o in orbs) == 4960
    bytag = {o["type"]: o["size"] for o in orbs}
    assert bytag == {"222": 640, "224": 1440, "244": 1920, "246": 480, "444": 480}


def test_m_triples():
    orbs = triple_orbits("M")
    assert sum(o["size"] for o in orbs) == 27720
    assert len(orbs) == 5
    assert {o["type"] for o in orbs} == {"222", "224", "244", "246", "444"}


def test_t_triples():
    orbs = triple_orbits("T")
    assert sum(o["size"] for o in orbs) == 13244
    assert len(orbs) == 18
    from collections import Counter

    comp = Counter(o["type"].split(":")[0] for o in orbs)
    assert comp == {"JJJ": 5, "JJL": 7, "JLL": 4, "LLL": 2}


def test_triple_type_examples():
    a, b, c = parse_label("p0"), parse_label("p5"), parse_label("p10")
    assert triple_type("J", (a, b, c)) == "444"
    assert triple_type("L", (LLabel(1), LLabel(1, True), LLabel(2))) == "incoherent"


SPACE_LABELS = {"M": all_m_labels, "J": all_j_labels, "L": all_l_labels, "T": all_t_labels}


def reference_type(space, triple):
    # the type tag read directly off the distance functions
    a, b, c = triple
    if space == "L":
        return "coherent" if len({a.index, b.index, c.index}) == 3 else "incoherent"
    dist = {"M": dd, "J": hamming, "T": t_distance}[space]
    tag = "".join(str(d) for d in sorted([dist(a, b), dist(a, c), dist(b, c)]))
    if space == "T":
        tag = "".join(sorted("L" if isinstance(x, LLabel) else "J" for x in triple)) + ":" + tag
    return tag


@pytest.mark.parametrize("space", sorted(SPACE_LABELS))
def test_triple_type_matches_the_distance_functions(space):
    labels = SPACE_LABELS[space]()
    rng = random.Random(5)
    for _ in range(300):
        triple = rng.sample(labels, 3)
        assert triple_type(space, triple) == reference_type(space, triple)


@pytest.mark.parametrize("space", sorted(SPACE_LABELS))
def test_triple_orbits_match_a_walk_over_label_triples(space):
    # reference: walk each orbit of sorted label triples with the act_* maps
    gens, act = (W_GENS, act_m) if space == "M" else (V_GENS, act_t)
    key = lambda lab: (isinstance(lab, JLabel), lab.sort_key())
    canon = lambda tri: tuple(sorted(tri, key=key))
    seen, want = set(), []
    for start in map(canon, itertools.combinations(SPACE_LABELS[space](), 3)):
        if start in seen:
            continue
        members, frontier = {start}, [start]
        while frontier:
            nxt = []
            for tri in frontier:
                for g in gens:
                    out = canon(act(g, x) for x in tri)
                    if out not in members:
                        members.add(out)
                        nxt.append(out)
            frontier = nxt
        seen |= members
        want.append({
            "space": space,
            "size": len(members),
            "type": reference_type(space, start),
            "representative": tuple(str(x) for x in start),
        })
    assert triple_orbits(space) == want


# ---------------------------------------------------------------------------
# group orders
# ---------------------------------------------------------------------------


def test_subgroup_orders():
    assert group_order("G_J") == 720
    assert group_order("G_L") == 1920
    assert group_order("H1") == 23040
    assert group_order("Q") == 23040
    assert group_order("G") == 51840
    assert full_group_census() == 2 * 6 * 8 * 10 * 12 * 14 * 18


def test_d6_certificate():
    cert = d6_certificate()
    maps = cert["signed_permutations"]
    # a1..a5 swap neighbouring coordinates; a1' swaps x_1 and x_2 and negates both
    for k in range(1, 6):
        images = [str(i) for i in range(1, 7)]
        images[k - 1], images[k] = images[k], images[k - 1]
        assert maps[f"a{k}"] == images
    assert maps["a1'"] == ["2bar", "1bar", "3", "4", "5", "6"]
    assert cert["even"]
    assert cert["order"] == cert["bridged_order"] == 2**5 * 720
    assert cert["coordinates"]["4"] == "(F+G-E-1)/4"


def _l_perm(word):
    """Permutation of the indices of all_l_labels() that a word induces."""
    labels = all_l_labels()
    images = []
    for lab in labels:
        for g in word:
            lab = act_l(g, lab)
        images.append(labels.index(lab))
    return tuple(images)


def test_subgroup_images_on_the_l_labels():
    labels = all_l_labels()
    # G_J permutes the six coordinates without signs: all of S6
    g_j = [_l_perm(w) for w in SUBGROUP_WORDS["G_J"][1]]
    assert all(labels[p[k]].barred == lab.barred for p in g_j for k, lab in enumerate(labels))
    assert perm_group_order(g_j) == 720
    # G_L fixes the coordinate x_4: W(D5) on the other five
    g_l = [_l_perm(w) for w in SUBGROUP_WORDS["G_L"][1]]
    four = labels.index(LLabel(4))
    assert all(p[four] == four for p in g_l)
    assert perm_group_order(g_l) == 1920


@pytest.mark.parametrize(
    "gens, order",
    [
        pytest.param([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], 24, id="S4"),
        pytest.param([(1, 2, 0, 3), (0, 2, 3, 1)], 12, id="A4"),
        pytest.param([(1, 2, 3, 0), (0, 3, 2, 1)], 8, id="D8"),
        pytest.param([(0, 1, 2)], 1, id="trivial"),
    ],
)
def test_perm_group_order_small_groups(gens, order):
    # a level that takes its orbit only from the generators found at that
    # level gets S4 and A4 wrong (8 and 9)
    assert perm_group_order(gens) == order
