import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hyperweyl.coxeter import (
    Color,
    JLabel,
    LLabel,
    MLabel,
    act,
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
    distance_table,
    full_group_census,
    group_order,
    jl_label,
    jl_preimage,
    j_label_from_name,
    matching_generator,
    orbit_color,
    parse_label,
    perm_group_order,
    representative_words,
    t_distance,
    triple_orbits,
    triple_words,
)
from hyperweyl.exactalg import (
    SUBGROUP_WORDS,
    V_GENERATOR_NAMES,
    W_GENERATOR_NAMES,
    coxeter_order,
    symbol_forms,
    word_to_matrix,
)

W_GENS = W_GENERATOR_NAMES
V_GENS = V_GENERATOR_NAMES
SPACE_LABELS = {"M": all_m_labels, "J": all_j_labels, "L": all_l_labels, "T": all_t_labels}


def fold(space, word, start):
    for g in word:
        start = act(space, g, start)
    return start


def fold_m(word, start=MLabel(1, 0, 7)):
    return fold("M", word, start)


def fold_j(word, start=JLabel((1,) * 6)):
    return fold("J", word, start)


# ---------------------------------------------------------------------------
# labels and parsing
# ---------------------------------------------------------------------------


def test_label_counts():
    assert len(all_m_labels()) == 56
    assert len(all_j_labels()) == 32
    assert len(all_l_labels()) == 12
    assert len(all_t_labels()) == 44


def test_label_order():
    # the order every distance table, triple row and listing indexes by
    from hyperweyl.coxeter import _space

    pairs = itertools.combinations(range(8), 2)
    assert all_m_labels() == [MLabel(sign, i, j) for i, j in pairs for sign in (1, -1)]
    assert [str(lab) for lab in all_j_labels()] == [f"{k}{n}" for k in "pn" for n in range(16)]
    assert [lab.signs for lab in all_j_labels()[:2]] == [(1,) * 6, (1, -1, -1, 1, 1, 1)]
    assert all_j_labels()[16].signs == (-1,) * 6
    assert [str(lab) for lab in all_l_labels()] == [f"{k}{bar}" for k in range(1, 7) for bar in ("", "bar")]
    assert all_t_labels() == all_l_labels() + all_j_labels()
    for space, labels in SPACE_LABELS.items():
        assert list(_space(space)[0]) == labels()


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


def documented_image(gen, lab):
    """A generator's image of a label by the rules the action is known by.

    s_m (1 <= m <= 6) transposes the index values 7-m and 8-m; s3' flips the
    sign and complements a pair inside {0..3} or {4..7} and fixes the rest.
    a_k swaps the positions (or L indices) k and k+1; a1' swaps the first
    two and negates both (on L: toggles the bar).
    """
    if isinstance(lab, MLabel):
        if gen == "s3'":
            for block in ({0, 1, 2, 3}, {4, 5, 6, 7}):
                if set(lab.pair) <= block:
                    return MLabel(-lab.sign, *sorted(block - set(lab.pair)))
            return lab
        swap = {7 - int(gen[1]): 8 - int(gen[1]), 8 - int(gen[1]): 7 - int(gen[1])}
        return MLabel(lab.sign, *sorted(swap.get(x, x) for x in lab.pair))
    k, flip = (1, -1) if gen == "a1'" else (int(gen[1]), 1)
    if isinstance(lab, JLabel):
        s = list(lab.signs)
        s[k - 1], s[k] = flip * s[k], flip * s[k - 1]
        return JLabel(tuple(s))
    swap = {k: k + 1, k + 1: k}
    if lab.index not in swap:
        return lab
    return LLabel(swap[lab.index], lab.barred != (flip < 0))


def test_derived_action_follows_the_documented_rules():
    # every image read off the generator matrices, 56 x 7 and 44 x 6
    pairs = [("M", g, lab) for g in W_GENS for lab in all_m_labels()]
    pairs += [("T", g, lab) for g in V_GENS for lab in all_t_labels()]
    assert len(pairs) == 56 * 7 + 44 * 6
    for space, g, lab in pairs:
        assert act(space, g, lab) == documented_image(g, lab), (g, lab)


def test_a_generator_that_moves_the_hyperplane_is_refused(monkeypatch):
    # s2 as the transposition of a and b takes b+...+h-3a-2 elsewhere
    from hyperweyl import coxeter, exactalg

    monkeypatch.setitem(exactalg.W_GENERATORS, "s2", exactalg.RatMatrix.permutation([(1, 2)], 8))
    coxeter._space.cache_clear()
    try:
        with pytest.raises(ValueError, match="^s2 does not preserve the hyperplane$"):
            coxeter._space("M")
    finally:
        coxeter._space.cache_clear()


def test_actions_are_involutions():
    for space, gens in (("M", W_GENS), ("J", V_GENS), ("L", V_GENS)):
        for g in gens:
            for lab in SPACE_LABELS[space]():
                assert act(space, g, act(space, g, lab)) == lab


def test_actions_satisfy_braid_relations():
    # (g1 g2)^m = 1 on labels, m from the diagram
    for space, side, gens in (("M", "w", W_GENS), ("T", "v", V_GENS)):
        for g1, g2 in itertools.combinations(gens, 2):
            m = coxeter_order(side, g1, g2)
            for lab in SPACE_LABELS[space]():
                assert fold(space, (g1, g2) * m, lab) == lab, (g1, g2, lab)


def test_central_involution_commutes_with_actions():
    for space, gens in (("M", W_GENS), ("T", V_GENS)):
        for g in gens:
            for lab in SPACE_LABELS[space]():
                assert -act(space, g, lab) == act(space, g, -lab)


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
    assert classify_l(symbol_forms("v")) == LLabel(4)


@pytest.mark.parametrize("space, side, slot, classify", [
    ("M", "w", 1, classify_m), ("J", "v", 0, classify_j), ("L", "v", 5, classify_l),
])
def test_classify_refuses_a_form_off_every_coset(space, side, slot, classify):
    # the classifying slot of the symbol forms moved by 1/3 (for L, slot 6
    # moves the invariant (slot6 + slot7 - slot5 - 1)/4 by 1/12)
    forms = list(symbol_forms(side))
    forms[slot] += Fraction(1, 3)
    quantity = forms[slot] if space != "L" else (forms[5] + forms[6] - forms[4] - 1) * Fraction(1, 4)
    message = f"{space}: classifying form {quantity.reduced()} matches no coset form"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify(forms)


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
            c1, t1 = jl_label(act("M", g, lab))
            assert c1 == c0
            assert t1 == act("T", matching_generator(g), t0)


def test_matching_generator_rejects_last_reflection():
    with pytest.raises(KeyError):
        matching_generator("s6")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def hamming(s, t):
    return sum(x != y for x, y in zip(s.signs, t.signs))


def test_dd_agrees_with_case_table():
    labels = all_m_labels()
    d = distance_table("M")
    assert d.tolist() == [[dd_by_cases(u, v) for v in labels] for u in labels]
    assert set(d.flat) == {0, 2, 4, 6}
    assert not d.flags.writeable
    assert [[dd(u, v) for v in labels] for u in labels] == d.tolist()


def test_dd_antipode_sum():
    labels = all_m_labels()
    neg = [labels.index(-u) for u in labels]
    d = distance_table("M")
    assert (d + d[:, neg] == 6).all()


def test_dd_zero_only_on_equal():
    d = distance_table("M")
    assert ((d == 0) == np.eye(len(d), dtype=bool)).all()


def test_t_distance_matches_hamming_on_sign_strings():
    labels = all_j_labels()
    want = [[hamming(s, t) for t in labels] for s in labels]
    assert distance_table("J").tolist() == want
    assert [[t_distance(s, t) for t in labels] for s in labels] == want


def test_l_distance_marks_shared_indices():
    # 0 on equal labels, 4 on a label and its bar, 2 where the indices differ
    labels = all_l_labels()
    want = [[0 if a == b else 4 if a.index == b.index else 2 for b in labels] for a in labels]
    assert distance_table("L").tolist() == want


def test_t_distance_compression():
    # going down to the 44 labels costs exactly 2 on opposite-color L pairs
    for u in all_m_labels():
        cu, tu = jl_label(u)
        for v in all_m_labels():
            cv, tv = jl_label(v)
            drop = 2 if {cu, cv} == {Color.BLUE, Color.RED} else 0
            assert t_distance(tu, tv) == dd_by_cases(u, v) - drop


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


def reference_type(space, triple):
    # the type tag read directly off the case table and the sign strings
    a, b, c = triple
    if space == "L":
        return "coherent" if len({a.index, b.index, c.index}) == 3 else "incoherent"
    dist = {"M": dd_by_cases, "J": hamming, "T": lambda s, t: dd_by_cases(jl_preimage(s), jl_preimage(t))}[space]
    tag = "".join(str(d) for d in sorted([dist(a, b), dist(a, c), dist(b, c)]))
    if space == "T":
        tag = "".join(sorted("L" if isinstance(x, LLabel) else "J" for x in triple)) + ":" + tag
    return tag


@pytest.mark.parametrize("space", sorted(SPACE_LABELS))
def test_triple_orbits_match_a_walk_over_label_triples(space):
    # reference: walk each orbit of label triples, with each generator's
    # images of the acting labels read once, as a list of label indices
    gens, acting = (W_GENS, "M") if space == "M" else (V_GENS, "T")
    labels = SPACE_LABELS[acting]()
    index = {lab: k for k, lab in enumerate(labels)}
    images = [[index[act(acting, g, lab)] for lab in labels] for g in gens]
    key = lambda lab: (isinstance(lab, JLabel), lab.sort_key())
    seen, want = set(), []
    for triple in itertools.combinations(SPACE_LABELS[space](), 3):
        start = tuple(sorted(index[x] for x in triple))
        if start in seen:
            continue
        members, frontier = {start}, [start]
        while frontier:
            nxt = []
            for a, b, c in frontier:
                for image in images:
                    out = tuple(sorted((image[a], image[b], image[c])))
                    if out not in members:
                        members.add(out)
                        nxt.append(out)
            frontier = nxt
        seen |= members
        triple = tuple(sorted(triple, key=key))
        want.append({
            "space": space,
            "size": len(members),
            "type": reference_type(space, triple),
            "representative": tuple(str(x) for x in triple),
        })
    assert triple_orbits(space) == want


@pytest.mark.parametrize("space", ["M", "J", "L", "T"])
def test_the_cached_triple_action_is_read_only_and_indexed_by_rank(space):
    from hyperweyl.coxeter import _space, _triples

    labels, _, perms = _space(space)
    tri, rank, images = _triples(space)
    rows = list(itertools.combinations(range(len(labels)), 3))
    assert tri.tolist() == [list(row) for row in rows]
    assert [rank[i, j] + k for i, j, k in rows] == list(range(len(rows)))
    row_of = {row: r for r, row in enumerate(rows)}
    for g, perm in perms.items():
        p = perm.tolist()
        want = [row_of[tuple(sorted((p[i], p[j], p[k])))] for i, j, k in rows]
        assert images[g].tolist() == want, g
    for table in (tri, rank, *images.values()):
        with pytest.raises(ValueError):
            table[0] = 0


def test_triple_words_refuses_a_repeated_label():
    label = MLabel(1, 0, 7)
    with pytest.raises(ValueError, match="three different labels"):
        triple_words("M", (label, label, -label))


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
    return tuple(labels.index(fold("L", word, lab)) for lab in labels)


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
        # a transposition and an 8-cycle: a chain seven levels deep
        pytest.param([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)], 40320, id="S8"),
        # S3 on 0..2 beside S4 on 3..6: base points in two blocks
        pytest.param(
            [(1, 0, 2, 3, 4, 5, 6), (1, 2, 0, 3, 4, 5, 6), (0, 1, 2, 4, 3, 5, 6), (0, 1, 2, 4, 5, 6, 3)],
            144,
            id="S3xS4",
        ),
    ],
)
def test_perm_group_order_small_groups(gens, order):
    # a level that takes its orbit only from the generators found at that
    # level gets S4 and A4 wrong (8 and 9)
    assert perm_group_order(gens) == order


def test_perm_group_order_reads_tuples_lists_and_arrays_alike():
    # the identity among the generators is dropped, whatever its dtype
    gens = [(1, 0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    orders = {
        perm_group_order(gens),
        perm_group_order([list(g) for g in gens]),
        perm_group_order([np.array(g) for g in gens]),
        perm_group_order(np.array(gens)),
        *(perm_group_order(np.array(gens, dtype=t)) for t in (np.int8, np.int32, np.uint16)),
    }
    assert orders == {720}


@pytest.mark.parametrize(
    "gens",
    [
        pytest.param([], id="no-generators"),
        pytest.param([(0, 0, 1)], id="repeated-image"),
        pytest.param([(1, 0, 2), (1, 0)], id="lengths-differ"),
        pytest.param([(1, 2, 0), (0, 0, 2)], id="second-not-a-permutation"),
        pytest.param([(2, 0, 3)], id="image-out-of-range"),
    ],
)
def test_perm_group_order_rejects_what_is_not_a_permutation(gens):
    with pytest.raises(ValueError):
        perm_group_order(gens)
