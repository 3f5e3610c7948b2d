import copy
import math
import pickle
import random

import pytest

import ringline.symplectic
from ringline.ring import make_modulus
from ringline.symplectic import PerpSet, form, is_perp, perp_rows, perp_set
from test_projline import _kept, _race

# golden: the twelve vectors orthogonal to (2,0) at d=6
PERP_2_0_D6 = {
    (5, 0), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0),
    (2, 3), (0, 3), (4, 3), (5, 3), (3, 3), (1, 3),
}


def all_vectors(d):
    return [(b, c) for b in range(d) for c in range(d)]


def test_form_examples():
    m6 = make_modulus(6)
    assert form((2, 0), (2, 3), m6) == 0
    for d in (2, 5, 6, 12):
        assert form((0, 1), (1, 0), make_modulus(d)) == 1


def test_form_is_alternating():
    for d in range(2, 31):
        m = make_modulus(d)
        assert all(form(v, v, m) == 0 for v in all_vectors(d))


def test_form_is_skew_symmetric():
    for d in range(2, 11):
        m = make_modulus(d)
        for v in all_vectors(d):
            for w in all_vectors(d):
                assert (form(v, w, m) + form(w, v, m)) % d == 0


def test_form_is_bilinear():
    for d in range(2, 11):
        m = make_modulus(d)
        vecs = all_vectors(d)
        table = {(v, w): form(v, w, m) for v in vecs for w in vecs}
        for u in vecs:
            for u2 in vecs:
                s = ((u[0] + u2[0]) % d, (u[1] + u2[1]) % d)
                for w in vecs:
                    assert table[(s, w)] == (table[(u, w)] + table[(u2, w)]) % d
        for a in range(d):
            for u in vecs:
                au = ((a * u[0]) % d, (a * u[1]) % d)
                for w in vecs:
                    assert table[(au, w)] == (a * table[(u, w)]) % d


def test_form_is_non_degenerate():
    # only the zero vector is orthogonal to everything
    for d in range(2, 31):
        m = make_modulus(d)
        for v in all_vectors(d):
            orthogonal_to_all = all(form(v, w, m) == 0 for w in all_vectors(d))
            assert orthogonal_to_all == (v == (0, 0))


def test_is_perp_examples():
    m6 = make_modulus(6)
    assert is_perp((2, 0), (5, 0), m6)
    assert not is_perp((0, 1), (1, 0), m6)
    for w in all_vectors(6):
        assert is_perp((0, 0), w, m6)


def test_is_perp_symmetric():
    m = make_modulus(12)
    for v in all_vectors(12):
        for w in all_vectors(12):
            assert is_perp(v, w, m) == is_perp(w, v, m)


def test_perp_set_golden_example():
    ps = perp_set((2, 0), make_modulus(6))
    assert ps.members == frozenset(PERP_2_0_D6)
    assert ps.size == 12


def test_perp_set_of_zero_is_everything():
    ps = perp_set((0, 0), make_modulus(6))
    assert ps.size == 36


def test_perp_set_of_admissible_vector():
    ps = perp_set((1, 0), make_modulus(6))
    assert ps.members == frozenset((u, 0) for u in range(6))


def test_perp_set_contains_base_and_its_multiples():
    for d in (4, 6, 9, 10):
        m = make_modulus(d)
        for v in all_vectors(d):
            ps = perp_set(v, m)
            assert ps.base in ps.members
            for u in range(d):
                assert ((u * v[0]) % d, (u * v[1]) % d) in ps.members


def test_perp_set_is_a_submodule():
    # closed under addition and scalar multiplication
    for d in range(2, 16):
        m = make_modulus(d)
        for v in all_vectors(d):
            members = perp_set(v, m).members
            for w in members:
                for w2 in members:
                    assert ((w[0] + w2[0]) % d, (w[1] + w2[1]) % d) in members
                for a in range(d):
                    assert ((a * w[0]) % d, (a * w[1]) % d) in members


@pytest.mark.parametrize("d", [2, 4, 8, 9, 12, 18, 30, 36])
def test_perp_set_equals_the_form_scan_on_every_vector(d):
    # every vector covers b = 0, b a unit and gcd(b, d) a prime power or not;
    # an unreduced, negative copy of v must give the same set, and the points
    # and writers that read the solution in order get it sorted, once each
    m = make_modulus(d)
    vectors = all_vectors(d)
    for v in vectors:
        scan = {w for w in vectors if form(v, w, m) == 0}
        assert perp_set(v, m).members == scan, v
        assert list(ringline.symplectic._perp_in_order(v, d)) == sorted(scan), v
        assert perp_set((v[0] - d, v[1] + 2 * d), m).members == scan, v


def _reference_perp_in_order(v, d):
    # the solution as one comprehension, a generator step per member: row b'
    # is solvable iff gcd(b, d) | c*b', and its solutions are one coset
    b, c = v
    g = math.gcd(b, d)
    n = d // g
    inverse = pow(b // g, -1, n)
    return (
        (b2, c2)
        for b2 in range(d) if c * b2 % g == 0
        for c2 in range(c * b2 // g * inverse % n, d, n)
    )


@pytest.mark.parametrize("d", [60, 72, 105, 210])
def test_perp_in_order_equals_the_reference_on_every_vector(d):
    # g = 1 (the line), b = 0 (g = d), gcd(g, c) < g, and d = 60 and 72 not
    # square-free: the streamed rows and cosets give the same list, in order
    for b in range(d):
        for c in range(d):
            expected = list(_reference_perp_in_order((b, c), d))
            assert list(ringline.symplectic._perp_in_order((b, c), d)) == expected, (b, c)


def test_perp_set_reduces_its_base():
    ps = perp_set((8, -3), make_modulus(6))
    assert ps.base == (2, 3)


def test_perp_set_json_shape():
    obj = perp_set((1, 0), make_modulus(2)).to_json_dict()
    assert obj == {"base": [1, 0], "members": [[0, 0], [1, 0]], "size": 2}


@pytest.mark.parametrize("d", [6, 12, 30, 36])
def test_perp_set_streams_its_members_in_order(monkeypatch, d):
    # a perp-set from perp_set, or a clone of one, which is solved again,
    # yields the solution at its base and holds no set until read; only a
    # perp-set built by hand, which carries its set as a field, sorts it
    m = make_modulus(d)
    for v in all_vectors(d):
        ps = perp_set(v, m)
        streamed = ps.sorted_members()
        assert not isinstance(streamed, list)
        assert list(streamed) == sorted(ps.members), v
    ps = perp_set((2, 3), m)
    by_hand = PerpSet(ps.base, frozenset(list(ps.members)[1:]))
    for clone in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps)):
        assert type(clone) is PerpSet and clone is not ps
        assert _kept(clone) is None
        assert list(clone.sorted_members()) == sorted(ps.members)
        assert clone.to_json_dict()["members"] == [list(w) for w in sorted(clone.members)]
    assert by_hand.sorted_members() == sorted(by_hand.members)
    assert by_hand.to_json_dict()["members"] == [list(w) for w in sorted(by_hand.members)]
    assert pickle.loads(pickle.dumps(ps)) == ps != by_hand
    assert repr(ps) == f"PerpSet(base={ps.base!r}, members={ps.members!r})"
    monkeypatch.setattr(ringline.symplectic, "_perp_in_order", lambda v, d: iter(()))
    assert list(ps.sorted_members()) == []
    assert list(by_hand.sorted_members()) == sorted(by_hand.members)


@pytest.mark.parametrize("d", [12, 30, 36, 210])
def test_perp_set_makes_no_member_set(d):
    # perp_set returns its perp-set from the base alone, like a point of the
    # line: the first read makes the solution at the base, as a set, and keeps it
    m = make_modulus(d)
    rng = random.Random(d)
    for v in rng.sample(all_vectors(d), 40):
        ps = perp_set(v, m)
        assert _kept(ps) is None
        assert ps.members == frozenset(ringline.symplectic._perp_in_order(ps.base, d))
        assert _kept(ps) is ps.members
        by_hand = PerpSet(ps.base, frozenset(ps.members))
        assert ps == by_hand and hash(ps) == hash(by_hand)
        assert ps == perp_set((v[0] + d, v[1] - 3 * d), m)


@pytest.mark.parametrize("read", [False, True])
def test_a_perp_set_survives_pickle_and_deepcopy(read):
    # a clone is again solved, read or not: it carries the base and d, not the
    # set, and makes an equal set when read; a clone of a perp-set built by
    # hand carries its set
    m = make_modulus(30)
    for v in [(0, 0), (2, 3), (6, 10), (7, 12)]:
        ps = perp_set(v, m)
        if read:
            ps.members
        expected = {w for w in all_vectors(30) if is_perp(v, w, m)}
        for clone in (pickle.loads(pickle.dumps(ps)), copy.deepcopy(ps)):
            assert type(clone) is PerpSet and clone is not ps
            assert _kept(clone) is None
            assert list(clone.sorted_members()) == sorted(expected)
            assert clone.members == ps.members == expected
            assert clone == ps and hash(clone) == hash(ps)
        by_hand = PerpSet(ps.base, frozenset(expected))
        for clone in (pickle.loads(pickle.dumps(by_hand)), copy.deepcopy(by_hand)):
            assert _kept(clone) == expected and clone == by_hand


def test_threads_that_race_for_one_cold_perp_set_get_equal_sets():
    # every thread reads the members of one perp-set for the first time; each
    # must get a set equal to the perp-set, and the one kept is equal too
    m = make_modulus(60)
    v = (12, 18)
    expected = {w for w in all_vectors(60) if is_perp(v, w, m)}
    for _ in range(20):
        ps = perp_set(v, m)
        results = [None] * 6

        def work(i):
            results[i] = ps.members

        _race(6, work)
        assert all(members == expected for members in results)
        assert ps.members == expected


@pytest.mark.parametrize("d", range(2, 17))
def test_perp_rows_agree_with_form_on_every_pair(d):
    m = make_modulus(d)
    vectors = all_vectors(d)
    listed = list(perp_rows(m))
    assert [v for v, _ in listed] == vectors  # row-major order
    for v, rows in listed:
        assert len(rows) == d
        for b2, row in enumerate(rows):
            assert 0 <= row < 1 << d
            for c2 in range(d):
                assert (row >> c2 & 1) == (form(v, (b2, c2), m) == 0), (v, (b2, c2))


def test_perp_rows_make_2d2_form_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(
        ringline.symplectic, "form", lambda v, w, m: calls.append(1) or form(v, w, m)
    )
    for d in (7, 12):
        calls.clear()
        assert sum(1 for _ in ringline.symplectic.perp_rows(make_modulus(d))) == d * d
        assert len(calls) == 2 * d * d
