import copy
import json
import math
import pathlib
import pickle
import random
import sys
import threading
from collections import Counter

import pytest

from ringline import projline
from ringline.projline import (
    Point,
    cyclic_submodule,
    enumerate_points,
    index_set_K,
    is_admissible,
    is_distant,
    line_size_formula,
    neighbour_graph,
    perp_as_point_union,
    perp_size_formula,
    point_count_formula,
    point_through,
    points_containing,
)
from ringline.pauli import PauliOp, commuting_count
from ringline.ring import is_unit, make_modulus
from ringline.symplectic import perp_rows, perp_set

GOLDEN = pathlib.Path(__file__).parent / "golden"


def all_vectors(d):
    return [(b, c) for b in range(d) for c in range(d)]


def square_free_moduli(limit):
    return [m for m in (make_modulus(d) for d in range(2, limit + 1)) if m.square_free]


def orbit(v, d):
    # raw-loop orbit, independent of cyclic_submodule
    return frozenset(((u * v[0]) % d, (u * v[1]) % d) for u in range(d))


def test_is_admissible_examples():
    m6 = make_modulus(6)
    assert not is_admissible((2, 0), m6)
    assert is_admissible((2, 3), m6)
    for d in (2, 6, 12):
        assert not is_admissible((0, 0), make_modulus(d))


def test_admissibility_matches_unimodular_search():
    # gcd criterion against exhaustive search for u, w with u*b + w*c = 1
    for d in range(2, 31):
        m = make_modulus(d)
        for b, c in all_vectors(d):
            solvable = any(
                (u * b + w * c) % d == 1 for u in range(d) for w in range(d)
            )
            assert is_admissible((b, c), m) == solvable


def test_admissibility_matches_component_criterion():
    # for square-free d: admissible iff no prime kills both coordinates
    for m in square_free_moduli(30):
        for v in all_vectors(m.d):
            assert is_admissible(v, m) == (len(index_set_K(v, m)) == 0)


def test_cyclic_submodule_examples():
    m6 = make_modulus(6)
    assert cyclic_submodule((2, 0), m6) == {(0, 0), (2, 0), (4, 0)}
    assert cyclic_submodule((1, 0), m6) == {(u, 0) for u in range(6)}
    assert cyclic_submodule((3, 3), m6) == {(0, 0), (3, 3)}


def test_cyclic_submodule_size_divides_d_and_detects_admissibility():
    for d in range(2, 21):
        m = make_modulus(d)
        for v in all_vectors(d):
            size = len(cyclic_submodule(v, m))
            assert d % size == 0
            assert (size == d) == is_admissible(v, m)


def test_point_through_canonical_generator():
    m6 = make_modulus(6)
    p = point_through((5, 0), m6)
    assert p.generator == (1, 0)
    assert p.members == orbit((1, 0), 6)
    with pytest.raises(ValueError):
        point_through((2, 0), m6)


def _reference_point_through(v, m):
    # scan the orbit for its least admissible member
    d = m.d
    v = (v[0] % d, v[1] % d)
    members = cyclic_submodule(v, m)
    return min(w for w in members if is_admissible(w, m)), members


def test_point_through_matches_the_orbit_scan_exhaustive():
    for d in [*range(2, 61), 105]:
        m = make_modulus(d)
        for v in all_vectors(d):
            if is_admissible(v, m):
                p = point_through(v, m)
                assert (p.generator, p.members) == _reference_point_through(v, m), (d, v)


@pytest.mark.parametrize("d", [210, 330, 360, 1024, 2310])
def test_point_through_matches_the_orbit_scan_random(d):
    m = make_modulus(d)
    rng = random.Random(d)
    admissible = [v for v in ((rng.randrange(d), rng.randrange(d)) for _ in range(600))
                  if is_admissible(v, m)]
    for v in admissible[:300]:
        p = point_through(v, m)
        assert (p.generator, p.members) == _reference_point_through(v, m), v


def test_point_equality_is_member_set_equality():
    m6 = make_modulus(6)
    assert point_through((5, 0), m6) == point_through((1, 0), m6)
    assert point_through((1, 0), m6) != point_through((0, 1), m6)
    assert len({point_through((5, 3), m6), point_through((1, 3), m6)}) == 1
    # equality and hashing use the canonical generator only; over every point
    # they must agree with member-set equality, and point_through must land on
    # the enumerated point for every admissible vector
    for d in (6, 12, 30):
        m = make_modulus(d)
        pts = enumerate_points(m)
        for p in pts:
            for q in pts:
                assert (p == q) == (p.members == q.members)
        through = {v: p for p in pts for v in p.members if is_admissible(v, m)}
        for b in range(d):
            for c in range(d):
                if is_admissible((b, c), m):
                    p = point_through((b, c), m)
                    assert p == through[(b, c)]
                    assert hash(p) == hash(through[(b, c)])


def test_point_structure():
    # exactly d members; admissible members are exactly the unit multiples;
    # composite d forces a non-admissible member besides (0,0)
    for d in (2, 5, 6, 9, 10, 12):
        m = make_modulus(d)
        for p in enumerate_points(m):
            assert len(p.members) == d
            assert p.generator == min(w for w in p.members if is_admissible(w, m))
            units = {u for u in range(d) if is_unit(u, m)}
            unit_multiples = {
                ((u * p.generator[0]) % d, (u * p.generator[1]) % d) for u in units
            }
            assert {w for w in p.members if is_admissible(w, m)} == unit_multiples
            if len(units) < d - 1:  # d not prime
                assert any(
                    w != (0, 0) and not is_admissible(w, m) for w in p.members
                )


def test_enumerate_points_smallest_field():
    pts = enumerate_points(make_modulus(2))
    assert [p.generator for p in pts] == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_points_d6():
    pts = enumerate_points(make_modulus(6))
    assert len(pts) == 12
    assert [p.generator for p in pts] == [
        (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
        (1, 5), (2, 1), (2, 3), (2, 5), (3, 1), (3, 2),
    ]


def test_enumerate_points_partitions_admissible_vectors():
    for d in (6, 12, 30):
        m = make_modulus(d)
        pts = enumerate_points(m)
        for v in all_vectors(d):
            containing = [p for p in pts if v in p.members]
            if is_admissible(v, m):
                assert len(containing) == 1
            else:
                assert all(v != p.generator for p in pts)
        assert len({p.members for p in pts}) == len(pts)


def reference_points(m):
    # the lexicographic scan over all of Z_d^2: the first uncovered admissible
    # vector of each orbit is its lex-smallest admissible member
    d = m.d
    covered, points = set(), []
    for b in range(d):
        for c in range(d):
            v = (b, c)
            if v in covered or not is_admissible(v, m):
                continue
            members = cyclic_submodule(v, m)
            points.append(Point(v, members))
            covered.update(w for w in members if is_admissible(w, m))
    return points


def test_enumerate_points_matches_reference_scan():
    for d in range(2, 151):
        m = make_modulus(d)
        got, want = enumerate_points(m), reference_points(m)
        assert [p.generator for p in got] == [p.generator for p in want], d
        assert [p.members for p in got] == [p.members for p in want], d


def _reference_rows(m):
    # the orbit-marking scan: visit every slot of row g (row 0 keyed d) and
    # mark the row-g members u*c, u a unit = 1 mod d/g, of each new orbit
    d = m.d
    rows = []
    for g in [0] + [g for g in range(1, d) if d % g == 0]:
        step = d // g if g else 1
        units = [u for u in range(1, d, step) if math.gcd(u, d) == 1]
        seen = bytearray(d)
        row = [None] * d
        for c in range(d):
            if seen[c] or math.gcd(g, c, d) != 1:
                continue
            for u in units:
                seen[u * c % d] = 1
            row[c] = (g, c)
        rows.append((g or d, row))
    return rows


def _row_generators(m):
    # the generator in each row slot of the cached line
    return [(g, [p and p.generator for p in row]) for g, row in projline._points_cached(m)[1]]


def test_point_rows_match_the_orbit_marking_scan():
    # off square-free d, gcd(r, g, d/g) > 1 skips residues of a row
    for d in [*range(2, 151), 210, 330, 360, 1024, 2310, 3600]:
        m = make_modulus(d)
        projline._points_cached.cache_clear()
        assert _row_generators(m) == _reference_rows(m), d
    # the rows are made with the points: a query, an enumeration and reading
    # member sets leave every slot holding the enumerated point it was built with
    for d in [12, 30, 36, 210]:
        m = make_modulus(d)
        projline._points_cached.cache_clear()
        perp_as_point_union((1, 2), m)
        pts = enumerate_points(m)
        assert _row_generators(m) == _reference_rows(m), d
        slots = [p for _, row in projline._points_cached(m)[1] for p in row if p is not None]
        assert list(map(id, slots)) == list(map(id, pts)), d


def test_point_count_is_dedekind_psi_for_every_d():
    # |line| = d * prod over p | d of (1 + 1/p), square-free or not
    for d in range(2, 151):
        m = make_modulus(d)
        psi = d
        for p in m.primes:
            psi = psi // p * (p + 1)
        assert len(enumerate_points(m)) == psi, d


def test_point_cache_is_bounded():
    projline._points_cached.cache_clear()
    first = make_modulus(7)
    built = enumerate_points(first)
    for d in range(8, 16):
        enumerate_points(make_modulus(d))
    info = projline._points_cached.cache_info()
    assert (info.maxsize, info.currsize) == (8, 8)
    # d = 7 was evicted; it rebuilds to an equal tuple
    rebuilt = enumerate_points(first)
    assert projline._points_cached.cache_info().misses == info.misses + 1
    assert [(p.generator, p.members) for p in rebuilt] == [(p.generator, p.members) for p in built]


def _kept(record):
    # the member set a point or perp-set holds, or None if it has not made one yet
    try:
        return type(record).members.__get__(record)
    except AttributeError:
        return None


@pytest.mark.parametrize("d", [12, 30])
def test_enumeration_makes_no_member_set(d):
    # a point of the line makes its member set on first read, from the closed
    # form, and keeps that one set
    projline._points_cached.cache_clear()
    m = make_modulus(d)
    pts = enumerate_points(m)
    assert [_kept(p) for p in pts] == [None] * len(pts)
    assert [p.members for p in pts] == [orbit(p.generator, d) for p in pts]
    assert all(_kept(p) is p.members for p in pts)


@pytest.mark.parametrize("d", [12, 30, 36, 210])
def test_point_through_makes_no_member_set(d):
    # point_through returns its point from the generator alone, like a point
    # of the line: the first read makes the orbit of v, as a set, and keeps it
    m = make_modulus(d)
    rng = random.Random(d)
    admissible = [v for v in all_vectors(d) if is_admissible(v, m)]
    for v in rng.sample(admissible, 40):
        p = point_through(v, m)
        assert _kept(p) is None
        assert p.members == cyclic_submodule(v, m)
        assert _kept(p) is p.members
        assert p == point_through((v[0] + d, v[1] - 3 * d), m)


@pytest.mark.parametrize("read", [False, True])
def test_a_point_of_the_line_survives_pickle_and_deepcopy(read):
    # a clone is again a point of the line, read or not: it carries the
    # generator and d, not the set, and makes an equal set when read; so is
    # a clone of point_through's point, through a unit multiple of p
    m = make_modulus(30)
    projline._points_cached.cache_clear()
    p = enumerate_points(m)[40]
    through = point_through((7 * p.generator[0], 7 * p.generator[1]), m)
    assert through == p and through is not p
    for q in (p, through):
        if read:
            q.members
        for clone in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
            assert type(clone) is Point and clone == q and clone is not q
            assert _kept(clone) is None
            assert list(clone.sorted_members()) == sorted(orbit(q.generator, 30))
            assert clone.members == q.members


@pytest.mark.parametrize("d", [12, 30, 36])
@pytest.mark.parametrize("v", [(1, 2), (2, 0), (0, 0)])
def test_points_containing_builds_only_the_points_it_returns(d, v):
    # a query makes no member set; the union makes the sets of exactly the
    # points through v, and every caller gets the enumerated objects
    m = make_modulus(d)
    projline._points_cached.cache_clear()
    got = points_containing(v, m)
    pts = enumerate_points(m)
    assert [_kept(p) for p in pts] == [None] * len(pts)
    perp_as_point_union(v, m)
    assert [p for p in pts if _kept(p) is not None] == got
    assert [id(p) for p in points_containing(v, m)] == [id(p) for p in got]
    assert [next(q for q in pts if q is p) for p in got] == got


@pytest.mark.parametrize("d", [12, 30])
def test_points_containing_returns_the_enumerated_objects(d):
    m = make_modulus(d)
    projline._points_cached.cache_clear()
    pts = enumerate_points(m)
    assert enumerate_points(m) == pts
    assert all(p is q for p, q in zip(enumerate_points(m), pts))
    ids = {id(p) for p in pts}
    for v in all_vectors(d):
        assert all(id(p) in ids for p in points_containing(v, m))


def _race(threads, work):
    # run work(i) on each thread at once, with thread switches as often as
    # the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(threads)

        def run(i):
            start.wait()
            work(i)

        pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)


@pytest.mark.parametrize("seed", range(5))
def test_concurrent_callers_fill_each_slot_once(seed):
    # each row slot is filled once, when the line is built; threads racing
    # through queries, unions and enumerations on one cached line must all get
    # the slot objects, and the member sets they read first must be equal
    m = make_modulus(60)
    projline._points_cached.cache_clear()
    projline._points_cached(m)
    vectors = all_vectors(60)
    results = [[] for _ in range(6)]
    unions = [{} for _ in range(6)]

    def work(i):
        rng = random.Random(seed * 6 + i)
        for k in range(40):
            v = rng.choice(vectors)
            if k == 20 + i % 2:
                results[i].extend(enumerate_points(m))
            elif k % 3 == 0:
                unions[i][v] = perp_as_point_union(v, m)
            else:
                results[i].extend(points_containing(v, m))

    _race(6, work)
    pts = enumerate_points(m)
    assert len(pts) == line_size_formula(m)
    ids = {id(p) for p in pts}
    assert all(id(p) in ids for result in results for p in result)
    slots = [p for _, row in projline._points_cached(m)[1] for p in row if p is not None]
    assert [id(p) for p in slots] == [id(p) for p in pts]
    for union in unions:
        for v, members in union.items():
            assert members == frozenset().union(*(orbit(p.generator, 60)
                                                  for p in points_containing(v, m))), v


def test_threads_that_race_for_one_cold_point_get_one_object():
    # every thread reads the members of the same point of a cached line for
    # the first time; each must get the one point object and an equal set
    m = make_modulus(60)
    v = (7, 12)
    expected = orbit(v, 60)
    for _ in range(20):
        projline._points_cached.cache_clear()
        projline._points_cached(m)
        results = [None] * 6

        def work(i):
            [point] = points_containing(v, m)
            results[i] = point, point.members

        _race(6, work)
        point = results[0][0]
        assert all(p is point for p, _ in results)
        assert next(p for p in enumerate_points(m) if p.generator == point.generator) is point
        assert all(members == expected for _, members in results)
        assert point.members == expected


def test_point_count_formula_up_to_105():
    for d in range(2, 106):
        m = make_modulus(d)
        assert len(enumerate_points(m)) == line_size_formula(m), d
    assert line_size_formula(make_modulus(30)) == 72
    assert line_size_formula(make_modulus(105)) == 192
    assert line_size_formula(make_modulus(12)) == 24


def test_points_containing_golden_example():
    m6 = make_modulus(6)
    pts = points_containing((2, 0), m6)
    # the same three points are generated by (5,0), (2,3), (5,3); compare as sets
    expected = {orbit((5, 0), 6), orbit((2, 3), 6), orbit((5, 3), 6)}
    assert {p.members for p in pts} == expected
    assert [p.generator for p in pts] == [(1, 0), (1, 3), (2, 3)]


def test_points_containing_more_examples():
    m6 = make_modulus(6)
    assert len(points_containing((2, 3), m6)) == 1
    assert len(points_containing((0, 0), m6)) == 12
    m12 = make_modulus(12)
    assert [p.generator for p in points_containing((1, 0), m12)] == [(1, 0)]
    assert points_containing((0, 0), m12) == enumerate_points(m12)
    assert len(points_containing((0, 0), m12)) == 24


@pytest.mark.parametrize("d", [2, 4, 6, 8, 9, 12, 18, 30, 36, 60, 105])
def test_incidence_index_matches_the_scan_on_every_vector(d):
    # points_containing, which solves incidence from the row table of the
    # point generators, lists the same point objects in the same order as a
    # scan of every point's members; unreduced vectors included
    m = make_modulus(d)
    pts = enumerate_points(m)
    for v in [*all_vectors(d), (-1, d + 2), (3 * d, -d)]:
        scanned = [p for p in pts if (v[0] % d, v[1] % d) in p.members]
        listed = points_containing(v, m)
        assert len(listed) == len(scanned), v
        assert all(p is q for p, q in zip(listed, scanned)), v


def test_index_set_K_examples():
    m6 = make_modulus(6)
    assert index_set_K((2, 0), m6) == {1}
    assert index_set_K((2, 3), m6) == frozenset()
    assert index_set_K((0, 0), m6) == {1, 2}
    m12 = make_modulus(12)
    assert index_set_K((1, 0), m12) == frozenset()
    assert index_set_K((2, 4), m12) == {1}
    assert index_set_K((6, 0), m12) == {1, 2}


def test_counting_formulas_examples():
    m6 = make_modulus(6)
    assert perp_size_formula((2, 0), m6) == 12
    assert perp_size_formula((1, 5), m6) == 6
    assert perp_size_formula((0, 0), m6) == 36
    assert point_count_formula((2, 0), m6) == 3
    assert point_count_formula((2, 3), m6) == 1
    assert point_count_formula((0, 0), m6) == 12
    m12 = make_modulus(12)
    assert perp_size_formula((1, 0), m12) == 12
    assert perp_size_formula((2, 0), m12) == 24
    assert perp_size_formula((0, 0), m12) == 144
    # 4 does not divide g = 2, so (2, 0) lies in gcd(2, 4) = 2 points, not 2 + 1
    assert point_count_formula((2, 0), m12) == 2
    assert point_count_formula((6, 0), m12) == 8
    assert point_count_formula((0, 0), m12) == 24
    assert point_count_formula((0, 2), make_modulus(4)) == 2


def test_counting_formulas_exhaustive():
    # every predicted count against full enumeration, at every d <= 40
    for d in range(2, 41):
        m = make_modulus(d)
        for v, rows in perp_rows(m):
            perp_size = sum(row.bit_count() for row in rows)
            assert len(points_containing(v, m)) == point_count_formula(v, m), (d, v)
            assert perp_size == perp_size_formula(v, m), (d, v)
            assert d * perp_size == commuting_count(PauliOp(0, *v), m), (d, v)
            vanishing = {k for k, p in enumerate(m.primes, 1) if v[0] % p == v[1] % p == 0}
            assert index_set_K(v, m) == vanishing, (d, v)


def test_perp_union_golden_example():
    m6 = make_modulus(6)
    union = perp_as_point_union((2, 0), m6)
    assert union == orbit((5, 0), 6) | orbit((2, 3), 6) | orbit((5, 3), 6)
    assert union == perp_set((2, 0), m6).members
    assert len(union) == 12


def test_perp_union_equals_perp_exhaustive():
    for m in square_free_moduli(30):
        for v in all_vectors(m.d):
            assert perp_as_point_union(v, m) == perp_set(v, m).members


def test_perp_union_is_a_proper_subset_at_d4():
    # the first counterexample off square-free d: (0, 2) is orthogonal to
    # (2, 0) and (2, 2), which lie in no point through (0, 2)
    m4 = make_modulus(4)
    union = perp_as_point_union((0, 2), m4)
    perp = perp_set((0, 2), m4).members
    assert len(union) == 6 and len(perp) == 8
    assert union < perp


def test_perp_union_inside_perp_with_equality_iff_square_free():
    for d in range(2, 21):
        m = make_modulus(d)
        equal = True
        for v in all_vectors(d):
            union, perp = perp_as_point_union(v, m), perp_set(v, m).members
            assert union <= perp, (d, v)
            equal = equal and union == perp
        assert equal == m.square_free, d


def test_perp_union_of_zero_is_everything():
    m6 = make_modulus(6)
    assert perp_as_point_union((0, 0), m6) == frozenset(all_vectors(6))


def test_admissible_perp_is_the_point_itself():
    # for admissible v: perp = orbit of v = any point containing v, any d <= 30
    for d in range(2, 31):
        m = make_modulus(d)
        pts = enumerate_points(m)
        for v in all_vectors(d):
            if not is_admissible(v, m):
                continue
            expected = orbit(v, d)
            assert perp_set(v, m).members == expected
            for p in pts:
                if v in p.members:
                    assert p.members == expected


def test_is_distant_examples():
    m6 = make_modulus(6)
    p10 = point_through((1, 0), m6)
    p01 = point_through((0, 1), m6)
    p50 = point_through((5, 0), m6)
    p23 = point_through((2, 3), m6)
    assert is_distant(p10, p01, m6)
    assert not is_distant(p50, p23, m6)  # both contain (2,0)
    assert not is_distant(p10, p10, m6)


def test_distant_iff_only_zero_shared():
    for d in (4, 6, 9, 10, 15):
        m = make_modulus(d)
        pts = enumerate_points(m)
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                assert is_distant(p, q, m) == (p.members & q.members == {(0, 0)})


def test_neighbour_graph_over_fields_is_edgeless():
    g7 = neighbour_graph(make_modulus(7))
    assert len(g7.vertices) == 8
    assert g7.edges == ()
    g2 = neighbour_graph(make_modulus(2))
    assert len(g2.vertices) == 3
    assert g2.edges == ()


def test_neighbour_graph_d6():
    g = neighbour_graph(make_modulus(6))
    assert type(g.vertices) is tuple
    assert len(g.vertices) == 12
    assert len(g.edges) == 30
    assert Counter(i for e in g.edges for i in e) == dict.fromkeys(range(12), 5)
    golden = json.loads((GOLDEN / "graph_d6.json").read_text())
    # the edges go to the JSON writer as the graph's own tuples
    assert g.to_json_dict()["edges"] is g.edges
    assert json.loads(json.dumps(g.to_json_dict())) == golden


def test_neighbour_graph_dot_output():
    dot = neighbour_graph(make_modulus(2)).to_dot()
    assert dot == (
        "graph line_d2 {\n"
        '  v0 [label="Z2(0,1)"];\n'
        '  v1 [label="Z2(1,0)"];\n'
        '  v2 [label="Z2(1,1)"];\n'
        "}"
    )


def test_point_json_shape():
    obj = point_through((1, 0), make_modulus(2)).to_json_dict()
    assert obj == {"generator": [1, 0], "members": [[0, 0], [1, 0]]}
