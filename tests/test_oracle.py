import math

import pytest

import ringline
import ringline.cli
import ringline.oracle
import ringline.pauli
import ringline.projline
import ringline.ring
import ringline.symplectic
from ringline.oracle import (
    CHECK_NAMES,
    CheckResult,
    VerificationReport,
    _timed,
    construct_witness,
    verify_all,
    verify_group,
    verify_theorem1,
    verify_theorem2,
    verify_witness_construction,
)
from ringline.pauli import PauliOp
from ringline.ring import Modulus, make_modulus


def test_verify_all_passes_for_d6():
    report = verify_all(make_modulus(6))
    assert report.d == 6
    assert [c.name for c in report.checks] == sorted(CHECK_NAMES)
    assert all(c.status == "pass" for c in report.checks)
    assert report.all_passed


def test_verify_all_skips_square_free_checks_for_d12():
    report = verify_all(make_modulus(12))
    by_name = {c.name: c for c in report.checks}
    assert by_name["theorem1"].status == "pass"
    assert by_name["theorem2"].status == "pass"
    assert by_name["theorem2"].scope == "all 144 vectors of Z_12^2"
    assert by_name["witness_construction"].status == "skip"
    assert "square-free" in by_name["witness_construction"].scope
    assert by_name["group"].status == "pass"
    assert report.all_passed  # skips do not fail a report


def test_verify_all_runs_theorem2_at_every_d():
    for d in range(2, 25):
        (entry,) = verify_all(make_modulus(d), checks=["theorem2"]).checks
        assert entry.status == "pass", (d, entry.counterexample)


def test_verify_all_skips_group_for_large_d():
    report = verify_all(make_modulus(33), checks=["group"])
    (entry,) = report.checks
    assert entry.status == "skip"
    assert "32" in entry.scope


def test_verify_all_rejects_unknown_check_names():
    with pytest.raises(ValueError, match="nosuch"):
        verify_all(make_modulus(6), checks=["nosuch"])


def test_verify_all_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="no check selected"):
        verify_all(make_modulus(6), checks=[])


def test_verify_all_check_subset():
    report = verify_all(make_modulus(6), checks=["theorem1"])
    assert [c.name for c in report.checks] == ["theorem1"]


def test_theorem_checks_reject_non_square_free():
    m12 = make_modulus(12)
    with pytest.raises(ValueError, match="square-free"):
        verify_witness_construction(m12)
    with pytest.raises(ValueError, match="32"):
        verify_group(make_modulus(34))


def test_theorem1_holds_without_square_freeness():
    for d in (7, 12):
        assert verify_theorem1(make_modulus(d)).status == "pass"


def test_theorem2_passes_for_small_square_free():
    for d in (2, 10, 30):
        assert verify_theorem2(make_modulus(d)).status == "pass"


def _perp_members(v, m):
    return ringline.symplectic.perp_set(v, m).members


@pytest.mark.parametrize("d", [4, 12, 18])
def test_theorem2_must_find_a_proper_union_off_square_free_d(monkeypatch, d):
    monkeypatch.setattr(ringline.projline, "perp_as_point_union", _perp_members)
    entry = verify_theorem2(make_modulus(d))
    assert entry.status == "fail"
    assert entry.counterexample == {
        "claim": "every union of containing points equals its perp-set, but d is not square-free",
        "d": d,
    }


def test_theorem2_takes_a_perp_set_union_as_no_fault_at_square_free_d(monkeypatch):
    monkeypatch.setattr(ringline.projline, "perp_as_point_union", _perp_members)
    assert verify_theorem2(make_modulus(6)).status == "pass"


def _square_free_point_count(v, m):
    g = math.gcd(v[0], v[1], m.d)
    return math.prod(p + 1 for p in m.primes if g % p == 0)


def test_theorem2_catches_the_square_free_point_count_at_d12(monkeypatch):
    monkeypatch.setattr(ringline.projline, "point_count_formula", _square_free_point_count)
    assert verify_theorem2(make_modulus(6)).status == "pass"
    entry = verify_theorem2(make_modulus(12))
    assert entry.status == "fail"
    assert entry.counterexample == {
        "claim": "point count through vector differs from formula",
        "vector": [0, 0],
        "expected": 12,
        "actual": 24,
    }


def test_construct_witness_rejects_non_square_free_d():
    with pytest.raises(ValueError, match="^witness construction requires square-free d, got d=12$"):
        construct_witness((1, 0), (0, 0), make_modulus(12))


def test_group_check_passes():
    for d in (2, 6, 10, 12):
        assert verify_group(make_modulus(d)).status == "pass"


def test_witness_construction_golden_example():
    m6 = make_modulus(6)
    gen, u, s = construct_witness((2, 0), (2, 3), m6)
    assert gen == (2, 3)
    assert (u * gen[0] % 6, u * gen[1] % 6) == (2, 0)
    assert (s * gen[0] % 6, s * gen[1] % 6) == (2, 3)


def test_witness_construction_fallback_branch():
    # w = (0,0) forces the all-ones component on the vanishing prime
    m6 = make_modulus(6)
    gen, u, s = construct_witness((2, 0), (0, 0), m6)
    assert gen == (5, 3)
    assert u == 4 and (4 * 5 % 6, 4 * 3 % 6) == (2, 0)
    assert s == 0


def test_witness_construction_prime_case_degenerates():
    m7 = make_modulus(7)
    gen, u, s = construct_witness((3, 2), (6, 4), m7)
    assert gen == (3, 2)
    assert u == 1
    assert (s * 3 % 7, s * 2 % 7) == (6, 4)


def _reference_witness(v, w, m):
    # the recipe as per-prime residue lists, combined through the idempotents at the end
    (b, c), (x, y) = v, w
    gen_b, gen_c, u_res, s_res = [], [], [], []
    for p in m.primes:
        bk, ck, xk, yk = b % p, c % p, x % p, y % p
        if (bk, ck) != (0, 0):
            gen_b.append(bk)
            gen_c.append(ck)
            u_res.append(1)
            s_res.append(xk * pow(bk, -1, p) % p if bk else yk * pow(ck, -1, p) % p)
        elif (xk, yk) != (0, 0):
            gen_b.append(xk)
            gen_c.append(yk)
            u_res.append(0)
            s_res.append(1)
        else:
            gen_b.append(1)
            gen_c.append(1)
            u_res.append(0)
            s_res.append(0)
    combine = lambda residues: sum(r * e for r, e in zip(residues, m.idempotents)) % m.d
    return (combine(gen_b), combine(gen_c)), combine(u_res), combine(s_res)


@pytest.mark.parametrize("d", [2, 6, 10])
def test_witness_recipe_matches_reference_on_all_pairs(d):
    m = make_modulus(d)
    vectors = [(b, c) for b in range(d) for c in range(d)]
    for v in vectors:
        for w in vectors:
            assert construct_witness(v, w, m) == _reference_witness(v, w, m), (v, w)


@pytest.mark.parametrize("d", [15, 30])
def test_witness_recipe_matches_reference_on_perp_pairs(d):
    m = make_modulus(d)
    for b in range(d):
        for c in range(d):
            for w in ringline.symplectic.perp_set((b, c), m).members:
                assert construct_witness((b, c), w, m) == _reference_witness((b, c), w, m)


def test_witness_recipe_matches_reference_on_unreduced_inputs():
    m = make_modulus(2310)
    cases = [
        ((0, 0), (0, 0)), ((2310, -2310), (1, -1)), ((-1, 0), (-5, 7)),
        ((462, 770), (-462, 4620)), ((-330, 2310 * 7), (-11, 13)),
        ((105, -210), (10**12 + 1, -(10**9))), ((2 * 3 * 5, 7 * 11), (-2309, 2311)),
        ((-2310 * 3 - 35, 2310 + 66), (70, -99)),
    ]
    for v, w in cases:
        assert construct_witness(v, w, m) == _reference_witness(v, w, m), (v, w)


def _reference_theorem1(m):
    # the check as one perp-set through form and one point scan per admissible
    # vector, compared as sets
    d = m.d

    def body():
        pts = ringline.projline.enumerate_points(m)
        vectors = [(b, c) for b in range(d) for c in range(d)]
        for v in vectors:
            if not ringline.projline.is_admissible(v, m):
                continue
            perp = {w for w in vectors if ringline.symplectic.form(v, w, m) == 0}
            orbit = ringline.projline.cyclic_submodule(v, m)
            if perp != orbit:
                return {
                    "claim": "perp-set of admissible vector differs from its orbit",
                    "vector": list(v),
                    "perp_size": len(perp),
                    "orbit_size": len(orbit),
                }
            containing = [p for p in pts if v in p.members]
            for p in containing:
                if p.members != orbit:
                    return {
                        "claim": "point through admissible vector differs from its orbit",
                        "vector": list(v),
                        "point": p.to_json_dict(),
                    }
            if len(containing) != 1:
                return {
                    "claim": f"admissible vector lies in {len(containing)} points, "
                             "expected exactly 1",
                    "vector": list(v),
                    "generators": [list(p.generator) for p in containing],
                }
        return None

    return _timed("theorem1", f"all {d * d} vectors of Z_{d}^2", body)


def _reference_witness_construction(m):
    # the check with each perp-set enumerated by perp_set and sorted
    d = m.d

    def body():
        for v in [(b, c) for b in range(d) for c in range(d)]:
            for w in sorted(ringline.symplectic.perp_set(v, m).members):
                gen, u, s = construct_witness(v, w, m)
                failure = None
                if not ringline.projline.is_admissible(gen, m):
                    failure = "constructed generator is not admissible"
                elif ((u * gen[0]) % d, (u * gen[1]) % d) != v:
                    failure = "scalar u does not map generator to v"
                elif ((s * gen[0]) % d, (s * gen[1]) % d) != w:
                    failure = "scalar s does not map generator to w"
                if failure:
                    return {
                        "claim": failure,
                        "vector": list(v),
                        "perp_member": list(w),
                        "generator": list(gen),
                        "u": u,
                        "s": s,
                    }
        return None

    return _timed("witness_construction", f"all (v, w) pairs with w in v-perp, d={d}", body)


@pytest.mark.parametrize("d", range(2, 31))
def test_theorem1_report_matches_reference(d):
    m = make_modulus(d)
    expected = _reference_theorem1(m).to_json_dict(include_elapsed=False)
    assert verify_theorem1(m).to_json_dict(include_elapsed=False) == expected


@pytest.mark.parametrize("d", [d for d in range(2, 31) if make_modulus(d).square_free])
def test_witness_report_matches_reference(d):
    m = make_modulus(d)
    expected = _reference_witness_construction(m).to_json_dict(include_elapsed=False)
    assert verify_witness_construction(m).to_json_dict(include_elapsed=False) == expected


@pytest.mark.parametrize("d", [6, 12, 30])
def test_theorem1_counterexample_matches_reference_under_a_dropped_form_term(monkeypatch, d):
    # fault: form loses its second term; both routes must name the same vector and stray
    monkeypatch.setattr(ringline.symplectic, "form", lambda v, w, m: (v[1] * w[0]) % m.d)
    m = make_modulus(d)
    entry = verify_theorem1(m).to_json_dict(include_elapsed=False)
    assert entry["status"] == "fail"
    assert entry == _reference_theorem1(m).to_json_dict(include_elapsed=False)


@pytest.mark.parametrize("d", [6, 10, 15])
def test_witness_counterexample_matches_reference_under_swapped_idempotents(d):
    m = _swapped_idempotents(d)
    entry = verify_witness_construction(m).to_json_dict(include_elapsed=False)
    assert entry["status"] == "fail"
    assert entry == _reference_witness_construction(m).to_json_dict(include_elapsed=False)


def test_witness_construction_check_passes():
    for d in (2, 6, 10):
        assert verify_witness_construction(make_modulus(d)).status == "pass"


def test_reports_are_deterministic():
    m = make_modulus(6)
    first = verify_all(m)
    second = verify_all(m)
    strip = lambda r: [(c.name, c.scope, c.status, c.counterexample) for c in r.checks]
    assert strip(first) == strip(second)


def test_report_json_shape_and_elapsed_toggle():
    report = verify_all(make_modulus(6), checks=["theorem1"])
    with_t = report.to_json_dict()
    without_t = report.to_json_dict(include_elapsed=False)
    assert list(with_t) == ["d", "checks", "all_passed"]
    assert list(with_t["checks"][0]) == [
        "name", "scope", "status", "passed", "counterexample", "elapsed",
    ]
    assert "elapsed" not in without_t["checks"][0]
    assert with_t["all_passed"] is True


def test_all_passed_semantics():
    ok = CheckResult("a", "s", "pass", None, 0.0)
    skipped = CheckResult("b", "skipped: reason", "skip", None, 0.0)
    failed = CheckResult("c", "s", "fail", {"claim": "x"}, 0.0)
    assert VerificationReport(6, (ok, skipped)).all_passed
    assert not VerificationReport(6, (ok, skipped, failed)).all_passed


def test_oracle_catches_a_dropped_form_term(monkeypatch):
    # fault: form loses its second term, so perp-sets of (b, 0) vectors balloon
    m6 = make_modulus(6)
    monkeypatch.setattr(
        ringline.symplectic, "form", lambda v, w, m: (v[1] * w[0]) % m.d
    )
    t2 = verify_theorem2(m6)
    assert t2.status == "fail"
    assert t2.counterexample is not None
    grp = verify_group(m6)
    assert grp.status == "fail"
    assert grp.counterexample is not None


def test_oracle_catches_a_symmetrized_form(monkeypatch):
    # fault: plus instead of minus makes the form symmetric, not alternating
    m6 = make_modulus(6)
    monkeypatch.setattr(
        ringline.symplectic, "form", lambda v, w, m: (v[1] * w[0] + w[1] * v[0]) % m.d
    )
    t2 = verify_theorem2(m6)
    assert t2.status == "fail"
    assert t2.counterexample is not None


def test_failed_entry_always_carries_a_witness(monkeypatch):
    monkeypatch.setattr(ringline.symplectic, "form", lambda v, w, m: 0)
    for entry in (verify_theorem2(make_modulus(6)), verify_group(make_modulus(6))):
        assert entry.status == "fail"
        assert isinstance(entry.counterexample, dict)
        assert "claim" in entry.counterexample


@pytest.mark.parametrize("d", [12, 18, 30])
@pytest.mark.parametrize("fault", ["drop", "duplicate"])
def test_theorem1_catches_a_dropped_or_duplicated_point(monkeypatch, d, fault):
    # fault: the line loses its last point, or lists it twice; the rows lose
    # the dropped point's slot, and have one slot for the duplicate
    points, rows, table = ringline.projline._points_cached(make_modulus(d))
    last = points[-1]
    if fault == "drop":
        def strip(rows):
            return [(g, [None if p is last else p for p in row]) for g, row in rows]

        planted = (points[:-1], strip(rows), [(h, inverse, strip(rs)) for h, inverse, rs in table])
    else:
        planted = (*points, last), rows, table
    monkeypatch.setattr(ringline.projline, "_points_cached", lambda m: planted)
    entry = verify_theorem1(make_modulus(d))
    assert entry.status == "fail"
    if fault == "drop":
        assert entry.counterexample["claim"] == "admissible vector lies in 0 points, expected exactly 1"
        assert entry.counterexample["generators"] == []
    else:
        assert entry.counterexample == {
            "claim": "number of points differs from the line size formula",
            "expected": len(points),
            "actual": len(points) + 1,
        }


def _swapped_idempotents(d):
    # equal to the real modulus (same d), so it shares its cached points
    m = make_modulus(d)
    return Modulus(m.d, m.factors, m.primes, m.square_free, m.idempotents[::-1])


def _modulus_dropping_last_prime(d):
    m = make_modulus(d)
    return Modulus(m.d, m.factors, m.primes[:-1], m.square_free, m.idempotents)


def _modulus_dropping_last_factor(d):
    m = make_modulus(d)
    return Modulus(m.d, m.factors[:-1], m.primes, m.square_free, m.idempotents)


_points_containing = ringline.projline.points_containing


def _union_of_every_point(v, m):
    return frozenset().union(*(p.members for p in ringline.projline.enumerate_points(m)))


_perp_rows = ringline.symplectic.perp_rows


def _perp_rows_without_zero(m):
    # every perp-set loses the zero vector, bit 0 of row 0
    for v, rows in _perp_rows(m):
        yield v, [rows[0] & ~1, *rows[1:]]


def _perp_rows_stopping_after_first_vector(m):
    yield next(iter(_perp_rows(m)))


def _perp_rows_filling_non_admissible(m):
    # every non-admissible vector gets the whole of Z_d^2 as its perp-set
    for v, rows in _perp_rows(m):
        yield v, rows if ringline.projline.is_admissible(v, m) else [(1 << m.d) - 1] * m.d


_line_size_formula = ringline.projline.line_size_formula


def _point_through_keeping_v(v, m):
    v = (v[0] % m.d, v[1] % m.d)
    return ringline.projline.Point(v, ringline.projline.cyclic_submodule(v, m))


def _points_with_a_member_missing(v, m):
    # an admissible v gets its canonical point without the zero vector
    if ringline.projline.is_admissible(v, m):
        p = ringline.projline.point_through(v, m)
        return [ringline.projline.Point(p.generator, p.members - {(0, 0)})]
    return _points_containing(v, m)


_perp_set = ringline.symplectic.perp_set
_cyclic_submodule = ringline.projline.cyclic_submodule
_is_unit = ringline.projline.is_unit


def _generator_taking_largest_lift(g, x, d):
    # the largest lift of x mod d/g prime to g: still on the point, but not its
    # least admissible member unless that is the point's only one in row g
    n = d // g
    return g % d, max(y for y in range(x % n, d, n) if math.gcd(y, g) == 1)


def _perp_set_swapping_a_member(v, m):
    # the largest member outside the union of the points through v becomes the
    # least non-member; at square-free d, where none lies outside, the largest
    # member does
    ps = _perp_set(v, m)
    outside = ps.members - ringline.projline.perp_as_point_union(v, m)
    non_members = [(b, c) for b in range(m.d) for c in range(m.d) if (b, c) not in ps.members]
    if not non_members or not (outside or m.square_free):
        return ps
    swapped = ps.members - {max(outside or ps.members)} | {non_members[0]}
    return ringline.symplectic.PerpSet(ps.base, swapped)


def _perp_set_dropping_a_coset(v, m):
    # the solutions of the last solvable row b' are one coset of (d/g)Z_d; it
    # goes missing whenever g = gcd(b, d) > 1
    ps = _perp_set(v, m)
    if math.gcd(v[0], m.d) == 1:
        return ps
    last = max(b2 for b2, _ in ps.members)
    return ringline.symplectic.PerpSet(ps.base, frozenset(w for w in ps.members if w[0] != last))


_is_distant = ringline.projline.is_distant
_neighbour_graph = ringline.projline.neighbour_graph


def _neighbour_graph_without_last_edge(m):
    g = _neighbour_graph(m)
    return ringline.projline.NeighbourGraph(g.d, g.vertices, g.edges[:-1])


def _neighbour_graph_reversing_vertices(m):
    g = _neighbour_graph(m)
    return ringline.projline.NeighbourGraph(g.d, g.vertices[::-1], g.edges)


_points_cached = ringline.projline._points_cached


def _row_table_dropping_last_rows(m):
    # every b's entry of the row table loses its last row
    points, rows, table = _points_cached(m)
    return points, rows, [(h, inverse, rs[:-1]) for h, inverse, rs in table]


_enumerate_points = ringline.projline.enumerate_points


def _bulk_build_dropping_a_member(m):
    # the last point of the line loses its largest member in its row slot,
    # which queries read, and so in the enumeration
    points = _enumerate_points(m)
    (g, c) = points[-1].generator
    row = next(row for h, row in _points_cached(m)[1] if h % m.d == g)
    if row[c] is points[-1]:
        whole = row[c]
        row[c] = ringline.projline.Point(whole.generator, whole.members - {max(whole.members)})
    points[-1] = row[c]
    return points


_perp_in_order = ringline.symplectic._perp_in_order


def _closed_form_dropping_an_element(v, d):
    # every perp-set read in order, so every point of the line, loses its
    # last element, the last of its last coset
    return iter(list(_perp_in_order(v, d))[:-1])


_construct_witness = ringline.oracle.construct_witness


def _witness_with_u_plus_one(v, w, m):
    gen, u, s = _construct_witness(v, w, m)
    return gen, u + 1, s


def _witness_with_s_plus_one(v, w, m):
    gen, u, s = _construct_witness(v, w, m)
    return gen, u, s + 1


_perp_size_formula = ringline.projline.perp_size_formula
_point_count_formula = ringline.projline.point_count_formula
_unit_count = ringline.ring.unit_count
_group_closure_order = ringline.pauli.group_closure_order
_centre = ringline.pauli.centre
_commuting_count = ringline.pauli.commuting_count
_commutator = ringline.pauli.commutator
_vectors = ringline.oracle._vectors


def _matmul_dropping_left_phase(self, other):
    # the product keeps the right factor's phases and loses the left one's
    return ringline.pauli.GenPermMatrix(
        self.dim, tuple(self.perm[p] for p in other.perm), other.expo
    )


# one planted bug per row: (module, attribute, replacement, the check that must FAIL)
PLANTED_FAULTS = {
    "form-sign-flipped": (
        ringline.symplectic, "form", lambda v, w, m: (w[1] * v[0] - v[1] * w[0]) % m.d, "group",
    ),
    "multiply-phase-b-c2": (
        ringline.pauli, "multiply",
        lambda w, w2, m: PauliOp(
            (w.b * w2.c + w.a + w2.a) % m.d, (w.b + w2.b) % m.d, (w.c + w2.c) % m.d
        ),
        "group",
    ),
    "inverse-phase-minus-bc": (
        ringline.pauli, "inverse",
        lambda w, m: PauliOp((-w.b * w.c - w.a) % m.d, -w.b % m.d, -w.c % m.d),
        "group",
    ),
    "to-matrix-drops-scalar-phase": (
        ringline.pauli, "to_matrix",
        lambda w, m: ringline.pauli.GenPermMatrix(
            m.d, tuple((s + w.b) % m.d for s in range(m.d)),
            tuple(w.c * s % m.d for s in range(m.d)),
        ),
        "group",
    ),
    "matmul-drops-left-phase": (
        ringline.pauli.GenPermMatrix, "__matmul__", _matmul_dropping_left_phase, "group",
    ),
    "idempotents-swapped": (
        ringline.cli, "make_modulus", _swapped_idempotents, "witness_construction",
    ),
    "modulus-drops-last-prime": (
        ringline.cli, "make_modulus", _modulus_dropping_last_prime, "theorem2",
    ),
    "modulus-drops-last-factor": (
        ringline.cli, "make_modulus", _modulus_dropping_last_factor, "theorem1",
    ),
    "points-containing-drops-last-match": (
        ringline.projline, "points_containing", lambda v, m: _points_containing(v, m)[:-1],
        "theorem2",
    ),
    "point-union-is-whole-line": (
        ringline.projline, "perp_as_point_union", _union_of_every_point, "theorem2",
    ),
    "perp-rows-drop-a-bit": (
        ringline.symplectic, "perp_rows", _perp_rows_without_zero, "theorem1",
    ),
    "perp-rows-fill-non-admissible": (
        ringline.symplectic, "perp_rows", _perp_rows_filling_non_admissible, "theorem2",
    ),
    "line-size-formula-plus-one": (
        ringline.projline, "line_size_formula", lambda m: _line_size_formula(m) + 1, "theorem1",
    ),
    "point-through-keeps-v": (
        ringline.projline, "point_through", _point_through_keeping_v, "theorem1",
    ),
    "index-set-K-always-empty": (
        ringline.projline, "index_set_K", lambda v, m: frozenset(), "theorem2",
    ),
    "is-distant-negated": (
        ringline.projline, "is_distant", lambda p, q, m: not _is_distant(p, q, m), "theorem2",
    ),
    "neighbour-graph-drops-an-edge": (
        ringline.projline, "neighbour_graph", _neighbour_graph_without_last_edge, "theorem2",
    ),
    "neighbour-graph-reverses-vertices": (
        ringline.projline, "neighbour_graph", _neighbour_graph_reversing_vertices, "theorem2",
    ),
    "row-table-drops-last-rows": (
        ringline.projline, "_points_cached", _row_table_dropping_last_rows, "theorem2",
    ),
    "bulk-build-drops-a-member": (
        ringline.projline, "enumerate_points", _bulk_build_dropping_a_member, "theorem1",
    ),
    "closed-form-drops-a-coset-element": (
        ringline.symplectic, "_perp_in_order", _closed_form_dropping_an_element, "theorem1",
    ),
    "is-admissible-always-false": (
        ringline.projline, "is_admissible", lambda v, m: False, "theorem1",
    ),
    "is-admissible-ignores-d": (
        ringline.projline, "is_admissible", lambda v, m: math.gcd(v[0], v[1]) == 1, "theorem2",
    ),
    "perp-set-swaps-a-member": (
        ringline.symplectic, "perp_set", _perp_set_swapping_a_member, "theorem2",
    ),
    "perp-set-drops-a-coset": (
        ringline.symplectic, "perp_set", _perp_set_dropping_a_coset, "theorem2",
    ),
    "perp-size-formula-plus-one": (
        ringline.projline, "perp_size_formula", lambda v, m: _perp_size_formula(v, m) + 1,
        "theorem2",
    ),
    "witness-u-plus-one": (
        ringline.oracle, "construct_witness", _witness_with_u_plus_one, "witness_construction",
    ),
    "witness-s-plus-one": (
        ringline.oracle, "construct_witness", _witness_with_s_plus_one, "witness_construction",
    ),
    "closure-order-plus-one": (
        ringline.pauli, "group_closure_order", lambda m: _group_closure_order(m) + 1, "group",
    ),
    "centre-without-identity": (
        ringline.pauli, "centre", lambda m: _centre(m) - {ringline.pauli.IDENTITY}, "group",
    ),
    "commuting-count-plus-one": (
        ringline.pauli, "commuting_count", lambda w, m: _commuting_count(w, m) + 1, "group",
    ),
    "commutes-always-true": (
        ringline.pauli, "commutes", lambda w, w2, m: True, "group",
    ),
    "points-containing-drops-a-member": (
        ringline.projline, "points_containing", _points_with_a_member_missing, "theorem1",
    ),
    "perp-rows-stops-after-first-vector": (
        ringline.symplectic, "perp_rows", _perp_rows_stopping_after_first_vector,
        "witness_construction",
    ),
    "generator-takes-largest-lift": (
        ringline.projline, "_generator", _generator_taking_largest_lift, "theorem1",
    ),
    "cyclic-submodule-drops-zero": (
        ringline.projline, "cyclic_submodule",
        lambda v, m: _cyclic_submodule(v, m) - {(0, 0)}, "theorem1",
    ),
    # is_distant reads projline's own is_unit; patching ring.is_unit misses it
    "is-unit-negated": (
        ringline.projline, "is_unit", lambda x, m: not _is_unit(x, m), "theorem2",
    ),
    "is-perp-always-true": (
        ringline.symplectic, "is_perp", lambda v, w, m: True, "group",
    ),
    "commutator-sign-flipped": (
        ringline.pauli, "commutator",
        lambda w, w2, m: PauliOp(-_commutator(w, w2, m).a % m.d, 0, 0), "group",
    ),
    "point-count-formula-plus-one": (
        ringline.projline, "point_count_formula", lambda v, m: _point_count_formula(v, m) + 1,
        "theorem2",
    ),
    "unit-count-plus-one": (
        ringline.ring, "unit_count", lambda m: _unit_count(m) + 1, "theorem1",
    ),
    "group-classes-drop-last-vector": (
        ringline.oracle, "_vectors", lambda d: _vectors(d)[:-1], "group",
    ),
}

# the exact claim each of these rows produces at d=6
PLANTED_CLAIMS = {
    "is-distant-negated": "neighbour graph differs from the point pairs sharing a non-zero vector",
    "neighbour-graph-drops-an-edge":
        "neighbour graph differs from the point pairs sharing a non-zero vector",
    "neighbour-graph-reverses-vertices": "neighbour graph vertices differ from the enumerated points",
    "row-table-drops-last-rows": "point count through vector differs from formula",
    "perp-set-swaps-a-member": "union of containing points differs from perp-set",
    "perp-set-drops-a-coset": "union of containing points differs from perp-set",
    "perp-size-formula-plus-one": "perp-set size differs from formula",
    "witness-u-plus-one": "scalar u does not map generator to v",
    "witness-s-plus-one": "scalar s does not map generator to w",
    "closure-order-plus-one": "closure of {X, Z} has wrong order",
    "centre-without-identity": "brute-force centre differs from the scalars",
    "commuting-count-plus-one": "exhaustive commutant size differs from formula",
    "commutes-always-true": "commutes differs from the four-fold product",
    "perp-rows-fill-non-admissible": "perp_rows differs from perp_set",
    "points-containing-drops-a-member":
        "point through admissible vector differs from point_through",
    "bulk-build-drops-a-member": "point through admissible vector differs from point_through",
    "closed-form-drops-a-coset-element":
        "point through admissible vector differs from point_through",
    "is-admissible-always-false":
        "number of admissible vectors differs from line size times unit count",
    "is-admissible-ignores-d": "is_admissible differs from an empty index set K",
    "perp-rows-stops-after-first-vector":
        "number of witness pairs differs from d * prod (p^2 + p - 1)",
    "generator-takes-largest-lift": "point generator is not its least admissible member",
    "cyclic-submodule-drops-zero": "perp-set of admissible vector differs from its orbit",
    "is-unit-negated": "neighbour graph differs from the point pairs sharing a non-zero vector",
    "is-perp-always-true": "commutes differs from the four-fold product",
    "commutator-sign-flipped": "four-fold product differs from the closed-form commutator",
    "point-count-formula-plus-one": "point count through vector differs from formula",
    "unit-count-plus-one":
        "number of admissible vectors differs from line size times unit count",
    "group-classes-drop-last-vector": "number of class pairs differs from d^4",
}

# public callables that no PLANTED_FAULTS row patches, each with the reason
FAULT_EXEMPTIONS = {
    ("ring", "Modulus"): "value class; make_modulus fills it, and its rows corrupt the fields",
    ("symplectic", "PerpSet"): "value class; perp_set builds it, and its rows corrupt it",
    ("symplectic", "Vector2"): "type alias for tuple[int, int]; it runs no code of its own",
    ("projline", "Point"): "value class; point_through and enumerate_points build it, with rows",
    ("projline", "NeighbourGraph"): "value class; neighbour_graph builds it, and has rows",
    ("pauli", "PauliOp"): "value class of exponents; the multiply and inverse rows reach it",
    ("pauli", "format_pauli"): "renders only; its output is pinned by the golden files",
}


def _public_callables():
    """(module, name, object) of every public callable that ``verify`` answers for."""
    for module in ("ring", "symplectic", "projline", "pauli"):
        for name in ringline._EXPORTS[module]:
            value = getattr(getattr(ringline, module), name)
            if callable(value):
                yield module, name, value
    yield "oracle", "construct_witness", ringline.oracle.construct_witness


def _has_a_planted_row(value):
    # a row covers the object it replaces, so a row on another module's binding
    # of the same function counts (projline.is_unit is ring.is_unit, and
    # cli.make_modulus is ring.make_modulus), and so does a row on a method
    return any(value is getattr(target, attribute) or value is target
               for target, attribute, _, _ in PLANTED_FAULTS.values())


def test_every_public_callable_has_a_planted_fault_or_an_exemption():
    uncovered = [(module, name) for module, name, value in _public_callables()
                 if not _has_a_planted_row(value) and (module, name) not in FAULT_EXEMPTIONS]
    assert uncovered == []


def test_fault_exemptions_name_only_public_callables_without_a_row():
    rowless = {(module, name) for module, name, value in _public_callables()
               if not _has_a_planted_row(value)}
    assert set(FAULT_EXEMPTIONS) <= rowless
    assert all(reason for reason in FAULT_EXEMPTIONS.values())


@pytest.fixture
def plant(monkeypatch):
    """Install a PLANTED_FAULTS row by name and return its check.  The point
    cache is cleared around it, so no row reads points cached before it or
    leaves any behind."""
    cache = ringline.projline._points_cached
    cache.cache_clear()

    def install(fault):
        module, attribute, replacement, check = PLANTED_FAULTS[fault]
        monkeypatch.setattr(module, attribute, replacement)
        return check

    yield install
    cache.cache_clear()


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_planted_fault_fails_its_check(plant, capsys, fault):
    check = plant(fault)
    entry = verify_all(ringline.cli.make_modulus(6), checks=[check]).checks[0]
    assert entry.status == "fail"
    assert "claim" in entry.counterexample
    assert ringline.cli.main(["verify", "6"]) == 1


@pytest.mark.parametrize("fault", sorted(PLANTED_CLAIMS))
def test_planted_fault_reports_its_claim_at_d6(plant, fault):
    check = plant(fault)
    (entry,) = verify_all(make_modulus(6), checks=[check]).checks
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == PLANTED_CLAIMS[fault]


@pytest.mark.parametrize(
    "fault",
    ["generator-takes-largest-lift", "cyclic-submodule-drops-zero", "is-unit-negated",
     "is-perp-always-true", "commutator-sign-flipped", "point-count-formula-plus-one",
     "unit-count-plus-one", "group-classes-drop-last-vector"],
)
def test_planted_fault_reports_its_claim_at_d12(plant, capsys, fault):
    check = plant(fault)
    assert ringline.cli.main(["verify", "12", "--checks", check]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out
    assert PLANTED_CLAIMS[fault] in out


@pytest.mark.parametrize("d", [6, 12])
@pytest.mark.parametrize("fault, claim", [
    ("modulus-drops-last-prime", "is_admissible differs from an empty index set K"),
    ("modulus-drops-last-factor", "number of points differs from the line size formula"),
])
def test_make_modulus_faults_report_their_claim(plant, capsys, fault, claim, d):
    # the rows patch the CLI's make_modulus, so only main builds the faulty modulus
    check = plant(fault)
    assert ringline.cli.main(["verify", str(d), "--checks", check]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out
    assert claim in out


@pytest.mark.parametrize("d", [6, 12, 36])
def test_theorem1_catches_a_non_least_generator(plant, d):
    # the enumeration and point_through share the wrong rule and agree with
    # each other; only the definition tells
    plant("generator-takes-largest-lift")
    (entry,) = verify_all(make_modulus(d), checks=["theorem1"]).checks
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == PLANTED_CLAIMS["generator-takes-largest-lift"]
    generator = tuple(entry.counterexample["generator"])
    least = tuple(entry.counterexample["least_admissible_member"])
    assert least < generator
    assert least in ringline.projline.point_through(generator, make_modulus(d)).members


@pytest.mark.parametrize("d, pairs", [(6, 6 * 5 * 11), (30, 30 * 5 * 11 * 29)])
def test_witness_construction_counts_its_pairs(plant, d, pairs):
    plant("perp-rows-stops-after-first-vector")
    (entry,) = verify_all(make_modulus(d), checks=["witness_construction"]).checks
    # the first vector is (0, 0), whose perp-set is all of Z_d^2
    assert entry.counterexample == {
        "claim": PLANTED_CLAIMS["perp-rows-stops-after-first-vector"],
        "expected": pairs,
        "actual": d * d,
    }


@pytest.mark.parametrize("d", [6, 12])
def test_group_counts_its_class_pairs(plant, d):
    # with one class missing no class commutes with all d^2 others, so the
    # centre claim would fire too; the count comes first and names the cause
    plant("group-classes-drop-last-vector")
    (entry,) = verify_all(make_modulus(d), checks=["group"]).checks
    assert entry.counterexample == {
        "claim": PLANTED_CLAIMS["group-classes-drop-last-vector"],
        "expected": d**4,
        "actual": (d * d - 1) ** 2,
    }


@pytest.mark.parametrize(
    "source, read", [(lambda m: iter(()), 0), (_perp_rows_stopping_after_first_vector, 1)]
)
def test_theorem2_counts_the_vectors_it_reads_at_d7(monkeypatch, source, read):
    # over a field every union of points is its perp-set and the neighbour
    # graph is edgeless, so only the count tells a short source
    monkeypatch.setattr(ringline.symplectic, "perp_rows", source)
    (entry,) = verify_all(make_modulus(7), checks=["theorem2"]).checks
    assert entry.counterexample == {
        "claim": "number of vectors read differs from d^2",
        "expected": 49,
        "actual": read,
    }


@pytest.mark.parametrize("d", [12, 30])
@pytest.mark.parametrize("fault", ["is-distant-negated", "neighbour-graph-drops-an-edge"])
def test_theorem2_catches_neighbour_faults_beyond_d6(plant, capsys, fault, d):
    plant(fault)
    assert ringline.cli.main(["verify", str(d), "--checks", "theorem2"]) == 1
    assert PLANTED_CLAIMS[fault] in capsys.readouterr().out


def test_theorem2_names_the_edges_a_dropped_edge_leaves_out(plant):
    plant("neighbour-graph-drops-an-edge")
    m = make_modulus(6)
    entry = verify_theorem2(m)
    assert entry.counterexample["differing_edges"] == [list(_neighbour_graph(m).edges[-1])]


@pytest.mark.parametrize("d", [12, 18, 36])
def test_theorem2_catches_a_non_orthogonal_perp_set_member_off_square_free_d(monkeypatch, d):
    # the swapped-in member lies outside the union of points, which theorem2
    # does not require to be all of the perp-set off square-free d
    monkeypatch.setattr(ringline.symplectic, "perp_set", _perp_set_swapping_a_member)
    m = make_modulus(d)
    entry = verify_theorem2(m)
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == "perp_rows differs from perp_set"
    v = tuple(entry.counterexample["vector"])
    members = entry.counterexample["perp_minus_rows"]
    assert members
    assert all(ringline.symplectic.form(v, tuple(w), m) != 0 for w in members)


@pytest.mark.parametrize("d", [12, 18])
@pytest.mark.parametrize(
    "fault",
    [
        "bulk-build-drops-a-member",
        "closed-form-drops-a-coset-element",
        "line-size-formula-plus-one",
        "perp-rows-drop-a-bit",
        "point-through-keeps-v",
        "points-containing-drops-a-member",
        "points-containing-drops-last-match",
    ],
)
def test_theorem1_catches_point_faults_off_square_free_d(plant, capsys, fault, d):
    plant(fault)
    assert ringline.cli.main(["verify", str(d)]) == 1
    assert "FAIL theorem1" in capsys.readouterr().out


@pytest.mark.parametrize("d", [6, 12, 36])
@pytest.mark.parametrize("fault", ["is-admissible-always-false", "is-admissible-ignores-d"])
def test_verify_fails_an_is_admissible_fault_in_both_theorems(plant, capsys, fault, d):
    # theorem1 counts the vectors it reads, and theorem2 ties is_admissible to
    # the index set K, so neither passes on the vectors a fault hides
    plant(fault)
    assert ringline.cli.main(["verify", str(d)]) == 1
    out = capsys.readouterr().out
    assert "FAIL theorem1" in out
    assert "FAIL theorem2" in out


@pytest.mark.parametrize("d", [6, 12])
@pytest.mark.parametrize("fault", [
    "bulk-build-drops-a-member",
    "closed-form-drops-a-coset-element",
    "point-through-keeps-v",
    "points-containing-drops-a-member",
])
def test_theorem1_names_how_the_point_differs_from_the_orbit(plant, fault, d):
    # point_through's point makes its members by the same closed form as the
    # enumerated point, so the counterexample sets the point against the
    # orbit, the independent build
    plant(fault)
    m = make_modulus(d)
    (entry,) = verify_all(m, checks=["theorem1"]).checks
    example = entry.counterexample
    assert example["claim"] == "point through admissible vector differs from point_through"
    v = tuple(example["vector"])
    orbit = ringline.projline.cyclic_submodule(v, m)
    point = {tuple(w) for w in example["point"]["members"]}
    assert example["point_minus_orbit"] == [list(w) for w in sorted(point - orbit)]
    assert example["orbit_minus_point"] == [list(w) for w in sorted(orbit - point)]
    if fault == "point-through-keeps-v":
        # the point is the orbit, but point_through kept a non-canonical v
        assert example["orbit_minus_point"] == example["point_minus_orbit"] == []
        assert example["point_through"]["generator"] == list(v) != example["point"]["generator"]
    elif fault == "closed-form-drops-a-coset-element":
        # (0, 1) is read first, and its point loses its last member
        assert (v, example["orbit_minus_point"]) == ((0, 1), [[0, d - 1]])
    else:
        assert example["point_minus_orbit"] == [] != example["orbit_minus_point"]


def test_theorem1_names_both_admissible_counts(plant):
    plant("is-admissible-ignores-d")
    m = make_modulus(6)
    entry = verify_theorem1(m)
    # (5, 0), (0, 5) and (5, 5) are admissible mod 6, but their coordinates
    # share the factor 5, so the fault skips them
    assert entry.counterexample == {
        "claim": PLANTED_CLAIMS["is-admissible-always-false"],
        "expected": 12 * 2,
        "actual": sum(math.gcd(b, c) == 1 for b in range(6) for c in range(6)),
    }


def _perp_rows_without_zero_off_admissible(m):
    # only the non-admissible vectors' perp-sets lose the zero vector
    for v, rows in _perp_rows(m):
        admissible = ringline.projline.is_admissible(v, m)
        yield v, rows if admissible else [rows[0] & ~1, *rows[1:]]


@pytest.mark.parametrize("d", [6, 12])
def test_theorem2_alone_reads_non_admissible_perp_rows(monkeypatch, capsys, d):
    monkeypatch.setattr(ringline.symplectic, "perp_rows", _perp_rows_without_zero_off_admissible)
    assert ringline.cli.main(["verify", str(d), "--checks", "theorem1,theorem2"]) == 1
    out = capsys.readouterr().out
    assert "PASS theorem1" in out
    assert "FAIL theorem2" in out
    assert "perp_rows differs from perp_set" in out


@pytest.mark.parametrize(
    "fault", sorted(f for f, row in PLANTED_FAULTS.items() if row[3] == "theorem2")
)
def test_theorem2_faults_fail_verify_off_square_free_d(plant, capsys, fault):
    plant(fault)
    assert ringline.cli.main(["verify", "12"]) == 1
    assert "\nFAIL theorem2" in capsys.readouterr().out


@pytest.mark.parametrize("d", [12, 30])
def test_group_catches_a_commutes_that_always_holds_beyond_d6(plant, capsys, d):
    plant("commutes-always-true")
    assert ringline.cli.main(["verify", str(d), "--checks", "group"]) == 1
    assert PLANTED_CLAIMS["commutes-always-true"] in capsys.readouterr().out


def test_theorem2_names_the_vectors_perp_rows_adds(plant):
    plant("perp-rows-fill-non-admissible")
    m = make_modulus(12)
    entry = verify_theorem2(m)
    v = tuple(entry.counterexample["vector"])
    perp = ringline.symplectic.perp_set(v, m).members
    assert entry.counterexample["claim"] == PLANTED_CLAIMS["perp-rows-fill-non-admissible"]
    assert not ringline.projline.is_admissible(v, m)
    assert entry.counterexample["rows_minus_perp"] == [
        [b, c] for b in range(12) for c in range(12) if (b, c) not in perp
    ]
    assert entry.counterexample["perp_minus_rows"] == []


@pytest.mark.parametrize("d", [6, 12])
def test_group_catches_a_matmul_that_drops_the_left_phase(plant, d):
    plant("matmul-drops-left-phase")
    entry = verify_group(make_modulus(d))
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == "matrix model has no normal-form bijection"


def _points_keeping_v(v, m):
    # an admissible v gets a point generated by v itself, canonical or not
    if ringline.projline.is_admissible(v, m):
        return [_point_through_keeping_v(v, m)]
    return _points_containing(v, m)


@pytest.mark.parametrize("d", [6, 12])
def test_theorem1_checks_a_point_outside_the_enumeration(monkeypatch, d):
    monkeypatch.setattr(ringline.projline, "points_containing", _points_keeping_v)
    entry = verify_theorem1(make_modulus(d))
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == (
        "point through admissible vector differs from point_through"
    )
    assert entry.counterexample["vector"] == [0, 5]  # (0, 1) is canonical


def test_theorem2_names_a_point_outside_the_enumeration(monkeypatch):
    monkeypatch.setattr(ringline.projline, "points_containing", _points_keeping_v)
    entry = verify_theorem2(make_modulus(6))
    assert entry.status == "fail"
    assert entry.counterexample == {
        "claim": "point through vector is not an enumerated point",
        "vector": [0, 5],  # (0, 1) is canonical
        "point": _point_through_keeping_v((0, 5), make_modulus(6)).to_json_dict(),
    }


@pytest.mark.parametrize("d", [6, 12])
def test_theorem2_passes_when_the_line_is_evicted_mid_check(monkeypatch, d):
    # the cached line may be rebuilt into new, equal point objects at any
    # time, as by another caller filling the cache; theorem2 must still find
    # every queried point among the enumerated ones
    calls = 0

    def evicting(v, m):
        nonlocal calls
        calls += 1
        if calls == 3:
            ringline.projline._points_cached.cache_clear()
        return _points_containing(v, m)

    ringline.projline._points_cached.cache_clear()
    monkeypatch.setattr(ringline.projline, "points_containing", evicting)
    entry = verify_theorem2(make_modulus(d))
    assert calls > 3
    assert (entry.status, entry.counterexample) == ("pass", None)


@pytest.mark.parametrize("d", [6, 12])
def test_theorem2_names_reversed_graph_vertices(plant, d):
    plant("neighbour-graph-reverses-vertices")
    m = make_modulus(d)
    entry = verify_theorem2(m)
    generators = [list(p.generator) for p in ringline.projline.enumerate_points(m)]
    assert entry.counterexample == {
        "claim": "neighbour graph vertices differ from the enumerated points",
        "vertices": generators[::-1],
        "points": generators,
    }
