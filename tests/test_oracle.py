import dataclasses

import pytest

import ringline.cli
import ringline.pauli
import ringline.projline
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
from ringline.ring import make_modulus


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
    assert by_name["theorem2"].status == "skip"
    assert "square-free" in by_name["theorem2"].scope
    assert by_name["witness_construction"].status == "skip"
    assert by_name["group"].status == "pass"
    assert report.all_passed  # skips do not fail a report


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
    with pytest.raises(ValueError):
        verify_theorem2(m12)
    with pytest.raises(ValueError):
        verify_witness_construction(m12)
    with pytest.raises(ValueError, match="32"):
        verify_group(make_modulus(34))


def test_theorem1_holds_without_square_freeness():
    for d in (7, 12):
        assert verify_theorem1(make_modulus(d)).status == "pass"


def test_theorem2_passes_for_small_square_free():
    for d in (2, 10, 30):
        assert verify_theorem2(make_modulus(d)).status == "pass"


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
    # the check as one perp_set and one point scan per vector, compared as sets
    d = m.d

    def body():
        pts = ringline.projline.enumerate_points(m)
        for v in [(b, c) for b in range(d) for c in range(d)]:
            perp = ringline.symplectic.perp_set(v, m).members
            containing = [p for p in pts if v in p.members]
            for p in containing:
                if not p.members <= perp:
                    return {
                        "claim": "point through vector not inside its perp-set",
                        "vector": list(v),
                        "point": p.to_json_dict(),
                        "stray": [list(w) for w in sorted(p.members - perp)],
                    }
            if ringline.projline.is_admissible(v, m):
                orbit = ringline.projline.cyclic_submodule(v, m)
                if perp != orbit:
                    return {
                        "claim": "perp-set of admissible vector differs from its orbit",
                        "vector": list(v),
                        "perp_size": len(perp),
                        "orbit_size": len(orbit),
                    }
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
    # fault: the enumeration loses its last point, or lists it twice
    points = ringline.projline._points_cached(make_modulus(d))
    planted = points[:-1] if fault == "drop" else points + points[-1:]
    monkeypatch.setattr(ringline.projline, "_points_cached", lambda m: planted)
    entry = verify_theorem1(make_modulus(d))
    assert entry.status == "fail"
    assert entry.counterexample["claim"] == (
        f"admissible vector lies in {0 if fault == 'drop' else 2} points, expected exactly 1"
    )
    generators = entry.counterexample["generators"]
    assert generators == ([] if fault == "drop" else [list(points[-1].generator)] * 2)


def _swapped_idempotents(d):
    m = make_modulus(d)
    return dataclasses.replace(m, idempotents=m.idempotents[::-1])


_points_containing = ringline.projline.points_containing


def _union_of_every_point(v, m):
    return frozenset().union(*(p.members for p in ringline.projline.enumerate_points(m)))


_perp_rows = ringline.symplectic.perp_rows


def _perp_rows_without_zero(m):
    # every perp-set loses the zero vector, bit 0 of row 0
    for v, rows in _perp_rows(m):
        yield v, [rows[0] & ~1, *rows[1:]]


_line_size_formula = ringline.projline.line_size_formula


def _point_through_keeping_v(v, m):
    v = (v[0] % m.d, v[1] % m.d)
    return ringline.projline.Point(generator=v, members=ringline.projline.cyclic_submodule(v, m))


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
    "idempotents-swapped": (
        ringline.cli, "make_modulus", _swapped_idempotents, "witness_construction",
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
    "line-size-formula-plus-one": (
        ringline.projline, "line_size_formula", lambda m: _line_size_formula(m) + 1, "theorem1",
    ),
    "point-through-keeps-v": (
        ringline.projline, "point_through", _point_through_keeping_v, "theorem1",
    ),
    "index-set-K-always-empty": (
        ringline.projline, "index_set_K", lambda v, m: frozenset(), "theorem2",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_planted_fault_fails_its_check(monkeypatch, capsys, fault):
    module, attribute, replacement, check = PLANTED_FAULTS[fault]
    monkeypatch.setattr(module, attribute, replacement)
    entry = verify_all(ringline.cli.make_modulus(6), checks=[check]).checks[0]
    assert entry.status == "fail"
    assert "claim" in entry.counterexample
    assert ringline.cli.main(["verify", "6"]) == 1


@pytest.mark.parametrize("d", [12, 18])
@pytest.mark.parametrize(
    "fault", ["points-containing-drops-last-match", "line-size-formula-plus-one"]
)
def test_theorem1_catches_point_faults_off_square_free_d(monkeypatch, capsys, fault, d):
    module, attribute, replacement, _ = PLANTED_FAULTS[fault]
    monkeypatch.setattr(module, attribute, replacement)
    assert ringline.cli.main(["verify", str(d)]) == 1
    assert "FAIL theorem1" in capsys.readouterr().out


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
