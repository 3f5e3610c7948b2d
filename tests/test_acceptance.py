"""Acceptance suite: one test per release criterion, with its stated time budget.

Run `pytest tests/test_acceptance.py -v -s` for one printed pass line per
criterion.  Budgets are wall-clock bounds on the listed computation, measured
with perf_counter around the library calls (process startup is not part of any
budget).
"""

import json
import os
import time
import tracemalloc
from collections import deque
from contextlib import redirect_stdout
from itertools import product

import pytest

import ringline.projline
import ringline.symplectic
from ringline.cli import main
from ringline.oracle import (
    verify_theorem1,
    verify_theorem2,
    verify_witness_construction,
)
from ringline.pauli import (
    PauliOp,
    centre,
    commutator,
    commutes,
    commuting_count,
    group_closure_order,
    inverse,
    multiply,
    to_matrix,
)
from ringline.projline import line_size_formula, enumerate_points, point_through, points_containing
from ringline.ring import make_modulus
from ringline.symplectic import form, perp_set

PERP_2_0_D6 = {
    (5, 0), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0),
    (2, 3), (0, 3), (4, 3), (5, 3), (3, 3), (1, 3),
}


def orbit(v, d):
    return frozenset(((u * v[0]) % d, (u * v[1]) % d) for u in range(d))


def square_free(limit):
    return [d for d in range(2, limit + 1) if make_modulus(d).square_free]


def test_criterion_01_perp_golden_example_d6():
    # exact reproduction of the golden 12-vector perp-set and its three
    # points, in under a millisecond of computation (best of three cold runs)
    best = float("inf")
    for _ in range(3):
        ringline.projline._points_cached.cache_clear()
        start = time.perf_counter()
        m = make_modulus(6)
        ps = perp_set((2, 0), m)
        pts = points_containing((2, 0), m)
        best = min(best, time.perf_counter() - start)
    assert ps.members == frozenset(PERP_2_0_D6)
    assert ps.size == 12
    assert {p.members for p in pts} == {orbit((5, 0), 6), orbit((2, 3), 6), orbit((5, 3), 6)}
    assert best < 0.001, f"took {best * 1e3:.3f} ms"
    print(f"PASS criterion 1: d=6 perp golden example exact, {best * 1e6:.0f} us")


def test_criterion_02_point_counts_up_to_105():
    ringline.projline._points_cached.cache_clear()
    start = time.perf_counter()
    counts = {}
    for d in square_free(105):
        m = make_modulus(d)
        counts[d] = len(enumerate_points(m))
        assert counts[d] == line_size_formula(m)
    elapsed = time.perf_counter() - start
    assert counts[2] == 3 and counts[6] == 12 and counts[30] == 72 and counts[105] == 192
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 2: point counts for all square-free d <= 105, {elapsed:.2f} s")


def test_criterion_03_perp_decomposition_exhaustive():
    start = time.perf_counter()
    for d in (2, 3, 5, 6, 10, 15, 21, 30):
        entry = verify_theorem2(make_modulus(d))
        assert entry.status == "pass", entry.counterexample
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 3: perp decomposition over all vectors, 8 moduli, {elapsed:.2f} s")


def test_criterion_04_point_in_perp_exhaustive():
    start = time.perf_counter()
    for d in range(2, 16):
        entry = verify_theorem1(make_modulus(d))
        assert entry.status == "pass", entry.counterexample
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 4: point-in-perp claims for d = 2..15, {elapsed:.2f} s")


def test_criterion_05_group_order_is_d_cubed():
    start = time.perf_counter()
    for d in (2, 3, 4, 5, 6, 10):
        assert group_closure_order(make_modulus(d)) == d**3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 5: matrix closure of {{X, Z}} has d^3 elements, {elapsed:.2f} s")


def test_criterion_06_commutant_counts_for_every_operator():
    start = time.perf_counter()
    for d in (6, 10, 15):
        m = make_modulus(d)
        classes = [(b, c) for b in range(d) for c in range(d)]
        # commutation ignores omega-exponents, so the per-class orthogonality
        # counts settle the commutant of each of the d^3 operators exactly
        perp_count = {
            vc: sum(1 for other in classes if form(vc, other, m) == 0)
            for vc in classes
        }
        for a in range(d):
            for b, c in classes:
                brute = d * perp_count[(b, c)]
                assert brute == commuting_count(PauliOp(a, b, c), m)
        if d == 6:
            assert d * perp_count[(2, 0)] == 72  # X^2 at d=6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 6: brute commutant equals formula for all d^3 operators, {elapsed:.2f} s")


def test_criterion_07_centre_and_commutator_subgroup():
    for d in range(2, 11):
        m = make_modulus(d)
        classes = [(b, c) for b in range(d) for c in range(d)]
        central = [
            vc for vc in classes if all(form(vc, other, m) == 0 for other in classes)
        ]
        brute_centre = {PauliOp(a, b, c) for a in range(d) for (b, c) in central}
        assert brute_centre == centre(m)
        # commutator set via the defining four-fold product; scalar factors
        # cancel against their inverses, so zero-phase representatives cover
        # every operator pair
        comms = set()
        for b, c in classes:
            w = PauliOp(0, b, c)
            winv = inverse(w, m)
            for b2, c2 in classes:
                w2 = PauliOp(0, b2, c2)
                comms.add(multiply(multiply(multiply(w, w2, m), winv, m), inverse(w2, m), m))
        assert comms == centre(m)
    print("PASS criterion 7: brute centre and commutator set equal the scalars, d = 2..10")


def test_criterion_08_oracle_agreement_d6():
    m = make_modulus(6)
    ops = [PauliOp(a, b, c) for a in range(6) for b in range(6) for c in range(6)]
    mats = {w: to_matrix(w, m) for w in ops}
    start = time.perf_counter()
    for w1, w2 in product(ops, ops):
        closed = commutator(w1, w2, m)
        four_fold = multiply(
            multiply(multiply(w1, w2, m), inverse(w1, m), m), inverse(w2, m), m
        )
        assert closed == four_fold
        matrix_commutes = mats[w1] @ mats[w2] == mats[w2] @ mats[w1]
        assert commutes(w1, w2, m) == matrix_commutes
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 8: closed form vs definition vs matrices, 216^2 pairs, {elapsed:.2f} s")


def test_criterion_09_witness_construction():
    start = time.perf_counter()
    for d in (6, 30):
        entry = verify_witness_construction(make_modulus(d))
        assert entry.status == "pass", entry.counterexample
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 9: witness construction for d = 6 and 30, {elapsed:.2f} s")


def test_criterion_10_headless_exit_codes_and_determinism(capsys, monkeypatch):
    # exit 0: all checks pass
    assert main(["verify", "6"]) == 0
    # exit 0 with visible skips: gating is not a silent pass
    assert main(["verify", "12"]) == 0
    out_12 = capsys.readouterr().out
    assert "SKIP" in out_12
    # exit 2: invalid input
    assert main(["verify", "1"]) == 2
    assert main(["verify", "6", "--checks", "nosuch"]) == 2
    capsys.readouterr()
    # byte-identical reruns
    for argv in (["verify", "6"], ["perp", "6", "2", "0", "--format", "json"]):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
    # exit 1: an injected fault must surface as a verification failure
    monkeypatch.setattr(ringline.symplectic, "form", lambda v, w, m: (v[1] * w[0]) % m.d)
    assert main(["verify", "6"]) == 1
    capsys.readouterr()
    print("PASS criterion 10: exit-code contract 0/1/2 and byte-identical reruns")


def test_criterion_11_theorem1_at_d105():
    # cold: the budget includes enumerating the 192 points
    ringline.projline._points_cached.cache_clear()
    start = time.perf_counter()
    entry = verify_theorem1(make_modulus(105))
    elapsed = time.perf_counter() - start
    assert entry.status == "pass", entry.counterexample
    assert elapsed < 3.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 11: theorem1 over all 11025 vectors of Z_105^2, {elapsed:.2f} s")


def test_criterion_12_theorem2_at_non_square_free_d36():
    # cold, like criterion 11; 36 = 2^2 * 3^2, so theorem2 must also find a
    # vector whose points cover only part of its perp-set
    ringline.projline._points_cached.cache_clear()
    start = time.perf_counter()
    entry = verify_theorem2(make_modulus(36))
    elapsed = time.perf_counter() - start
    assert entry.status == "pass", entry.counterexample
    assert elapsed < 2.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 12: theorem2 over all 1296 vectors of Z_36^2, {elapsed:.2f} s")


def test_criterion_13_theorem2_at_d105():
    # cold, like criterion 11: every perp-set is solved from its congruence
    # b*c' = c*b' (mod d) rather than scanned
    ringline.projline._points_cached.cache_clear()
    start = time.perf_counter()
    entry = verify_theorem2(make_modulus(105))
    elapsed = time.perf_counter() - start
    assert entry.status == "pass", entry.counterexample
    assert elapsed < 4.0, f"took {elapsed:.2f} s"
    print(f"PASS criterion 13: theorem2 over all 11025 vectors of Z_105^2, {elapsed:.2f} s")


def test_criterion_14_cold_points_containing_at_d2310():
    # cold: a query builds the line's points from their generators, and the
    # row table, with no member set; the line has 6912 points of 2310 members
    # each, and only the one point it returns makes its set, when read
    ringline.projline._points_cached.cache_clear()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        pts = points_containing((1, 2), make_modulus(2310))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        ringline.projline._points_cached.cache_clear()
    assert [p.generator for p in pts] == [(1, 2)]
    assert len(pts[0].members) == 2310
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    print(f"PASS criterion 14: cold points_containing at d=2310, {elapsed:.2f} s, "
          f"peak {peak / 2**20:.1f} MB")


def test_criterion_15_points_json_at_d210(capsys):
    # warm: the 576 points of 210 members each are built first, so the budget
    # is the record's rendering, 6 MB of JSON (best of three runs)
    m = make_modulus(210)
    pts = enumerate_points(m)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert main(["points", "210", "--format", "json"]) == 0
        best = min(best, time.perf_counter() - start)
        out = capsys.readouterr().out
    record = {"d": 210, "count": len(pts), "count_formula": line_size_formula(m), "points": pts}
    # a bool, so a failure does not have pytest diff 6 MB line by line
    same = out == json.dumps(record, indent=2, default=lambda o: o.to_json_dict()) + "\n"
    assert same, "stdout differs from json.dumps(record, indent=2)"
    assert best < 0.2, f"took {best:.3f} s"
    print(f"PASS criterion 15: points 210 --format json, {len(out)} bytes, {best:.3f} s")


@pytest.mark.parametrize("argv, ceiling_mib", [
    ("graph 210 --format json", 12),
    ("graph 210 --format dot", 12),
    ("points 210 --format json", 6),
])
def test_criterion_16_heavy_outputs_are_streamed(argv, ceiling_mib):
    # cold, like criterion 14: the peak holds the points, with no member set,
    # and the graph, but not the 1.7-6 MB rendering or a copy of it, which go
    # out in pieces, each point's members read off its generator
    ringline.projline._points_cached.cache_clear()
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ringline.projline._points_cached.cache_clear()
    assert code == 0
    assert peak < ceiling_mib * 2**20, f"peak {peak / 2**20:.1f} MiB"
    print(f"PASS criterion 16: {argv}, peak {peak / 2**20:.1f} MiB")


def test_criterion_17_cold_enumeration_at_d2310():
    # cold: all 6912 points are made from their generators; none makes its
    # member set of 2310 vectors until it is read
    ringline.projline._points_cached.cache_clear()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        pts = enumerate_points(make_modulus(2310))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        ringline.projline._points_cached.cache_clear()
    assert len(pts) == 6912 == line_size_formula(make_modulus(2310))
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    print(f"PASS criterion 17: cold enumerate_points at d=2310, {elapsed:.2f} s, "
          f"peak {peak / 2**20:.1f} MiB")


def test_criterion_18_warm_member_stream_at_d330():
    # warm: every point of the cached line at d=330 yields its members in
    # sorted order, read off its generator by symplectic._perp_in_order,
    # 864 points and 285120 members (best of five runs)
    pts = enumerate_points(make_modulus(330))
    sink = deque(maxlen=0).extend
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for p in pts:
            sink(p.sorted_members())
        best = min(best, time.perf_counter() - start)
    assert len(pts) == 864 == line_size_formula(make_modulus(330))
    assert sum(1 for p in pts for _ in p.sorted_members()) == 285120
    assert best < 0.04, f"took {best:.3f} s"
    print(f"PASS criterion 18: warm member stream at d=330, {best:.3f} s")


def test_criterion_19_cold_point_through_at_d2310():
    # cold: point_through makes each point from its generator alone, with no
    # member set, for 1000 admissible vectors at d=2310 (best of three runs;
    # each run makes new points); the points equal the enumerated ones
    m = make_modulus(2310)
    vectors = [(b, c) for b, c in product(range(1, 2310, 7), range(3, 2310, 11))
               if ringline.projline.is_admissible((b, c), m)][:1000]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        pts = [point_through(v, m) for v in vectors]
        best = min(best, time.perf_counter() - start)
    assert len(pts) == 1000
    assert all(v in p.members for v, p in zip(vectors[::97], pts[::97]))
    assert best < 0.05, f"took {best:.3f} s"
    print(f"PASS criterion 19: cold point_through at d=2310, 1000 vectors, {best:.4f} s")


def test_criterion_20_cold_perp_set_at_d2310():
    # cold: perp_set makes each perp-set from its reduced base alone, with no
    # member set, for 1000 vectors at d=2310 (best of three runs; each run
    # makes new perp-sets); each set read contains the vector's multiples
    d = 2310
    m = make_modulus(d)
    vectors = list(product(range(1, d, 7), range(3, d, 11)))[:1000]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sets = [perp_set(v, m) for v in vectors]
        best = min(best, time.perf_counter() - start)
    assert len(sets) == 1000
    assert all((u * b % d, u * c % d) in ps.members
               for (b, c), ps in zip(vectors[::97], sets[::97]) for u in range(0, d, 11))
    assert best < 0.05, f"took {best:.3f} s"
    print(f"PASS criterion 20: cold perp_set at d=2310, 1000 vectors, {best:.4f} s")
