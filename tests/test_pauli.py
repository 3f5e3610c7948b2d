import copy
import pickle
import random
from itertools import product

import pytest

from ringline.pauli import (
    CLOSURE_LIMIT,
    IDENTITY,
    X,
    Z,
    GenPermMatrix,
    PauliOp,
    centre,
    commutator,
    commutes,
    commuting_count,
    format_pauli,
    group_closure_order,
    inverse,
    multiply,
    pauli_json_dict,
    to_matrix,
)
from ringline.ring import make_modulus
from ringline.symplectic import perp_set


def all_ops(d):
    return [PauliOp(a, b, c) for a in range(d) for b in range(d) for c in range(d)]


def commutator_by_definition(w, w2, m):
    # the four-fold product, using only multiply and inverse
    return multiply(multiply(multiply(w, w2, m), inverse(w, m), m), inverse(w2, m), m)


def test_multiply_basic_relation():
    # Z * X = omega X Z, at any d
    for d in (2, 3, 6, 10):
        m = make_modulus(d)
        assert multiply(Z, X, m) == PauliOp(1, 1, 1)
        assert multiply(X, Z, m) == PauliOp(0, 1, 1)


def test_multiply_identity():
    m = make_modulus(6)
    for w in all_ops(6):
        assert multiply(IDENTITY, w, m) == w
        assert multiply(w, IDENTITY, m) == w


def test_multiply_is_associative_exhaustive_small():
    m = make_modulus(3)
    ops = all_ops(3)
    for w1 in ops:
        for w2 in ops:
            for w3 in ops:
                assert multiply(multiply(w1, w2, m), w3, m) == multiply(w1, multiply(w2, w3, m), m)


def test_multiply_is_associative_random_d30():
    m = make_modulus(30)
    rng = random.Random(20260808)
    for _ in range(10_000):
        w1, w2, w3 = (
            PauliOp(rng.randrange(30), rng.randrange(30), rng.randrange(30))
            for _ in range(3)
        )
        assert multiply(multiply(w1, w2, m), w3, m) == multiply(w1, multiply(w2, w3, m), m)


def test_inverse_examples():
    m6 = make_modulus(6)
    assert inverse(X, m6) == PauliOp(0, 5, 0)
    assert inverse(IDENTITY, m6) == IDENTITY
    assert inverse(PauliOp(0, 1, 1), m6) == PauliOp(1, 5, 5)
    assert multiply(PauliOp(0, 1, 1), PauliOp(1, 5, 5), m6) == IDENTITY


def test_inverse_round_trips():
    for d in (2, 5, 6):
        m = make_modulus(d)
        for w in all_ops(d):
            assert multiply(w, inverse(w, m), m) == IDENTITY
            assert multiply(inverse(w, m), w, m) == IDENTITY
    m30 = make_modulus(30)
    rng = random.Random(77)
    for _ in range(2000):
        w = PauliOp(rng.randrange(30), rng.randrange(30), rng.randrange(30))
        assert multiply(w, inverse(w, m30), m30) == IDENTITY


def test_commutator_examples():
    m6 = make_modulus(6)
    assert commutator(Z, X, m6) == PauliOp(1, 0, 0)
    for w in all_ops(6):
        assert commutator(w, w, m6) == IDENTITY
    assert commutator(PauliOp(0, 2, 0), IDENTITY, m6) == IDENTITY


def test_commutator_closed_form_matches_definition_exhaustive():
    for d in (2, 3, 4, 5, 6):
        m = make_modulus(d)
        ops = all_ops(d)
        for w1 in ops:
            for w2 in ops:
                assert commutator(w1, w2, m) == commutator_by_definition(w1, w2, m)


def test_commutator_closed_form_matches_definition_random_d30():
    m = make_modulus(30)
    rng = random.Random(4242)
    for _ in range(10_000):
        w1 = PauliOp(rng.randrange(30), rng.randrange(30), rng.randrange(30))
        w2 = PauliOp(rng.randrange(30), rng.randrange(30), rng.randrange(30))
        assert commutator(w1, w2, m) == commutator_by_definition(w1, w2, m)


def test_commutes_examples():
    m6 = make_modulus(6)
    assert commutes(PauliOp(3, 2, 0), PauliOp(1, 5, 0), m6)
    assert not commutes(X, Z, m6)
    for w in all_ops(6):
        assert commutes(w, PauliOp(4, 0, 0), m6)


def test_commutes_ignores_phases_exhaustive():
    for d in range(2, 7):
        m = make_modulus(d)
        for b, c, b2, c2 in product(range(d), repeat=4):
            verdicts = {
                commutes(PauliOp(a, b, c), PauliOp(a2, b2, c2), m)
                for a in range(d)
                for a2 in range(d)
            }
            assert len(verdicts) == 1


def test_centre():
    m6 = make_modulus(6)
    assert centre(m6) == {PauliOp(a, 0, 0) for a in range(6)}
    assert centre(make_modulus(2)) == {IDENTITY, PauliOp(1, 0, 0)}
    # brute force at d=4: centre = operators commuting with everything
    m4 = make_modulus(4)
    brute = {
        w for w in all_ops(4) if all(commutes(w, w2, m4) for w2 in all_ops(4))
    }
    assert brute == centre(m4)


def test_every_scalar_is_a_commutator():
    # witness pair (Z, X^a) realizes omega^a I
    for d in range(2, 11):
        m = make_modulus(d)
        for a in range(d):
            assert commutator_by_definition(Z, PauliOp(0, a, 0), m) == PauliOp(a, 0, 0)


def test_all_commutators_are_central():
    m6 = make_modulus(6)
    z = centre(m6)
    for w1 in all_ops(6):
        for w2 in all_ops(6):
            assert commutator(w1, w2, m6) in z


def test_commuting_count_examples():
    m6 = make_modulus(6)
    assert commuting_count(PauliOp(0, 2, 0), m6) == 72
    assert commuting_count(PauliOp(0, 1, 0), m6) == 36
    for a in range(6):
        assert commuting_count(PauliOp(a, 0, 0), m6) == 216
    # exhaustive confirmation over all 216 operators
    for w in (PauliOp(0, 2, 0), PauliOp(0, 1, 0), PauliOp(3, 0, 0)):
        brute = sum(1 for w2 in all_ops(6) if commutes(w, w2, m6))
        assert brute == commuting_count(w, m6)


def test_commuting_count_at_non_square_free_d12():
    m12 = make_modulus(12)
    for w in (X, PauliOp(0, 2, 0), PauliOp(5, 6, 3), PauliOp(0, 0, 0), PauliOp(1, 14, -2)):
        assert commuting_count(w, m12) == 12 * perp_set((w.b, w.c), m12).size


def test_commutant_size_spectrum_d10():
    # K ranges over the subsets of {2, 5}, so sizes are 10 * {10, 20, 50, 100}
    m10 = make_modulus(10)
    sizes = {commuting_count(w, m10) for w in all_ops(10)}
    assert sizes == {100, 200, 500, 1000}


def test_to_matrix_shift_and_clock_d3():
    m3 = make_modulus(3)
    x = to_matrix(X, m3)
    assert x.perm == (1, 2, 0)
    assert x.expo == (0, 0, 0)
    z = to_matrix(Z, m3)
    assert z.perm == (0, 1, 2)
    assert z.expo == (0, 1, 2)


def test_to_matrix_is_a_homomorphism():
    for d in (2, 3):
        m = make_modulus(d)
        for w1 in all_ops(d):
            for w2 in all_ops(d):
                assert to_matrix(multiply(w1, w2, m), m) == to_matrix(w1, m) @ to_matrix(w2, m)
    m10 = make_modulus(10)
    rng = random.Random(9)
    for _ in range(500):
        w1 = PauliOp(rng.randrange(10), rng.randrange(10), rng.randrange(10))
        w2 = PauliOp(rng.randrange(10), rng.randrange(10), rng.randrange(10))
        assert to_matrix(multiply(w1, w2, m10), m10) == to_matrix(w1, m10) @ to_matrix(w2, m10)


def test_normal_form_is_injective_on_matrices():
    for d in range(2, 16):
        m = make_modulus(d)
        mats = {to_matrix(w, m) for w in all_ops(d)}
        assert len(mats) == d**3


def test_matrix_model_detects_non_commuting():
    m6 = make_modulus(6)
    mx, mz = to_matrix(X, m6), to_matrix(Z, m6)
    assert mx @ mz != mz @ mx
    # omega Z X == X Z as matrices, mirroring the defining relation
    assert to_matrix(PauliOp(1, 1, 1), m6) == mz @ mx


def test_commutes_agrees_with_matrix_commutation_exhaustive():
    for d in range(2, 7):
        m = make_modulus(d)
        ops = all_ops(d)
        mats = {w: to_matrix(w, m) for w in ops}
        for w1 in ops:
            for w2 in ops:
                assert commutes(w1, w2, m) == (mats[w1] @ mats[w2] == mats[w2] @ mats[w1])


def reference_to_matrix(w, m):
    # generator-expression form of to_matrix, as (perm, expo)
    d = m.d
    a, b, c = w.a % d, w.b % d, w.c % d
    return tuple((s + b) % d for s in range(d)), tuple((a + c * s) % d for s in range(d))


def reference_matmul(left, right, d):
    # generator-expression form of @ on (perm, expo) pairs
    (perm, expo), (perm2, expo2) = left, right
    return (
        tuple(perm[perm2[s]] for s in range(d)),
        tuple((expo2[s] + expo[perm2[s]]) % d for s in range(d)),
    )


def test_to_matrix_and_matmul_match_the_references_exhaustive():
    for d in range(2, 7):
        m = make_modulus(d)
        ops = all_ops(d)
        mats = {w: to_matrix(w, m) for w in ops}
        refs = {w: reference_to_matrix(w, m) for w in ops}
        for w in ops:
            assert (mats[w].perm, mats[w].expo) == refs[w]
        for w1 in ops:
            for w2 in ops:
                prod = mats[w1] @ mats[w2]
                assert (prod.perm, prod.expo) == reference_matmul(refs[w1], refs[w2], d)


def test_gen_perm_matrix_is_an_immutable_tuple():
    mat = to_matrix(PauliOp(1, 2, 3), make_modulus(5))
    assert mat == (5, (2, 3, 4, 0, 1), (1, 4, 2, 0, 3))
    assert (mat.dim, mat.perm, mat.expo) == tuple(mat)
    with pytest.raises(AttributeError):
        mat.perm = (0, 1, 2, 3, 4)
    for clone in (pickle.loads(pickle.dumps(mat)), copy.deepcopy(mat)):
        assert clone == mat and type(clone) is GenPermMatrix


def test_gen_perm_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GenPermMatrix(2, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        GenPermMatrix(2, (0, 1), (0,))
    m2, m3 = make_modulus(2), make_modulus(3)
    with pytest.raises(ValueError):
        to_matrix(X, m2) @ to_matrix(X, m3)


def test_group_closure_order():
    assert group_closure_order(make_modulus(2)) == 8
    assert group_closure_order(make_modulus(6)) == 216
    assert group_closure_order(make_modulus(15)) == 3375


def test_group_closure_order_refuses_large_d():
    with pytest.raises(ValueError, match=str(CLOSURE_LIMIT)):
        group_closure_order(make_modulus(33))


def test_format_pauli():
    assert format_pauli(IDENTITY) == "I"
    assert format_pauli(X) == "X"
    assert format_pauli(PauliOp(1, 1, 1)) == "w X Z"
    assert format_pauli(PauliOp(2, 0, 3)) == "w^2 Z^3"


def test_pauli_json_shape():
    assert pauli_json_dict(PauliOp(1, 2, 3), make_modulus(6)) == {"a": 1, "b": 2, "c": 3, "d": 6}
