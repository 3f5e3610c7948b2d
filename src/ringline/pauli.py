"""Single-qudit shift/clock operator group in exponent normal form.

Every group element is omega^a X^b Z^c for a unique exponent triple (a, b, c)
in Z_d^3, where X is the cyclic shift, Z the clock, and omega a fixed primitive
d-th root of unity.  All arithmetic stays in the exponents; omega is never
evaluated numerically (only its multiplicative order d matters).  The
independent cross-check model is the exact generalized permutation matrix:
one root-of-unity entry per column, encoded by exponent, held as the immutable
tuple (dim, perm, expo).

Operators and matrices built here go through tuple.__new__ directly: their
entries are already reduced, and NamedTuple's generated Python-level __new__
(or the matrix constructor's permutation check) about doubles the cost of
building one in the group check's hot loops.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, NamedTuple

from . import symplectic
from .projline import perp_size_formula
from .ring import Modulus


class PauliOp(NamedTuple):
    """Exponent triple (a, b, c) for the operator omega^a X^b Z^c."""

    a: int
    b: int
    c: int


IDENTITY = PauliOp(0, 0, 0)
X = PauliOp(0, 1, 0)
Z = PauliOp(0, 0, 1)

# Group closure materializes all d^3 exact matrices; bounded to keep memory flat.
CLOSURE_LIMIT = 32
# Each exact matrix holds 2d ints; a --matrix check at d = 10^5 peaks near 40 MB.
MATRIX_LIMIT = 10**5


def reduce_op(w: PauliOp, m: Modulus) -> PauliOp:
    d = m.d
    a, b, c = w
    return tuple.__new__(PauliOp, (a % d, b % d, c % d))


def multiply(w: PauliOp, w2: PauliOp, m: Modulus) -> PauliOp:
    """Normal-form product: commuting Z^c past X^b' costs a factor omega^(b'c)."""
    d = m.d
    a, b, c = w
    a2, b2, c2 = w2
    return tuple.__new__(PauliOp, ((b2 * c + a + a2) % d, (b + b2) % d, (c + c2) % d))


def inverse(w: PauliOp, m: Modulus) -> PauliOp:
    """Closed-form inverse (bc - a, -b, -c); validated against multiply in tests."""
    d = m.d
    a, b, c = w
    return tuple.__new__(PauliOp, ((b * c - a) % d, -b % d, -c % d))


def commutator(w: PauliOp, w2: PauliOp, m: Modulus) -> PauliOp:
    """The group commutator W W' W^-1 W'^-1, always the scalar omega^(cb'-c'b) I."""
    return tuple.__new__(PauliOp, (symplectic.form((w.b, w.c), (w2.b, w2.c), m), 0, 0))


def commutes(w: PauliOp, w2: PauliOp, m: Modulus) -> bool:
    """True iff the commutator is the identity; the omega-exponents never matter."""
    return symplectic.is_perp((w.b, w.c), (w2.b, w2.c), m)


def centre(m: Modulus) -> frozenset[PauliOp]:
    """The scalars {omega^a I}; also exactly the set of all commutators."""
    return frozenset(PauliOp(a, 0, 0) for a in range(m.d))


def commuting_count(w: PauliOp, m: Modulus) -> int:
    """Number of group elements commuting with w, any d: d times the perp-set size of (b, c)."""
    return m.d * perp_size_formula((w.b, w.c), m)


class GenPermMatrix(tuple):
    """Exact d x d generalized permutation matrix, the immutable tuple (dim, perm, expo).

    Column s carries a single non-zero entry omega^expo[s] in row perm[s].  No
    floating point anywhere: commutation questions stay exact.  Equality and
    hashing are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, dim: int, perm: tuple[int, ...], expo: tuple[int, ...]) -> GenPermMatrix:
        if sorted(perm) != list(range(dim)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{dim - 1}")
        if len(expo) != dim:
            raise ValueError("one exponent per column required")
        return tuple.__new__(cls, (dim, tuple(perm), tuple(expo)))

    def __getnewargs__(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return tuple(self)

    dim = property(itemgetter(0))
    perm = property(itemgetter(1))
    expo = property(itemgetter(2))

    def __matmul__(self, other: GenPermMatrix) -> GenPermMatrix:
        d, perm, expo = self
        d2, perm2, expo2 = other
        if d != d2:
            raise ValueError(f"dimension mismatch: {d} != {d2}")
        # a product of permutations is a permutation: no need to re-check it
        return tuple.__new__(GenPermMatrix, (
            d,
            tuple(map(perm.__getitem__, perm2)),
            tuple([(e + expo[p]) % d for p, e in zip(perm2, expo2)]),
        ))


def to_matrix(w: PauliOp, m: Modulus) -> GenPermMatrix:
    """The matrix of omega^a X^b Z^c on the computational basis.

    Factors apply right to left, matching the normal form: the clock Z^c sends
    |s> to omega^(cs)|s>, the shift X^b then moves it to row s + b, and omega^a
    scales.  So column s holds omega^(a + cs) in row s + b.
    """
    d = m.d
    a, b, c = reduce_op(w, m)
    return tuple.__new__(GenPermMatrix, (
        d,
        tuple([(s + b) % d for s in range(d)]),
        tuple([(a + c * s) % d for s in range(d)]),
    ))


def group_closure_order(m: Modulus) -> int:
    """Order of the group generated by X and Z in the exact matrix model.

    Breadth-first closure over matrix products; the result must be d^3.  As a
    by-product this certifies uniqueness of the normal form: the d^3 matrices
    of the normal-form triples must be pairwise distinct and coincide with the
    closure, else something is deeply wrong and we raise.
    """
    d = m.d
    if d > CLOSURE_LIMIT:
        raise ValueError(f"group closure is bounded to d <= {CLOSURE_LIMIT}, got d={d}")
    gens = (to_matrix(X, m), to_matrix(Z, m))
    seen = {to_matrix(IDENTITY, m)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for mat in frontier:
            for g in gens:
                prod = mat @ g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    normal_forms = {
        to_matrix(PauliOp(a, b, c), m)
        for a in range(d)
        for b in range(d)
        for c in range(d)
    }
    if len(normal_forms) != d**3 or normal_forms != seen:
        raise RuntimeError(
            f"normal form is not a bijection onto the closure at d={d}: "
            f"{len(normal_forms)} matrices from d^3 triples, closure size {len(seen)}"
        )
    return len(seen)


def format_pauli(w: PauliOp) -> str:
    """Render (a, b, c) as 'w^a X^b Z^c' with exponent-0 factors elided; identity is 'I'."""
    parts = []
    if w.a:
        parts.append("w" if w.a == 1 else f"w^{w.a}")
    if w.b:
        parts.append("X" if w.b == 1 else f"X^{w.b}")
    if w.c:
        parts.append("Z" if w.c == 1 else f"Z^{w.c}")
    return " ".join(parts) if parts else "I"


def pauli_json_dict(w: PauliOp, m: Modulus) -> dict[str, Any]:
    return {"a": w.a, "b": w.b, "c": w.c, "d": m.d}
