"""Single-qudit shift/clock operator group in exponent normal form.

Every group element is omega^a X^b Z^c for a unique exponent triple (a, b, c)
in Z_d^3, where X is the cyclic shift, Z the clock, and omega a fixed primitive
d-th root of unity.  All arithmetic stays in the exponents; omega is never
evaluated numerically (only its multiplicative order d matters).  The
independent cross-check model is the exact generalized permutation matrix:
one root-of-unity entry per column, encoded by exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    return PauliOp(w.a % d, w.b % d, w.c % d)


def multiply(w: PauliOp, w2: PauliOp, m: Modulus) -> PauliOp:
    """Normal-form product: commuting Z^c past X^b' costs a factor omega^(b'c)."""
    d = m.d
    return PauliOp((w2.b * w.c + w.a + w2.a) % d, (w.b + w2.b) % d, (w.c + w2.c) % d)


def inverse(w: PauliOp, m: Modulus) -> PauliOp:
    """Closed-form inverse (bc - a, -b, -c); validated against multiply in tests."""
    d = m.d
    return PauliOp((w.b * w.c - w.a) % d, (-w.b) % d, (-w.c) % d)


def commutator(w: PauliOp, w2: PauliOp, m: Modulus) -> PauliOp:
    """The group commutator W W' W^-1 W'^-1, always the scalar omega^(cb'-c'b) I."""
    return PauliOp(symplectic.form((w.b, w.c), (w2.b, w2.c), m), 0, 0)


def commutes(w: PauliOp, w2: PauliOp, m: Modulus) -> bool:
    """True iff the commutator is the identity; the omega-exponents never matter."""
    return symplectic.form((w.b, w.c), (w2.b, w2.c), m) == 0


def centre(m: Modulus) -> frozenset[PauliOp]:
    """The scalars {omega^a I}; also exactly the set of all commutators."""
    return frozenset(PauliOp(a, 0, 0) for a in range(m.d))


def commuting_count(w: PauliOp, m: Modulus) -> int:
    """Number of group elements commuting with w: d times the perp-set size of (b, c)."""
    if not m.square_free:
        raise ValueError(f"commuting_count requires square-free d, got d={m.d}")
    d = m.d
    return d * perp_size_formula((w.b % d, w.c % d), m)


@dataclass(frozen=True)
class GenPermMatrix:
    """Exact d x d generalized permutation matrix.

    Column s carries a single non-zero entry omega^expo[s] in row perm[s].  No
    floating point anywhere: commutation questions stay exact.
    """

    dim: int
    perm: tuple[int, ...]
    expo: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(self.dim)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{self.dim - 1}")
        if len(self.expo) != self.dim:
            raise ValueError("one exponent per column required")

    def __matmul__(self, other: GenPermMatrix) -> GenPermMatrix:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        d = self.dim
        perm = tuple(self.perm[other.perm[s]] for s in range(d))
        expo = tuple((other.expo[s] + self.expo[other.perm[s]]) % d for s in range(d))
        return GenPermMatrix(d, perm, expo)


def to_matrix(w: PauliOp, m: Modulus) -> GenPermMatrix:
    """The matrix of omega^a X^b Z^c on the computational basis.

    Factors apply right to left, matching the normal form: the clock Z^c sends
    |s> to omega^(cs)|s>, the shift X^b then moves it to row s + b, and omega^a
    scales.  So column s holds omega^(a + cs) in row s + b.
    """
    d = m.d
    w = reduce_op(w, m)
    perm = tuple((s + w.b) % d for s in range(d))
    expo = tuple((w.a + w.c * s) % d for s in range(d))
    return GenPermMatrix(d, perm, expo)


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
