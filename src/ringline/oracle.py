"""Exhaustive verification harness.

Every counting claim and group-structure claim the library relies on is
restated here as a brute-force check over the full state space for a given d.
Checks are never sampled; a failure always carries a serialized witness, and a
check that does not apply is reported as skipped, never silently passed.

``theorem1`` and ``witness_construction`` read perp-sets as bit rows from
``symplectic.perp_rows``, which gets all d^4 pairs from 2d^2 values of the form
by bilinearity; ``theorem2`` keeps ``symplectic.perp_set`` so that it stays
checked on every vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import pauli, projline, symplectic
from .pauli import PauliOp
from .ring import Modulus

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

CHECK_NAMES = ("group", "theorem1", "theorem2", "witness_construction")

Counterexample = dict[str, Any]


@dataclass(frozen=True)
class CheckResult:
    """One named check: pass, fail with counterexample, or skip with the reason in scope."""

    name: str
    scope: str
    status: str
    counterexample: Counterexample | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self, include_elapsed: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "scope": self.scope,
            "status": self.status,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


@dataclass(frozen=True)
class VerificationReport:
    """All checks for one modulus; all_passed tolerates skips but not failures."""

    d: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json_dict(self, include_elapsed: bool = True) -> dict[str, Any]:
        return {
            "d": self.d,
            "checks": [c.to_json_dict(include_elapsed) for c in self.checks],
            "all_passed": self.all_passed,
        }


def _timed(name: str, scope: str, body: Callable[[], Counterexample | None]) -> CheckResult:
    start = time.perf_counter()
    counterexample = body()
    elapsed = time.perf_counter() - start
    status = PASS if counterexample is None else FAIL
    return CheckResult(name, scope, status, counterexample, elapsed)


def _skipped(name: str, reason: str) -> CheckResult:
    return CheckResult(name, reason, SKIP, None, 0.0)


def _vectors(d: int) -> list[tuple[int, int]]:
    return [(b, c) for b in range(d) for c in range(d)]


def _rows(members: Iterable[tuple[int, int]], d: int) -> list[int]:
    """A set of vectors as d bit rows: bit c of row b is set iff (b, c) is in it."""
    rows = [0] * d
    for b, c in members:
        rows[b] |= 1 << c
    return rows


def _members(rows: list[int]) -> list[tuple[int, int]]:
    """The vectors of a set of bit rows, in sorted order."""
    out = []
    for b, row in enumerate(rows):
        while row:
            low = row & -row
            out.append((b, low.bit_length() - 1))
            row ^= low
    return out


def verify_theorem1(m: Modulus) -> CheckResult:
    """Every point through a vector lies inside its perp-set; for admissible
    vectors the perp-set equals the point itself, and exactly one point
    contains the vector, namely ``projline.point_through``'s; the point count
    matches ``projline.line_size_formula``.  Any d.  The points through each
    vector come from ``projline.points_containing``, and perp-sets and points
    are compared as bit rows (``symplectic.perp_rows``)."""
    d = m.d

    def body() -> Counterexample | None:
        pts = projline.enumerate_points(m)
        # Keyed by identity, so a point that is not one of the enumerated
        # objects is compared through its own members.
        rows_of = {id(p): _rows(p.members, d) for p in pts}
        for v, perp in symplectic.perp_rows(m):
            containing = [(p, rows_of.get(id(p)) or _rows(p.members, d))
                          for p in projline.points_containing(v, m)]
            for p, rows in containing:
                stray = [row & ~perp_row for row, perp_row in zip(rows, perp)]
                if any(stray):
                    return {
                        "claim": "point through vector not inside its perp-set",
                        "vector": list(v),
                        "point": p.to_json_dict(),
                        "stray": [list(w) for w in _members(stray)],
                    }
            if projline.is_admissible(v, m):
                through = projline.point_through(v, m)
                orbit = _rows(through.members, d)
                if perp != orbit:
                    return {
                        "claim": "perp-set of admissible vector differs from its orbit",
                        "vector": list(v),
                        "perp_size": sum(row.bit_count() for row in perp),
                        "orbit_size": len(through.members),
                    }
                for p, rows in containing:
                    if rows != orbit:
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
                        "generators": [list(p.generator) for p, _ in containing],
                    }
                ((p, _),) = containing
                if p != through:
                    return {
                        "claim": "point through admissible vector differs from point_through",
                        "vector": list(v),
                        "point": p.to_json_dict(),
                        "point_through": through.to_json_dict(),
                    }
        if len(pts) != (size := projline.line_size_formula(m)):
            return {
                "claim": "number of points differs from the line size formula",
                "expected": size,
                "actual": len(pts),
            }
        return None

    return _timed("theorem1", f"all {d * d} vectors of Z_{d}^2", body)


def verify_theorem2(m: Modulus) -> CheckResult:
    """The three square-free counting claims, for every vector: number of
    containing points, union of those points = perp-set, perp-set size; and
    ``projline.index_set_K`` = the indices of the primes dividing both
    coordinates.  The points and their union come from
    ``projline.points_containing`` and ``projline.perp_as_point_union``, so the
    check covers both."""
    if not m.square_free:
        raise ValueError(f"theorem2 check requires square-free d, got d={m.d}")
    d = m.d

    def body() -> Counterexample | None:
        for v in _vectors(d):
            containing = projline.points_containing(v, m)
            expected_points = projline.point_count_formula(v, m)
            if len(containing) != expected_points:
                return {
                    "claim": "point count through vector differs from formula",
                    "vector": list(v),
                    "expected": expected_points,
                    "actual": len(containing),
                }
            union = projline.perp_as_point_union(v, m)
            perp = symplectic.perp_set(v, m).members
            if union != perp:
                return {
                    "claim": "union of containing points differs from perp-set",
                    "vector": list(v),
                    "union_size": len(union),
                    "perp_size": len(perp),
                    "union_minus_perp": [list(w) for w in sorted(union - perp)],
                    "perp_minus_union": [list(w) for w in sorted(perp - union)],
                }
            expected_size = projline.perp_size_formula(v, m)
            if len(perp) != expected_size:
                return {
                    "claim": "perp-set size differs from formula",
                    "vector": list(v),
                    "expected": expected_size,
                    "actual": len(perp),
                }
            index_set = projline.index_set_K(v, m)
            vanishing = {k for k, p in enumerate(m.primes, start=1) if v[0] % p == v[1] % p == 0}
            if index_set != vanishing:
                return {
                    "claim": "index set K differs from the primes dividing both coordinates",
                    "vector": list(v),
                    "expected": sorted(vanishing),
                    "actual": sorted(index_set),
                }
        return None

    return _timed("theorem2", f"all {d * d} vectors of Z_{d}^2", body)


def construct_witness(
    v: tuple[int, int], w: tuple[int, int], m: Modulus
) -> tuple[tuple[int, int], int, int]:
    """The component-wise recipe producing a point through both v and w in v-perp.

    Returns (generator, u, s), each a sum of e_k * (residue mod p_k) over the
    CRT idempotents.  Off the vanishing-index set K the generator keeps v's
    residues and u's residue is 1; on K it takes w's residues when they are
    non-zero (else the all-ones pair) and u's residue is 0, so u * generator = v.
    The scalar s with s * generator = w comes from solving over each residue
    field: off K the 2x2 determinant with rows w, v vanishes and v's residue is
    non-zero, so w's residue is a field multiple of v's.
    """
    if not m.square_free:
        raise ValueError(f"witness construction requires square-free d, got d={m.d}")
    b, c = v
    x, y = w
    # v's residues are already 0 on K, so starting from v is exact there.
    gen_b, gen_c, u, s = b, c, 0, 0
    for p, e in zip(m.primes, m.idempotents):
        if b % p:
            u += e
            s += e * (x * pow(b, -1, p) % p)
        elif c % p:
            u += e
            s += e * (y * pow(c, -1, p) % p)
        elif x % p or y % p:
            gen_b += e * x
            gen_c += e * y
            s += e
        else:
            gen_b += e
            gen_c += e
    return (gen_b % m.d, gen_c % m.d), u % m.d, s % m.d


def verify_witness_construction(m: Modulus) -> CheckResult:
    """For every v and every w in v-perp, the recipe yields an admissible
    generator whose point provably contains both (via the returned scalars)."""
    if not m.square_free:
        raise ValueError(f"witness construction check requires square-free d, got d={m.d}")
    d = m.d

    def body() -> Counterexample | None:
        for v, perp in symplectic.perp_rows(m):
            for w in _members(perp):
                gen, u, s = construct_witness(v, w, m)
                failure = None
                if not projline.is_admissible(gen, m):
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

    return _timed(
        "witness_construction", f"all (v, w) pairs with w in v-perp, d={d}", body
    )


def verify_group(m: Modulus) -> CheckResult:
    """Closure order d^3, then one pass over all class pairs: every four-fold
    product W W' W^-1 W'^-1 equals the closed-form commutator, and the same
    products give the brute-force centre, the commutator set (= centre) and,
    square-free only, exhaustive commutant sizes against the formula."""
    d = m.d
    if d > pauli.CLOSURE_LIMIT:
        raise ValueError(
            f"group check is bounded to d <= {pauli.CLOSURE_LIMIT} "
            f"(closure materializes d^3 matrices), got d={d}"
        )
    if m.square_free:
        scope = f"closure order, centre, commutator set, commutant counts, d={d}"
    else:
        scope = (
            f"closure order, centre, commutator set, d={d} "
            "(commutant-count sub-check skipped: requires square-free d)"
        )

    def body() -> Counterexample | None:
        try:
            order = pauli.group_closure_order(m)
        except RuntimeError as err:
            return {"claim": "matrix model has no normal-form bijection", "message": str(err)}
        if order != d**3:
            return {"claim": "closure of {X, Z} has wrong order", "expected": d**3, "actual": order}

        # Scalars commute and cancel against their inverses, so class
        # representatives with omega-exponent 0 cover every operator pair.
        classes = [(w, pauli.inverse(w, m)) for w in (PauliOp(0, b, c) for b, c in _vectors(d))]
        comms = set()
        commuting = []  # per class: how many classes commute with it
        for w, winv in classes:
            n = 0
            for w2, w2inv in classes:
                prod = pauli.multiply(pauli.multiply(pauli.multiply(w, w2, m), winv, m), w2inv, m)
                closed = pauli.commutator(w, w2, m)
                if prod != closed:
                    return {
                        "claim": "four-fold product differs from the closed-form commutator",
                        "w1": list(w),
                        "w2": list(w2),
                        "product": list(prod),
                        "closed_form": list(closed),
                    }
                comms.add(prod)
                n += prod == pauli.IDENTITY
            commuting.append(n)

        central = [w for (w, _), n in zip(classes, commuting) if n == d * d]
        brute_centre = {PauliOp(a, w.b, w.c) for w in central for a in range(d)}
        if brute_centre != pauli.centre(m):
            return {
                "claim": "brute-force centre differs from the scalars",
                "brute": sorted(list(op) for op in brute_centre),
            }
        if comms != pauli.centre(m):
            return {
                "claim": "commutator set differs from the centre",
                "commutators": sorted(list(op) for op in comms),
            }
        if m.square_free:
            for (w, _), n in zip(classes, commuting):
                # commutation ignores omega-exponents, so each commuting class
                # holds d commuting operators
                expected = pauli.commuting_count(w, m)
                if d * n != expected:
                    return {
                        "claim": "exhaustive commutant size differs from formula",
                        "vector": [w.b, w.c],
                        "expected": expected,
                        "actual": d * n,
                    }
        return None

    return _timed("group", scope, body)


def verify_all(m: Modulus, checks: Iterable[str] | None = None) -> VerificationReport:
    """Run every applicable check (or the named, non-empty subset) in name
    order, skipping inapplicable ones with an explicit reason."""
    names = set(CHECK_NAMES if checks is None else checks)
    if not names:
        raise ValueError(f"no check selected; valid names: {list(CHECK_NAMES)}")
    unknown = names - set(CHECK_NAMES)
    if unknown:
        raise ValueError(
            f"unknown check names: {sorted(unknown)}; valid names: {list(CHECK_NAMES)}"
        )
    # Built per call, so wrappers set on the module's verify_* attributes take effect.
    square_free = None if m.square_free else "skipped: requires square-free d"
    table = (
        ("group", verify_group, None if m.d <= pauli.CLOSURE_LIMIT
         else f"skipped: group closure is bounded to d <= {pauli.CLOSURE_LIMIT}"),
        ("theorem1", verify_theorem1, None),
        ("theorem2", verify_theorem2, square_free),
        ("witness_construction", verify_witness_construction, square_free),
    )
    return VerificationReport(d=m.d, checks=tuple(
        check(m) if skip is None else _skipped(name, skip)
        for name, check, skip in table
        if name in names
    ))
