"""Exhaustive verification harness.

Every counting claim and group-structure claim the library relies on is
restated here as a brute-force check over the full state space for a given d.
Checks are never sampled; a failure always carries a serialized witness, and a
check that does not apply is reported as skipped, never silently passed.

``theorem1`` and ``witness_construction`` read perp-sets as bit rows from
``symplectic.perp_rows``, which gets all d^4 pairs from 2d^2 values of the form
by bilinearity; ``theorem1`` reads only the admissible vectors, the rest are
``theorem2``'s.  Each of the three counts the cases it read against a closed
form, so a source that yields too few cannot pass it: ``theorem1`` reads
line size * unit count admissible vectors, ``theorem2`` d^2 vectors and
``witness_construction`` d * prod (p^2 + p - 1) pairs.  ``theorem1``
compares three builds of the point of every admissible vector v: the rows of
``perp_rows``, the orbit ``projline.cyclic_submodule`` makes by scaling v,
and the members of the enumerated point through v, read from ``symplectic``'s
perp-set solution at its generator; ``projline.point_through`` makes its
point the same way and is compared by generator.  It also checks every
enumerated point's generator against its definition, the least admissible
member, since ``projline`` builds the generators of the enumeration and of
``point_through`` by the same rule.  ``theorem2`` compares
two independent builds of every perp-set: ``symplectic.perp_set``, which
solves b*c' = c*b' (mod d) row by row, and the rows of ``perp_rows``, which
go through ``form``.  It also checks
``projline.neighbour_graph`` against the point pairs that
``projline.points_containing`` lists together under a non-zero vector.
``theorem2`` queries the points through every vector and ``theorem1`` through
every admissible one; ``points_containing`` answers each query from the point
generators, never from their member sets, and returns the points
``projline.enumerate_points`` lists, which make their member sets when first
read from ``symplectic``'s perp-set solution at their generators.
``group`` checks ``pauli.commutes`` on every class pair against the four-fold
product it computes there, and counts the d^4 pairs before it reads the centre
off them.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import Any, Callable, Iterable

from . import pauli, projline, ring, symplectic
from .pauli import PauliOp
from .ring import Modulus, Record

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

CHECK_NAMES = ("group", "theorem1", "theorem2", "witness_construction")

Counterexample = dict[str, Any]


class CheckResult(Record):
    """One named check: pass, fail with counterexample, or skip with the reason in scope."""

    __slots__ = ("name", "scope", "status", "counterexample", "elapsed")

    def to_json_dict(self, include_elapsed: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "scope": self.scope,
            "status": self.status,
            "passed": self.status == PASS,
            "counterexample": self.counterexample,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


class VerificationReport(Record):
    """All checks for one modulus; all_passed tolerates skips but not failures."""

    __slots__ = ("d", "checks")

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
    """Every enumerated point's generator is its least admissible member, by
    the definition (gcd(b, c, d) = 1 over its members); for every admissible
    vector the perp-set equals the point through it, and exactly one point
    contains the vector, namely ``projline.point_through``'s; the point count
    matches ``projline.line_size_formula``, and the admissible vectors number
    ``line_size_formula`` * ``ring.unit_count``.  Any d.  Each admissible
    vector's point is compared across three independent builds: its perp-set
    as bit rows from ``symplectic.perp_rows``, which reads ``form``; its
    orbit Z_d*v from ``projline.cyclic_submodule``; and the members of the
    one point ``projline.points_containing`` lists, an enumerated point whose
    members are the closed-form perp-set of its generator.  ``point_through``
    is made the same way as that point, so it is compared by generator and
    its members are not read.  The enumeration and ``point_through`` share
    one generator rule, so only the definition can catch a wrong one."""
    d = m.d

    def body() -> Counterexample | None:
        pts = projline.enumerate_points(m)
        for p in pts:
            # the definition, read off the members without is_admissible,
            # which the admissible count below checks
            least = min((w for w in p.members if math.gcd(w[0], w[1], d) == 1), default=None)
            if p.generator != least:
                return {
                    "claim": "point generator is not its least admissible member",
                    "generator": list(p.generator),
                    "least_admissible_member": least and list(least),
                }
        admissible = 0
        for v, perp in symplectic.perp_rows(m):
            if not projline.is_admissible(v, m):
                continue
            admissible += 1
            orbit = projline.cyclic_submodule(v, m)
            if perp != _rows(orbit, d):
                return {
                    "claim": "perp-set of admissible vector differs from its orbit",
                    "vector": list(v),
                    "perp_size": sum(row.bit_count() for row in perp),
                    "orbit_size": len(orbit),
                }
            containing = projline.points_containing(v, m)
            if len(containing) != 1:
                return {
                    "claim": f"admissible vector lies in {len(containing)} points, "
                             "expected exactly 1",
                    "vector": list(v),
                    "generators": [list(p.generator) for p in containing],
                }
            (p,) = containing
            through = projline.point_through(v, m)
            if p.members != orbit or p != through:
                return {
                    "claim": "point through admissible vector differs from point_through",
                    "vector": list(v),
                    "point": p.to_json_dict(),
                    "point_through": through.to_json_dict(),
                    "point_minus_orbit": [list(w) for w in sorted(p.members - orbit)],
                    "orbit_minus_point": [list(w) for w in sorted(orbit - p.members)],
                }
        if len(pts) != (size := projline.line_size_formula(m)):
            return {
                "claim": "number of points differs from the line size formula",
                "expected": size,
                "actual": len(pts),
            }
        if admissible != (expected := size * ring.unit_count(m)):
            # each point has phi(d) admissible members, and each admissible
            # vector lies on one point
            return {
                "claim": "number of admissible vectors differs from line size times unit count",
                "expected": expected,
                "actual": admissible,
            }
        return None

    return _timed("theorem1", f"all {d * d} vectors of Z_{d}^2", body)


def verify_theorem2(m: Modulus) -> CheckResult:
    """The counting claims, for every vector at any d: number of containing
    points, perp-set size, and ``projline.index_set_K`` = the indices of the
    primes dividing both coordinates, which is empty exactly when
    ``projline.is_admissible`` holds.  The union of the containing points
    (``projline.points_containing``, ``perp_as_point_union``) lies inside the
    perp-set, equals it at square-free d, and is a proper subset for some
    vector at any other d; and the perp-set must equal the vector's rows from
    ``symplectic.perp_rows``, which hold exactly the vectors orthogonal to it.
    The neighbour graph's vertices are the enumerated points, and its edges
    join exactly the points sharing a non-zero vector: the pairs co-listed by
    ``points_containing`` under some non-zero vector, whose points must all
    equal enumerated ones.  ``perp_rows`` must yield all d^2 vectors."""
    d = m.d

    def body() -> Counterexample | None:
        pts = projline.enumerate_points(m)
        # keyed by generator, as Point equality is: a cached line evicted
        # mid-check is rebuilt into new, equal objects
        index_of = {p.generator: i for i, p in enumerate(pts)}
        sharing: set[tuple[int, int]] = set()
        proper_union_seen = False
        read = 0
        for v, rows in symplectic.perp_rows(m):
            read += 1
            containing = projline.points_containing(v, m)
            expected_points = projline.point_count_formula(v, m)
            if len(containing) != expected_points:
                return {
                    "claim": "point count through vector differs from formula",
                    "vector": list(v),
                    "expected": expected_points,
                    "actual": len(containing),
                }
            listed = [index_of.get(p.generator) for p in containing]
            if None in listed:
                return {
                    "claim": "point through vector is not an enumerated point",
                    "vector": list(v),
                    "point": containing[listed.index(None)].to_json_dict(),
                }
            if v != (0, 0):
                sharing.update(combinations(sorted(listed), 2))
            union = projline.perp_as_point_union(v, m)
            perp = symplectic.perp_set(v, m).members
            if not union <= perp or (m.square_free and union != perp):
                return {
                    "claim": "union of containing points differs from perp-set",
                    "vector": list(v),
                    "union_size": len(union),
                    "perp_size": len(perp),
                    "union_minus_perp": [list(w) for w in sorted(union - perp)],
                    "perp_minus_union": [list(w) for w in sorted(perp - union)],
                }
            if _rows(perp, d) != rows:
                from_rows = set(_members(rows))
                return {
                    "claim": "perp_rows differs from perp_set",
                    "vector": list(v),
                    "rows_minus_perp": [list(w) for w in sorted(from_rows - perp)],
                    "perp_minus_rows": [list(w) for w in sorted(perp - from_rows)],
                }
            proper_union_seen = proper_union_seen or union < perp
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
            if projline.is_admissible(v, m) != (not index_set):
                return {
                    "claim": "is_admissible differs from an empty index set K",
                    "vector": list(v),
                    "is_admissible": projline.is_admissible(v, m),
                    "index_set_K": sorted(index_set),
                }
        if read != d * d:
            return {
                "claim": "number of vectors read differs from d^2",
                "expected": d * d,
                "actual": read,
            }
        graph = projline.neighbour_graph(m)
        if list(graph.vertices) != pts:
            return {
                "claim": "neighbour graph vertices differ from the enumerated points",
                "vertices": [list(p.generator) for p in graph.vertices],
                "points": [list(p.generator) for p in pts],
            }
        if graph.edges != tuple(sorted(sharing)):
            return {
                "claim": "neighbour graph differs from the point pairs sharing a non-zero vector",
                "differing_edges": [list(e) for e in sorted(set(graph.edges) ^ sharing)],
            }
        if not (m.square_free or proper_union_seen):
            return {
                "claim": "every union of containing points equals its perp-set, "
                         "but d is not square-free",
                "d": d,
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
    generator whose point provably contains both (via the returned scalars);
    the pairs number d * prod (p^2 + p - 1), the sum of d * gcd(b, c, d)."""
    if not m.square_free:
        raise ValueError(f"witness construction check requires square-free d, got d={m.d}")
    d = m.d

    def body() -> Counterexample | None:
        pairs = 0
        for v, perp in symplectic.perp_rows(m):
            members = _members(perp)
            pairs += len(members)
            for w in members:
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
        # sum over v of |perp(v)| = d * gcd(b, c, d), prime by prime
        if pairs != (expected := d * math.prod(p * p + p - 1 for p in m.primes)):
            return {
                "claim": "number of witness pairs differs from d * prod (p^2 + p - 1)",
                "expected": expected,
                "actual": pairs,
            }
        return None

    return _timed(
        "witness_construction", f"all (v, w) pairs with w in v-perp, d={d}", body
    )


def verify_group(m: Modulus) -> CheckResult:
    """Closure order d^3, then one pass over all class pairs: every four-fold
    product W W' W^-1 W'^-1 equals the closed-form commutator and is the
    identity exactly when ``pauli.commutes`` holds, and the pairs number d^4.
    The same products give the brute-force centre, the commutator set
    (= centre) and, square-free only, exhaustive commutant sizes against the
    formula.

    Once every product equals ``pauli.commutator`` and the brute-force centre
    equals ``pauli.centre``, the commutator set is the set of closed-form
    commutators, w^form(v, v') I, which meets every scalar (form((0, a),
    (1, 0)) = a) and nothing else.  So "commutator set differs from the
    centre" is implied by the earlier claims unless ``pauli.commutator`` and
    the products are wrong in the same way; it stays as the paper's
    "commutator subgroup = centre" fact."""
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
        pairs = 0
        for w, winv in classes:
            n = 0
            for w2, w2inv in classes:
                pairs += 1
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
                trivial = prod == pauli.IDENTITY
                if pauli.commutes(w, w2, m) != trivial:
                    return {
                        "claim": "commutes differs from the four-fold product",
                        "w1": list(w),
                        "w2": list(w2),
                        "product": list(prod),
                    }
                comms.add(prod)
                n += trivial
            commuting.append(n)
        if pairs != d**4:
            return {
                "claim": "number of class pairs differs from d^4",
                "expected": d**4,
                "actual": pairs,
            }

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
    table = (
        ("group", verify_group, None if m.d <= pauli.CLOSURE_LIMIT
         else f"skipped: group closure is bounded to d <= {pauli.CLOSURE_LIMIT}"),
        ("theorem1", verify_theorem1, None),
        ("theorem2", verify_theorem2, None),
        ("witness_construction", verify_witness_construction,
         None if m.square_free else "skipped: requires square-free d"),
    )
    return VerificationReport(m.d, tuple(
        check(m) if skip is None else CheckResult(name, skip, SKIP, None, 0.0)
        for name, check, skip in table
        if name in names
    ))
