"""ringline: exact commutation algebra of a single-qudit shift/clock operator
group, computed through the geometry of the projective line over Z_d.

The library is pure stdlib and exact everywhere: ring elements are ints mod d,
operators are exponent triples, and the independent operator model is a
generalized permutation matrix whose entries are roots of unity encoded by
exponent.  All values are immutable; every operation is a pure function, safe
to call from any number of concurrent workers.  The one cache, the points of
recent lines, builds every point of a line together from its generator, so
concurrent callers get equal points, though not always the same objects.
Two callers get different objects only when each builds the line itself: both
find it missing from the cache at once, or it was evicted between them.  A
point, like a perp-set from ``perp_set``, makes its member set on first read
and keeps it; two threads reading it first at once get equal sets.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

# Public names by defining submodule.  Names and submodules are imported on
# first access (PEP 562), so ``import ringline`` and a CLI command load only
# the layers they use.
_EXPORTS = {
    "oracle": (
        "CheckResult", "VerificationReport", "construct_witness", "verify_all",
        "verify_group", "verify_theorem1", "verify_theorem2", "verify_witness_construction",
    ),
    "pauli": (
        "IDENTITY", "X", "Z", "GenPermMatrix", "PauliOp", "centre", "commutator", "commutes",
        "commuting_count", "format_pauli", "group_closure_order", "inverse", "multiply",
        "to_matrix",
    ),
    "projline": (
        "NeighbourGraph", "Point", "cyclic_submodule", "enumerate_points", "index_set_K",
        "is_admissible", "is_distant", "line_size_formula", "neighbour_graph",
        "perp_as_point_union", "perp_size_formula", "point_count_formula", "point_through",
        "points_containing",
    ),
    "ring": ("Modulus", "is_unit", "make_modulus", "unit_count"),
    "symplectic": ("PerpSet", "Vector2", "form", "is_perp", "perp_rows", "perp_set"),
}
_SUBMODULES = ("cli", *_EXPORTS)
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
