"""Command-line front door: factor, perp, points, commute, count, graph, verify.

Every command prints to stdout in a deterministic, locale-independent way, so
identical invocations are byte-identical.  Exit codes: 0 success or all checks
passed, 1 a verification or cross-check failed, 2 malformed input or usage
error.

Each command computes its values once into one record, the JSON object README
specifies, and hands it to ``_emit`` with two views derived from it: text
lines and CSV rows.  The views are functions, so only the requested format is
ever rendered; JSON is the record itself, with library objects serialized
through their ``to_json_dict``.

Each command imports the layers it uses when it runs, so a request loads only
those: ``factor`` needs ``ring`` alone.

The subcommands come from one table, ``_COMMANDS``.  ``main`` builds the
modulus from ``d`` once and dispatches to ``cmd_<name>(args, m)`` by name; it
looks up both ``make_modulus`` and the command on the module at call time, so a
wrapper installed on either takes effect.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .ring import make_modulus, unit_count

if TYPE_CHECKING:
    from .projline import Point
    from .ring import Modulus

# oracle.CHECK_NAMES (a test keeps the two equal), spelled out so that building
# the parser does not import the oracle and every layer below it.
_CHECK_NAMES = "group,theorem1,theorem2,witness_construction"

# One row per subcommand, dispatched to cmd_<name>: its help, the integer
# arguments after d, its options as argparse keyword dicts, and its output
# formats, the first being the default.
_FORMATS = ("text", "json", "csv")
_COMMANDS: dict[str, tuple[str, str, dict[str, dict[str, Any]], tuple[str, ...]]] = {
    "factor": ("factor d, report units and CRT idempotents", "", {}, _FORMATS),
    "perp": ("perp-set of a vector, with its point decomposition", "b c", {}, _FORMATS),
    "points": ("enumerate the points of the line over Z_d", "", {}, _FORMATS),
    "commute": ("commutation verdict for two operators (a b c triples)", "a b c a2 b2 c2", {
        "--matrix": {"action": "store_true", "help": "cross-check against the exact matrix model"},
        "--pretty": {"action": "store_true",
                     "help": "also render operators symbolically, like 'w^2 X Z^3'"},
    }, _FORMATS),
    "count": ("number of operators commuting with omega^a X^b Z^c", "b c", {
        "--brute": {"action": "store_true", "help": "also count exhaustively (d <= 32)"},
    }, _FORMATS),
    "graph": ("neighbour graph of the line (DOT or JSON adjacency)", "", {}, ("dot", "json")),
    "verify": ("run the exhaustive verification checks", "", {
        "--checks": {"help": "comma-separated subset of: " + _CHECK_NAMES},
        "--timings": {"action": "store_true",
                      "help": "include per-check timings (makes output run-dependent)"},
    }, _FORMATS),
}


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _kv(*pairs: tuple[str, Any]) -> list[str]:
    """``key = value`` lines; pairs whose value is None are left out."""
    return [f"{key} = {_cell(value)}" for key, value in pairs if value is not None]


def _one_row(record: dict[str, Any], *keys: str) -> list[Sequence[Any]]:
    """CSV rows of a one-row table: ``keys`` as the header, their record values below."""
    return [keys, [record[k] for k in keys]]


def _vecs(vectors: Iterable[tuple[int, int]]) -> str:
    return " ".join(f"({b},{c})" for b, c in vectors)


def _point_line(p: Point, d: int) -> str:
    return f"point {p.label(d)} = {_vecs(p.sorted_members())}"


def _emit(fmt: str, record: Any, text: Callable[[], list[str]],
          rows: Callable[[], list[Sequence[Any]]] | None = None) -> None:
    """Print one command's output in the requested format; CSV rows start with the header."""
    if fmt == "json":
        import json

        out = json.dumps(record, indent=2, default=lambda o: o.to_json_dict()) + "\n"
    elif fmt == "csv" and rows is not None:
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_cell(c) for c in r] for r in rows())
        out = buf.getvalue()
    else:
        out = "\n".join(text()) + "\n"
    sys.stdout.write(out)


def cmd_factor(args: argparse.Namespace, m: Modulus) -> int:
    phi = unit_count(m)
    terms = [f"{p}^{mult}" if mult > 1 else str(p) for p, mult in m.factors]
    idem = None if m.idempotents is None else " ".join(map(str, m.idempotents))
    _emit(args.format, {**m.to_json_dict(), "unit_count": phi},
          lambda: _kv(("d", m.d), ("factors", " * ".join(terms)), ("square_free", m.square_free),
                      ("unit_count", phi), ("idempotents", idem)),
          lambda: [("d", "factors", "square_free", "unit_count", "idempotents"),
                   (m.d, " ".join(terms), m.square_free, phi, idem)])
    return 0


def cmd_perp(args: argparse.Namespace, m: Modulus) -> int:
    from . import projline, symplectic

    v = (args.b % m.d, args.c % m.d)
    ps = symplectic.perp_set(v, m)
    points = size_formula = count_formula = union_ok = None
    if m.square_free:
        points = projline.points_containing(v, m)
        size_formula = projline.perp_size_formula(v, m)
        count_formula = projline.point_count_formula(v, m)
        union_ok = projline.perp_as_point_union(v, m) == ps.members
    n_points = len(points) if points is not None else None
    record = {"d": m.d, "vector": v, "perp": ps, "perp_size_formula": size_formula,
              "points_count": n_points, "points_count_formula": count_formula,
              "points": points, "union_equals_perp": union_ok}
    _emit(args.format, record,
          lambda: [*_kv(("d", m.d), ("vector", v), ("perp_size", ps.size),
                        ("perp_size_formula", size_formula),
                        ("members", _vecs(ps.sorted_members())),
                        ("points_containing", n_points), ("points_formula", count_formula)),
                   *(_point_line(p, m.d) for p in points or ()),
                   *_kv(("union_equals_perp", union_ok))],
          lambda: [("b", "c"), *ps.sorted_members()])
    agree = union_ok and size_formula == ps.size and count_formula == n_points
    return 1 if m.square_free and not agree else 0


def cmd_points(args: argparse.Namespace, m: Modulus) -> int:
    from . import projline

    pts = projline.enumerate_points(m)
    formula = projline.line_size_formula(m) if m.square_free else None
    _emit(args.format, {"d": m.d, "count": len(pts), "count_formula": formula, "points": pts},
          lambda: [*_kv(("d", m.d), ("points", len(pts)), ("points_formula", formula)),
                   *(_point_line(p, m.d) for p in pts)],
          lambda: [("generator_b", "generator_c", "members"),
                   *((*p.generator, " ".join(f"{b}:{c}" for b, c in p.sorted_members()))
                     for p in pts)])
    return 0


def cmd_commute(args: argparse.Namespace, m: Modulus) -> int:
    from . import pauli

    if args.matrix and m.d > pauli.MATRIX_LIMIT:
        raise ValueError(f"--matrix is bounded to d <= {pauli.MATRIX_LIMIT}, got d={m.d}")
    w1 = pauli.reduce_op(pauli.PauliOp(args.a, args.b, args.c), m)
    w2 = pauli.reduce_op(pauli.PauliOp(args.a2, args.b2, args.c2), m)
    exponent = pauli.commutator(w1, w2, m).a
    commuting = exponent == 0
    matrix_agrees = None
    if args.matrix:
        # W1 W2 = omega^k W2 W1 must hold for exactly the reported exponent k
        m1, m2 = pauli.to_matrix(w1, m), pauli.to_matrix(w2, m)
        matrix_agrees = m1 @ m2 == pauli.to_matrix(pauli.PauliOp(exponent, 0, 0), m) @ m2 @ m1
    pretty1, pretty2 = pauli.format_pauli(w1), pauli.format_pauli(w2)
    record = {"d": m.d, "w1": pauli.pauli_json_dict(w1, m), "w2": pauli.pauli_json_dict(w2, m),
              "commutator_exponent": exponent, "commutes": commuting,
              "w1_pretty": pretty1, "w2_pretty": pretty2, "matrix_agrees": matrix_agrees}
    _emit(args.format, record,
          lambda: _kv(("d", m.d), ("w1", tuple(w1)), ("w2", tuple(w2)),
                      ("w1_pretty", pretty1 if args.pretty else None),
                      ("w2_pretty", pretty2 if args.pretty else None),
                      ("commutator_exponent", exponent), ("commutes", commuting),
                      ("matrix_agrees", matrix_agrees)),
          lambda: _one_row(record, "commutator_exponent", "commutes", "matrix_agrees"))
    return 1 if matrix_agrees is False else 0


def cmd_count(args: argparse.Namespace, m: Modulus) -> int:
    from . import projline

    if not m.square_free:
        raise ValueError(
            f"count requires square-free d (the commutant formula is proved only there), got d={m.d}"
        )
    v = (args.b % m.d, args.c % m.d)
    size_formula = projline.perp_size_formula(v, m)
    formula = m.d * size_formula
    brute = None
    if args.brute:
        from . import pauli, symplectic

        if m.d > pauli.CLOSURE_LIMIT:
            raise ValueError(f"--brute is bounded to d <= {pauli.CLOSURE_LIMIT}, got d={m.d}")
        # commutation never sees the omega-exponent, so each orthogonal
        # (b', c') class holds exactly d commuting operators
        brute = m.d * symplectic.perp_set(v, m).size
    record = {"d": m.d, "vector": v, "perp_size_formula": size_formula,
              "commutant_formula": formula, "commutant_brute": brute}
    _emit(args.format, record,
          lambda: _kv(*record.items()),
          lambda: _one_row(record, "perp_size_formula", "commutant_formula", "commutant_brute"))
    return 1 if brute is not None and brute != formula else 0


def cmd_graph(args: argparse.Namespace, m: Modulus) -> int:
    from . import projline

    graph = projline.neighbour_graph(m)
    _emit(args.format, graph, lambda: [graph.to_dot()])
    return 0


def cmd_verify(args: argparse.Namespace, m: Modulus) -> int:
    import json

    from . import oracle

    names = None if args.checks is None else args.checks.split(",")
    report = oracle.verify_all(m, checks=names)

    def text() -> list[str]:
        lines = [f"d = {m.d}"]
        for c in report.checks:
            line = f"{c.status.upper():4s} {c.name}  {c.scope}"
            if args.timings:
                line += f"  ({c.elapsed:.3f}s)"
            if c.counterexample is not None:
                line += "\n  counterexample: " + json.dumps(c.counterexample)
            lines.append(line)
        return lines + _kv(("all_passed", report.all_passed))

    _emit(args.format, report.to_json_dict(include_elapsed=args.timings), text,
          lambda: [("name", "status", "scope"),
                   *((c.name, c.status, c.scope) for c in report.checks)])
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringline",
        description="Exact commutation algebra of the single-qudit shift/clock group, "
        "computed through the projective line over Z_d.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, ints, options, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for arg in ("d", *ints.split()):
            p.add_argument(arg, type=int)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=formats, default=formats[0],
                       help=f"output format (default {formats[0]})")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return globals()[f"cmd_{args.command}"](args, make_modulus(args.d))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
