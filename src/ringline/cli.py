"""Command-line front door: factor, perp, points, commute, count, graph, verify.

Every command prints to stdout in a deterministic, locale-independent way, so
identical invocations are byte-identical.  Exit codes: 0 success or all checks
passed, 1 a verification or cross-check failed, 2 malformed input or usage
error.

Each command computes its values once into one record, the JSON object README
specifies, and hands it to ``_emit`` with two views derived from it: text
lines and CSV rows.  The views are functions returning iterables, so only the
requested format is ever rendered; JSON is the record itself, with library
objects serialized through their ``to_json_dict``.  ``_json`` yields it byte
for byte as ``json.dumps(record, indent=2)`` would, formatting each list of
int pairs a batch at a time instead of encoding it int by int.

Output is streamed: ``_emit`` writes each format to stdout in pieces of
bounded size, by one rule, ``_chunks``: JSON pieces, CSV rows and text lines
are joined, and long lines cut, at most ``_CHUNK`` characters at a time, so
no request holds its whole rendering or makes a write per row.  The members
of a point, and of a perp-set, are read off its generator or base in sorted
order, so no writer builds or sorts a member set.  A reader may close the
pipe early; the command then stops writing and still returns its own exit
code.

Each command imports the layers it uses when it runs, so a request loads only
those: ``factor`` needs ``ring`` alone.

The subcommands come from one table, ``_COMMANDS``.  ``main`` builds the
modulus from ``d`` once and dispatches to ``cmd_<name>(args, m)`` by name; it
looks up both ``make_modulus`` and the command on the module at call time, so a
wrapper installed on either takes effect.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .ring import make_modulus, unit_count

if TYPE_CHECKING:
    from .projline import Point
    from .ring import Modulus

# oracle.CHECK_NAMES (a test keeps the two equal), spelled out so that building
# the parser does not import the oracle and every layer below it.
_CHECK_NAMES = "group,theorem1,theorem2,witness_construction"

# Output piece sizes: int pairs per %-format in _json and per piece of a
# vector list in text, and characters per write in _emit.  Each keeps a piece
# to tens of kilobytes.  JSON pieces, CSV rows and text lines are joined into
# _CHUNK pieces because an unbuffered stdout (PYTHONUNBUFFERED=1) makes every
# write one write(2) call: written line by line into a pipe, ``graph 210``'s
# DOT output took ~550 ms against ~240 ms joined, and ``perp 330 0 0 --format
# csv`` row by row ~685 ms against ~475 ms buffered (Python 3.11, 2 shared
# vCPUs).
_PAIR_BATCH = 2048
_CHUNK = 1 << 16

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


def _vecs(vectors: Iterable[tuple[int, int]]) -> Iterator[str]:
    """The vectors as ``(b,c)`` separated by spaces, ``_PAIR_BATCH`` vectors a piece."""
    vectors = iter(vectors)
    sep = ""
    while batch := list(islice(vectors, _PAIR_BATCH)):
        yield sep + " ".join([f"({b},{c})" for b, c in batch])
        sep = " "


def _point_line(p: Point, d: int) -> Iterator[str]:
    """The text line of a point, in pieces, its members in sorted order."""
    return chain([f"point {p.label(d)} = "], _vecs(p.sorted_members()))


def _int_pairs(items: Sequence[Any]) -> tuple[int, ...] | None:
    """The ints of ``items`` in order, if every item is a list or tuple of two exact ints."""
    if set(map(type, items)) <= {list, tuple} and set(map(len, items)) == {2}:
        flat = tuple(chain.from_iterable(items))
        if set(map(type, flat)) == {int}:
            return flat
    return None


def _json(value: Any, indent: str) -> Iterator[str]:
    """The pieces of ``value`` as ``json.dumps(value, indent=2, default=lambda o:
    o.to_json_dict())`` writes it, nested at ``indent`` (a newline and the
    enclosing spaces).

    Any ``indent`` makes the stdlib skip its C encoder (CPython 3.10-3.13) and
    walk every bracket and int in Python.  Here scalars and keys still go
    through ``json.dumps``, but a list of exact-int pairs (the member lists,
    and the graph's vertex and edge lists, nearly all of a large record) is
    cut into batches of ``_PAIR_BATCH`` pairs, and each batch is one piece,
    one %-format over a pair template.  A batch holding anything else is
    written item by item, which gives the same bytes."""
    import json

    inner = indent + "  "
    if isinstance(value, (str, int, float)) or value is None:
        yield json.dumps(value)
    elif not isinstance(value, (dict, list, tuple)):
        yield from _json(value.to_json_dict(), indent)
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        sep = "{"
        for k, v in value.items():
            # json writes an int, float, bool or None key as its JSON text, quoted
            yield f"{sep}{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
            yield from _json(v, inner)
            sep = ","
        yield indent + "}"
    else:
        pair = f"{inner}[{inner}  %d,{inner}  %d{inner}]"
        sep = "["
        for start in range(0, len(value), _PAIR_BATCH):
            batch = value[start:start + _PAIR_BATCH]
            flat = _int_pairs(batch)
            if flat is not None:
                yield sep + ",".join([pair] * len(batch)) % flat
                sep = ","
            else:
                for v in batch:
                    yield sep + inner
                    yield from _json(v, inner)
                    sep = ","
        yield indent + "]"


def _chunks(lines: Iterable[str | Iterable[str]]) -> Iterator[str]:
    """``lines``, each ended by a newline, joined into pieces of at most
    ``_CHUNK`` characters.  A line is a string, or an iterable of the strings
    it joins, so a long line is cut between them; only a string of ``_CHUNK``
    characters or more makes a longer piece, alone with its newline."""
    chunk: list[str] = []
    size = 0
    for line in lines:
        for part in (line,) if isinstance(line, str) else line:
            if chunk and size + len(part) >= _CHUNK:
                yield "".join(chunk)
                chunk, size = [], 0
            chunk.append(part)
            size += len(part)
        chunk.append("\n")
        size += 1
    if chunk:
        yield "".join(chunk)


class _RowLine:
    """A file for ``csv.writer`` whose ``write`` returns the row's line
    without its newline, so that ``writerow`` returns it (csv documents that
    ``writerow`` returns what ``write`` returns)."""

    def write(self, line: str) -> str:
        return line[:-1]


def _emit(fmt: str, record: Any, text: Callable[[], Iterable[str]],
          rows: Callable[[], Iterable[Sequence[Any]]] | None = None) -> None:
    """Write one command's output to stdout in the requested format, as
    ``_chunks`` of its lines: JSON as one line given in ``_json``'s pieces,
    the bytes of ``json.dumps(record, indent=2)``; CSV as one line per row as
    one ``csv.writer`` writes it, the header first; text as its lines.  If
    the reader closes the pipe, the rest is dropped and stdout is pointed at
    ``os.devnull``, so that the interpreter's final flush raises nothing and
    the command keeps its own exit code."""
    out = sys.stdout
    try:
        if fmt == "json":
            lines: Iterable[str | Iterable[str]] = [_json(record, "\n")]
        elif fmt == "csv" and rows is not None:
            import csv

            row_line = csv.writer(_RowLine(), lineterminator="\n").writerow
            lines = (row_line([_cell(c) for c in r]) for r in rows())
        else:
            lines = text()
        out.writelines(_chunks(lines))
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


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
          lambda: chain(_kv(("d", m.d), ("vector", v), ("perp_size", ps.size),
                            ("perp_size_formula", size_formula)),
                        [chain(["members = "], _vecs(ps.sorted_members()))],
                        _kv(("points_containing", n_points), ("points_formula", count_formula)),
                        (_point_line(p, m.d) for p in points or ()),
                        _kv(("union_equals_perp", union_ok))),
          lambda: chain([("b", "c")], ps.sorted_members()))
    agree = union_ok and size_formula == ps.size and count_formula == n_points
    return 1 if m.square_free and not agree else 0


def cmd_points(args: argparse.Namespace, m: Modulus) -> int:
    from . import projline

    pts = projline.enumerate_points(m)
    formula = projline.line_size_formula(m)
    _emit(args.format, {"d": m.d, "count": len(pts), "count_formula": formula, "points": pts},
          lambda: chain(_kv(("d", m.d), ("points", len(pts)), ("points_formula", formula)),
                        (_point_line(p, m.d) for p in pts)),
          lambda: chain([("generator_b", "generator_c", "members")],
                        ((*p.generator, " ".join([f"{b}:{c}" for b, c in p.sorted_members()]))
                         for p in pts)))
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
        raise ValueError(f"count is limited to square-free d, got d={m.d}")
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
    _emit(args.format, graph, graph.dot_lines)
    return 0


def cmd_verify(args: argparse.Namespace, m: Modulus) -> int:
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
                import json

                line += "\n  counterexample: " + json.dumps(c.counterexample)
            lines.append(line)
        return lines + _kv(("all_passed", report.all_passed))

    record = report.to_json_dict(include_elapsed=args.timings)
    columns = ("name", "status", "scope", *(("elapsed",) if args.timings else ()))
    _emit(args.format, record, text,
          lambda: [columns, *([c[k] for k in columns] for c in record["checks"])])
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
