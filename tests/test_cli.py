import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ringline import cli, oracle, pauli, projline, symplectic
from ringline.cli import main
from ringline.ring import make_modulus

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# argv -> exact stdout and exit code: every command in every format at
# d in {6, 7, 12}, plus --pretty, --matrix, --brute, --checks, usage errors and
# the help screens
CLI_OUTPUTS = json.loads((GOLDEN / "cli_outputs.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", sorted(CLI_OUTPUTS))
def test_output_matrix_matches_golden(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help screens at $COLUMNS
    code, out, _ = run(capsys, *argv.split())
    assert (code, out) == (CLI_OUTPUTS[argv]["exit"], CLI_OUTPUTS[argv]["stdout"])


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "6")
    assert code == 0
    assert out == (
        "d = 6\n"
        "factors = 2 * 3\n"
        "square_free = true\n"
        "unit_count = 2\n"
        "idempotents = 3 4\n"
    )


def test_factor_not_square_free_text(capsys):
    code, out, _ = run(capsys, "factor", "12")
    assert code == 0
    assert "factors = 2^2 * 3" in out
    assert "square_free = false" in out
    assert "idempotents" not in out


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["d", "factors", "square_free", "idempotents", "unit_count"]
    assert obj == {
        "d": 6,
        "factors": [[2, 1], [3, 1]],
        "square_free": True,
        "idempotents": [3, 4],
        "unit_count": 2,
    }


def test_factor_csv(capsys):
    code, out, _ = run(capsys, "factor", "6", "--format", "csv")
    assert code == 0
    assert out == "d,factors,square_free,unit_count,idempotents\n6,2 3,true,2,3 4\n"


@pytest.mark.parametrize("bad", ["1", "0", "-7"])
def test_factor_rejects_bad_modulus(capsys, bad):
    code, _, err = run(capsys, "factor", bad)
    assert code == 2
    assert "error" in err


def test_factor_rejects_non_integer(capsys):
    code, _, _ = run(capsys, "factor", "six")
    assert code == 2


def test_perp_text_golden_example(capsys):
    code, out, _ = run(capsys, "perp", "6", "2", "0")
    assert code == 0
    assert out == (
        "d = 6\n"
        "vector = (2, 0)\n"
        "perp_size = 12\n"
        "perp_size_formula = 12\n"
        "members = (0,0) (0,3) (1,0) (1,3) (2,0) (2,3) (3,0) (3,3) (4,0) (4,3) (5,0) (5,3)\n"
        "points_containing = 3\n"
        "points_formula = 3\n"
        "point Z6(1,0) = (0,0) (1,0) (2,0) (3,0) (4,0) (5,0)\n"
        "point Z6(1,3) = (0,0) (1,3) (2,0) (3,3) (4,0) (5,3)\n"
        "point Z6(2,3) = (0,0) (0,3) (2,0) (2,3) (4,0) (4,3)\n"
        "union_equals_perp = true\n"
    )


def test_perp_json(capsys):
    code, out, _ = run(capsys, "perp", "6", "2", "0", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["perp"]["size"] == 12
    assert obj["perp_size_formula"] == 12
    assert obj["points_count"] == 3
    assert obj["points_count_formula"] == 3
    assert [p["generator"] for p in obj["points"]] == [[1, 0], [1, 3], [2, 3]]
    assert obj["union_equals_perp"] is True


def test_perp_csv(capsys):
    code, out, _ = run(capsys, "perp", "6", "2", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,c"
    assert len(lines) == 13
    assert lines[1] == "0,0"


def test_perp_zero_vector(capsys):
    code, out, _ = run(capsys, "perp", "6", "0", "0")
    assert code == 0
    assert "perp_size = 36" in out
    assert "points_containing = 12" in out


def test_perp_field_case(capsys):
    code, out, _ = run(capsys, "perp", "7", "1", "0")
    assert code == 0
    assert "perp_size = 7" in out
    assert "points_containing = 1" in out


def test_perp_exits_1_when_its_cross_checks_disagree(capsys, monkeypatch):
    containing = projline.points_containing
    monkeypatch.setattr(projline, "points_containing", lambda v, m: containing(v, m)[:-1])
    code, out, _ = run(capsys, "perp", "6", "2", "0")
    assert code == 1
    assert "points_containing = 2\npoints_formula = 3\n" in out
    assert out.endswith("union_equals_perp = false\n")


def test_perp_without_square_freeness_omits_decomposition(capsys):
    code, out, _ = run(capsys, "perp", "12", "2", "0")
    assert code == 0
    assert "perp_size = 24" in out
    assert "points" not in out
    assert "formula" not in out


def test_points_text(capsys):
    code, out, _ = run(capsys, "points", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d = 6"
    assert lines[1] == "points = 12"
    assert lines[2] == "points_formula = 12"
    assert sum(1 for line in lines if line.startswith("point Z6(")) == 12


def test_points_smallest_field(capsys):
    code, out, _ = run(capsys, "points", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert [p["generator"] for p in obj["points"]] == [[0, 1], [1, 0], [1, 1]]


def test_points_d30(capsys):
    code, out, _ = run(capsys, "points", "30", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 72
    assert obj["count_formula"] == 72


def test_points_csv(capsys):
    code, out, _ = run(capsys, "points", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "generator_b,generator_c,members",
        "0,1,0:0 0:1",
        "1,0,0:0 1:0",
        "1,1,0:0 1:1",
    ]


def test_commute_z_vs_x(capsys):
    code, out, _ = run(capsys, "commute", "6", "0", "0", "1", "0", "1", "0")
    assert code == 0
    assert "commutator_exponent = 1" in out
    assert "commutes = false" in out


def test_commute_phases_do_not_matter(capsys):
    code, out, _ = run(capsys, "commute", "6", "3", "2", "0", "1", "5", "0")
    assert code == 0
    assert "commutator_exponent = 0" in out
    assert "commutes = true" in out


def test_commute_identity_commutes(capsys):
    code, out, _ = run(capsys, "commute", "6", "0", "0", "0", "5", "4", "2")
    assert code == 0
    assert "commutes = true" in out


def test_commute_matrix_and_pretty(capsys):
    code, out, _ = run(
        capsys, "commute", "6", "0", "0", "1", "0", "1", "0", "--matrix", "--pretty"
    )
    assert code == 0
    assert "w1_pretty = Z" in out
    assert "w2_pretty = X" in out
    assert "matrix_agrees = true" in out


def test_commute_matrix_agrees_for_every_exponent(capsys):
    # --matrix checks W1 W2 = omega^k W2 W1 for the reported k, so it must
    # agree for every exponent k, not just on the commute/not-commute verdict;
    # against X, Z and XZ the exponents c, -b and c - b reach every residue
    for b in range(6):
        for c in range(6):
            for b2, c2 in ((1, 0), (0, 1), (1, 1)):
                argv = ("commute", "6", "1", str(b), str(c), "0", str(b2), str(c2), "--matrix")
                code, out, _ = run(capsys, *argv)
                assert (code, out.splitlines()[-1]) == (0, "matrix_agrees = true"), argv


def test_commute_matrix_catches_flipped_form_sign(capsys, monkeypatch):
    # a sign-flipped form negates every commutator exponent but keeps every
    # commute/not-commute verdict; the matrix cross-check must still fail
    monkeypatch.setattr(symplectic, "form", lambda v, w, m: (w[1] * v[0] - v[1] * w[0]) % m.d)
    code, out, _ = run(capsys, "commute", "6", "0", "0", "1", "0", "1", "0", "--matrix")
    assert code == 1
    assert "commutator_exponent = 5" in out
    assert "matrix_agrees = false" in out


def test_commute_matrix_is_bounded(capsys, monkeypatch):
    # the matrices hold 2d entries each, so a huge d must exit 2 before any is built
    def no_matrix(w, m):
        raise AssertionError("to_matrix called above the bound")

    monkeypatch.setattr(pauli, "to_matrix", no_matrix)
    code, out, err = run(capsys, "commute", "100003", "0", "1", "0", "0", "0", "1", "--matrix")
    assert (code, out) == (2, "")
    assert f"d <= {pauli.MATRIX_LIMIT}" in err


def test_commute_json(capsys):
    code, out, _ = run(
        capsys, "commute", "6", "0", "0", "1", "0", "1", "0", "--matrix", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "d", "w1", "w2", "commutator_exponent", "commutes",
        "w1_pretty", "w2_pretty", "matrix_agrees",
    ]
    assert obj["w1"] == {"a": 0, "b": 0, "c": 1, "d": 6}
    assert obj["commutator_exponent"] == 1
    assert obj["commutes"] is False
    assert obj["matrix_agrees"] is True


def test_commute_csv(capsys):
    code, out, _ = run(capsys, "commute", "6", "0", "0", "1", "0", "1", "0", "--format", "csv")
    assert code == 0
    assert out == "commutator_exponent,commutes,matrix_agrees\n1,false,\n"


def test_count_formula_and_brute(capsys):
    code, out, _ = run(capsys, "count", "6", "2", "0", "--brute")
    assert code == 0
    assert "commutant_formula = 72" in out
    assert "commutant_brute = 72" in out


def test_count_centre_representative(capsys):
    code, out, _ = run(capsys, "count", "6", "0", "0")
    assert code == 0
    assert "commutant_formula = 216" in out


def test_count_d15(capsys):
    code, out, _ = run(capsys, "count", "15", "5", "0", "--brute", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["perp_size_formula"] == 75
    assert obj["commutant_formula"] == 1125
    assert obj["commutant_brute"] == 1125


def test_count_rejects_non_square_free(capsys):
    code, _, err = run(capsys, "count", "12", "1", "0")
    assert code == 2
    assert "count is limited to square-free d, got d=12" in err


def test_count_brute_bound(capsys):
    code, _, err = run(capsys, "count", "33", "1", "0", "--brute")
    assert code == 2
    assert "32" in err


def test_graph_field_is_isolated_vertices(capsys):
    code, out, _ = run(capsys, "graph", "7", "--format", "dot")
    assert code == 0
    assert out.count("[label=") == 8
    assert " -- " not in out


def test_graph_json_matches_golden(capsys):
    code, out, _ = run(capsys, "graph", "6", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "graph_d6.json").read_text()


def test_graph_dot_matches_golden(capsys):
    code, out, _ = run(capsys, "graph", "6")
    assert code == 0
    assert out == (GOLDEN / "graph_d6.dot").read_text()


def test_graph_rejects_csv(capsys):
    code, _, _ = run(capsys, "graph", "6", "--format", "csv")
    assert code == 2


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "6")
    assert code == 0
    assert "PASS theorem1" in out
    assert "all_passed = true" in out


def test_verify_skips_but_passes_for_d12(capsys):
    code, out, _ = run(capsys, "verify", "12")
    assert code == 0
    assert "PASS theorem2  all 144 vectors of Z_12^2" in out
    assert "SKIP witness_construction  skipped: requires square-free d" in out
    assert "all_passed = true" in out


def test_verify_rejects_unknown_checks(capsys):
    code, _, err = run(capsys, "verify", "6", "--checks", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_verify_rejects_an_empty_check_list(capsys):
    code, out, err = run(capsys, "verify", "6", "--checks", "")
    assert (code, out) == (2, "")
    assert "unknown check names: ['']" in err


def test_verify_subset_json(capsys):
    code, out, _ = run(capsys, "verify", "6", "--checks", "theorem1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [c["name"] for c in obj["checks"]] == ["theorem1"]
    assert obj["all_passed"] is True
    assert "elapsed" not in obj["checks"][0]


def test_verify_timings_flag_adds_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "6", "--checks", "theorem1", "--format", "json", "--timings")
    assert code == 0
    assert "elapsed" in json.loads(out)["checks"][0]


@pytest.mark.parametrize("timings", [False, True])
def test_verify_timings_flag_in_text(capsys, timings):
    code, out, _ = run(capsys, "verify", "6", *(["--timings"] if timings else []))
    assert code == 0
    check_lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL", "SKIP"))]
    assert len(check_lines) == len(oracle.CHECK_NAMES)
    ends_with_time = [bool(re.search(r"  \(\d+\.\d{3}s\)$", line)) for line in check_lines]
    assert ends_with_time == [timings] * len(check_lines)


@pytest.mark.parametrize("timings", [False, True])
def test_verify_timings_flag_in_csv(capsys, timings):
    code, out, _ = run(capsys, "verify", "6", "--format", "csv", *(["--timings"] if timings else []))
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["name", "status", "scope", *(["elapsed"] if timings else [])]
    assert [row[0] for row in rows] == list(oracle.CHECK_NAMES)
    assert all(len(row) == len(header) for row in rows)
    if timings:
        assert all(float(row[3]) >= 0 for row in rows)


def test_verify_help_lists_the_oracle_check_names(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert ",".join(oracle.CHECK_NAMES) in " ".join(out.split())


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,scope"
    assert "witness_construction,skip,skipped: requires square-free d" in lines


def test_outputs_are_byte_identical_on_rerun(capsys):
    for argv in (
        ["verify", "6"],
        ["verify", "6", "--format", "json"],
        ["perp", "6", "2", "0", "--format", "json"],
        ["points", "6", "--format", "csv"],
        ["graph", "6", "--format", "json"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_outputs_use_lf_and_trailing_newline(capsys):
    for argv in (["factor", "6"], ["graph", "6"], ["verify", "6", "--checks", "theorem1"]):
        _, out, _ = run(capsys, *argv)
        assert out.endswith("\n")
        assert "\r" not in out


def test_usage_errors(capsys):
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys, "perp", "6", "2")[0] == 2
    assert run(capsys)[0] == 2


def _dumps(value):
    return json.dumps(value, indent=2, default=lambda o: o.to_json_dict())


def _first_difference(out, expected):
    """Where two outputs part.  Asserting ``out == expected`` directly would
    have pytest diff megabytes of JSON line by line, which takes minutes."""
    i = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
             min(len(out), len(expected)))
    return f"differ at offset {i}: {out[i - 40:i + 40]!r} != {expected[i - 40:i + 40]!r}"


def _emitted(monkeypatch, capsys, argv):
    """The records a command hands to _emit, and what it printed."""
    records = []
    emit = cli._emit

    def spy(fmt, record, *views):
        records.append(record)
        emit(fmt, record, *views)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run(capsys, *argv)
    return code, records, out


@pytest.mark.parametrize("argv", [
    *sorted(a for a, e in CLI_OUTPUTS.items() if "--format json" in a and e["exit"] != 2),
    *(f"{cmd} {d} --format json" for cmd in ("points", "graph") for d in (2, 6, 12, 36, 105)),
    # d = 30 with 1, 3, 12 and all 72 containing points, then d with square factors
    *(f"perp {d} {b} {c} --format json"
      for d, b, c in ((30, 1, 2), (30, 2, 4), (30, 6, 0), (30, 0, 0), (210, 1, 207),
                      (12, 2, 4), (36, 6, 12), (36, 0, 0), (8, 4, 4))),
    "verify 6 --format json --timings",
])
def test_json_output_is_json_dumps_with_indent_2(monkeypatch, capsys, argv):
    code, records, out = _emitted(monkeypatch, capsys, argv.split())
    assert code in (0, 1)
    (record,) = records
    expected = _dumps(record) + "\n"
    same = out == expected
    assert same, _first_difference(out, expected)


@pytest.mark.parametrize("value", [
    # lists that look like int pairs but are not, or are only in part
    [[True, 1]], [[None, 1]], [[1, 2], [3]], [[1, 2], (3, 4)], [[1, 2, 3]], [[1.5, 2]],
    [["1", 2]], [[1, 2], 3], [pauli.PauliOp(1, 2, 3)], [pauli.PauliOp(1, 2, 3), [1, 2]],
    [], {}, [[]], [{}], [[], []], {"a": []}, {"a": {}},
    [[-1, -2]], [[2**63, -(2**64) - 1]], [[0, 0]] * 3, ((1, 2),), (1, 2),
    "d\u00e9j\u00e0 vu \U0001d4b5", 'say "q" \\ \n\t', {"cl\u00e9 \"q\"": [[1, 2]]},
    1.5, float("nan"), float("-inf"), 1e300, True, False, None, 0, -(2**70),
    {"a": {"b": [[1, 2]], "c": [[[1, 2], [3, 4]]]}, 2: None, None: 2.5, True: 3, 1.5: "x"},
    {"checks": [{"elapsed": 0.0012, "counterexample": None}], "all_passed": False},
])
def test_json_writer_matches_json_dumps_on_crafted_values(value):
    assert "".join(cli._json(value, "\n")) == _dumps(value)


def test_json_writer_reaches_library_objects_inside_containers():
    m = make_modulus(12)
    value = {"perp": [symplectic.perp_set((2, 4), m)],
             "points": projline.points_containing((6, 0), m),
             "graph": (projline.neighbour_graph(make_modulus(4)),), "modulus": m}
    assert "".join(cli._json(value, "\n")) == _dumps(value)


_BATCH = cli._PAIR_BATCH


def _two_batches_with_a_bool_pair():
    value = [[i, i + 1] for i in range(2 * _BATCH)]
    value[_BATCH + 5] = [True, 1]  # json writes true, %d would write 1
    return value


@pytest.mark.parametrize("value", [
    [[i, -i] for i in range(_BATCH)],
    [(i, 2**40 + i) for i in range(_BATCH + 1)],
    _two_batches_with_a_bool_pair(),
], ids=["one-batch", "one-batch-and-one", "bool-pair-in-second-batch"])
def test_json_writer_formats_int_pairs_in_bounded_batches(value):
    pieces = list(cli._json(value, "\n"))
    assert "".join(pieces) == _dumps(value)
    # every pair closes one bracket, so no piece holds more than one batch
    assert max(piece.count("]") for piece in pieces) == _BATCH


@pytest.mark.parametrize("sizes", [[], [0], [5, 7], [cli._CHUNK - 1, 0, 3], [cli._CHUNK] * 3,
                                   [10] * (2 * cli._CHUNK // 10 + 1)])
def test_chunks_join_lines_in_pieces_of_bounded_size(sizes):
    lines = ["x" * n for n in sizes]
    pieces = list(cli._chunks(lines))
    assert "".join(pieces) == "".join(line + "\n" for line in lines)
    # a piece is cut before the line that would take it past _CHUNK, so only
    # a line of _CHUNK characters or more makes a longer one, alone
    longest = max(sizes, default=0)
    assert all(cli._CHUNK - longest <= len(p) for p in pieces[:-1])
    assert all(len(p) <= max(cli._CHUNK, longest + 1) for p in pieces)


def test_chunks_cut_a_line_given_in_parts():
    parts = [f"({i},{i}) " for i in range(30_000)]
    pieces = list(cli._chunks(["head", iter(parts), [], "tail"]))
    assert "".join(pieces) == "head\n" + "".join(parts) + "\n\ntail\n"
    longest = max(map(len, parts))
    assert len(pieces) > 3
    assert all(cli._CHUNK - longest <= len(p) <= cli._CHUNK for p in pieces[:-1])


class _Writes(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_perp_text_writes_its_members_line_in_bounded_pieces(monkeypatch):
    # perp 330 0 0 has all 108900 vectors as members: a line of over a
    # million characters, written a piece at a time
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["perp", "330", "0", "0"]) == 0
    members = sorted(symplectic.perp_set((0, 0), make_modulus(330)).members)
    line = "members = " + " ".join(f"({b},{c})" for b, c in members) + "\n"
    assert len(line) > 15 * cli._CHUNK
    assert line in out.getvalue()
    assert max(out.sizes) <= cli._CHUNK


def _about_one_write_per_chunk(out, longest):
    # a piece is cut before the line or part that would take it past _CHUNK,
    # so each write but the last holds more than _CHUNK - longest characters
    text = out.getvalue()
    assert len(text) > cli._CHUNK
    assert len(text) / cli._CHUNK <= len(out.sizes) <= len(text) // (cli._CHUNK - longest) + 1


def test_graph_dot_reaches_stdout_in_about_one_write_per_chunk(monkeypatch):
    # with PYTHONUNBUFFERED set every write is one write(2) call, so the DOT
    # lines are joined into pieces before they are written, not one by one
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["graph", "105"]) == 0
    _about_one_write_per_chunk(out, max(map(len, out.getvalue().splitlines())) + 1)


def test_points_json_reaches_stdout_in_about_one_write_per_chunk(monkeypatch):
    # the JSON pieces (one per member list here) are joined like text lines
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["points", "105", "--format", "json"]) == 0
    record = json.loads(out.getvalue())
    _about_one_write_per_chunk(out, max(map(len, cli._json(record, "\n"))))
    assert len(out.sizes) < len(record["points"])


def test_perp_csv_reaches_stdout_in_about_one_write_per_chunk(monkeypatch):
    # 108901 rows, written in pieces of joined rows, not one write per row
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["perp", "330", "0", "0", "--format", "csv"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["b,c", "0,0", "0,1"] and len(lines) == 330 * 330 + 1
    _about_one_write_per_chunk(out, max(map(len, lines)) + 1)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_a_passing_verify_report_does_not_import_json(fmt):
    # only a counterexample in the text view needs json.dumps, and --format
    # json goes through _json, which imports it itself
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = ("import sys\nfrom ringline.cli import main\n"
              f"code = main(['verify', '6', '--format', '{fmt}'])\n"
              "print(code, 'json' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.stdout.startswith({"text": "d = 6\n", "csv": "name,status,scope\n"}[fmt])
    assert proc.stderr == "0 False\n"


def test_verify_text_writes_a_counterexample_as_json(capsys, monkeypatch):
    # the one place a text or CSV report needs json: a failed check's line
    example = {"vector": [2, 0], "missing": [[1, 3]], "note": "d\u00e9j\u00e0"}
    failed = oracle.CheckResult("theorem1", "all 36 vectors of Z_6^2", "fail", example, 0.0)
    monkeypatch.setattr(oracle, "verify_all",
                        lambda m, checks=None: oracle.VerificationReport(m.d, [failed]))
    code, out, _ = run(capsys, "verify", "6")
    assert code == 1
    assert out == ("d = 6\nFAIL theorem1  all 36 vectors of Z_6^2\n"
                   f"  counterexample: {json.dumps(example)}\nall_passed = false\n")


def _points_text(d):
    pts = projline.enumerate_points(make_modulus(d))
    lines = [f"d = {d}", f"points = {len(pts)}", f"points_formula = {len(pts)}"]
    lines += [f"point {p.label(d)} = " + " ".join(f"({b},{c})" for b, c in sorted(p.members))
              for p in pts]
    return "\n".join(lines) + "\n"


def _points_csv(d):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["generator_b", "generator_c", "members"])
    for p in projline.enumerate_points(make_modulus(d)):
        writer.writerow([*p.generator, " ".join(f"{b}:{c}" for b, c in sorted(p.members))])
    return buf.getvalue()


@pytest.mark.parametrize("d", [72, 105, 210, 360])
@pytest.mark.parametrize("argv, reference", [
    ("points {d}", _points_text),
    ("points {d} --format csv", _points_csv),
    ("graph {d}", lambda d: projline.neighbour_graph(make_modulus(d)).to_dot() + "\n"),
], ids=["text", "csv", "dot"])
def test_streamed_output_equals_the_joined_rendering(capsys, argv, reference, d):
    code, out, _ = run(capsys, *argv.format(d=d).split())
    expected = reference(d)
    assert code == 0
    assert out == expected, _first_difference(out, expected)


@pytest.mark.parametrize("argv", ["graph 105 --format json", "graph 105 --format dot",
                                  "points 105", "points 105 --format json",
                                  "perp 330 0 0 --format csv"])
def test_a_reader_may_close_the_pipe_early(argv):
    # each output is larger than a 64 KB pipe buffer, so the command is still
    # writing when the reader goes away
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "ringline", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert len(head) == 100
    assert (proc.returncode, err.decode()) == (0, "")
