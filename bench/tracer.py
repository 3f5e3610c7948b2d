"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed on the public functions of each ringline layer under
the name their callers look them up by (``ring.make_modulus`` and
``cli.make_modulus`` are wrapped separately), and removed again afterwards.
The program itself is not changed.

Three kinds of wrapper:

* span: a record (name, start, end, parent, op id) kept in memory and
  written out at the end;
* timed: the same timing and nesting, but only aggregated, for functions
  called millions of times (``pauli.multiply``);
* count: a call counter only, for the hottest leaves (``symplectic.form``),
  whose time stays in the caller's self time.

A call's self time is its duration minus the time its timed children cover;
it is aggregated per name as the calls return.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable

SPAN, TIMED, COUNT = "span", "timed", "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.calls: Counter = Counter()
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.covered_ns = 0  # time inside top-level timed calls
        self.op = None
        self._stack: list[list] = []  # [span index or -1, child_ns]
        self._undo: list[tuple[object, str, object]] = []
        self._counts: dict[str, list[int]] = {}  # cells of count wrappers

    def wrap(self, fn: Callable, name, kind: str) -> Callable:
        """Wrap fn; name is a string or a function of fn's arguments."""
        calls, stack = self.calls, self._stack
        if kind == COUNT:
            cell = self._counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        clock, spans, self_ns = time.perf_counter_ns, self.spans, self.self_ns

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = -1
            if kind == SPAN:
                index = len(spans)
                parent = stack[-1][0] if stack else -1
                spans.append([label, 0, 0, parent, self.op])
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[label] += 1
                self_ns[label] += duration - frame[1]
                if index >= 0:
                    spans[index][1], spans[index][2] = start, end
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_ns += duration
        return traced

    def patch(self, owner, attr: str, name, kind: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, kind))

    def run_span(self, name: str, body: Callable):
        """Run body() inside one span called name and return its result."""
        return self.wrap(body, name, SPAN)()

    def uninstall(self) -> None:
        """Restore every patched attribute and fold count cells into calls."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for name, cell in self._counts.items():
            self.calls[name] += cell[0]
        self._counts.clear()

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "self_ns": dict(self.self_ns), "covered_ns": self.covered_ns}

    def merge(self, dumped: dict, op) -> None:
        """Fold a tracer dump from another process into this one."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        self.calls.update(dumped["calls"])
        for name, ns in dumped["self_ns"].items():
            self.self_ns[name] += ns
        self.covered_ns += dumped["covered_ns"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def _check_name(prefix: str) -> Callable:
    return lambda m, *a, **k: f"oracle.{prefix}.d{m.d}"


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every traced ringline function; ``modules`` maps layer -> module."""
    ring, symplectic, projline = modules["ring"], modules["symplectic"], modules["projline"]
    pauli, oracle, cli = modules["pauli"], modules["oracle"], modules["cli"]
    p = tracer.patch
    p(ring, "make_modulus", "ring.make_modulus", SPAN)
    p(cli, "make_modulus", "ring.make_modulus", SPAN)
    p(symplectic, "perp_set", "symplectic.perp_set", SPAN)
    p(symplectic, "form", "symplectic.form", COUNT)
    for fn in ("enumerate_points", "_points_cached", "points_containing",
               "perp_as_point_union", "point_through", "neighbour_graph"):
        p(projline, fn, f"projline.{fn}", SPAN)
    for fn in ("is_distant", "index_set_K", "point_count_formula", "perp_size_formula"):
        p(projline, fn, f"projline.{fn}", TIMED)
    p(pauli, "multiply", "pauli.multiply", TIMED)
    p(pauli, "inverse", "pauli.inverse", COUNT)
    p(pauli, "to_matrix", "pauli.to_matrix", COUNT)
    p(pauli.GenPermMatrix, "__matmul__", "pauli.GenPermMatrix.matmul", TIMED)
    p(pauli, "group_closure_order", "pauli.group_closure_order", SPAN)
    for fn in ("commutes", "commuting_count"):
        p(pauli, fn, f"pauli.{fn}", TIMED)
    p(oracle, "verify_all", "oracle.verify_all", SPAN)
    p(oracle, "verify_theorem1", _check_name("theorem1"), SPAN)
    p(oracle, "verify_theorem2", _check_name("theorem2"), SPAN)
    p(oracle, "verify_witness_construction", _check_name("witness_construction"), SPAN)
    p(oracle, "verify_group", _check_name("group"), SPAN)
    p(oracle, "construct_witness", "oracle.construct_witness", COUNT)
    for cmd in ("factor", "perp", "points", "commute", "count", "graph", "verify"):
        p(cli, f"cmd_{cmd}", f"cli.cmd.{cmd}", SPAN)
