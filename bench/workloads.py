"""Inputs, cost guard and closed-form work counts for the ringline benchmark.

Every input a run can use comes from a fixed pool, committed in
``expected.json`` with the output digest the input produced at the seed
commit.  A run's ``--seed`` only chooses pool entries for each slot of a deck
and shuffles them, so every seed is checked byte for byte against the table.

Pools are produced by ``generate_pool``: each slot draws candidates from a
seeded random stream and the work-ceiling guard drops any candidate whose
predicted cost is above the workload's ceiling, so no seed can yield an input
that hangs (such as ``factor 2305843009213693951``).

This module imports nothing from ringline: the closed forms below are the
benchmark's own, so the counts it reports do not come from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter

WORKLOADS = ("verify-sweep", "cli-session", "line-queries")

# The pool the committed table was generated from.
POOL_SEED = 7084333

# Predicted work units (form evaluations, trial divisions, points scanned,
# members rendered) above which the guard rejects an input.
CEILING = {"verify-sweep": 20_000_000, "cli-session": 4_000_000, "line-queries": 1_000_000}

# Every check of the oracle at desk-scale moduli, each op under ~60 ms: on a
# shared machine a long op averages over bursts of interference, so only
# short ops have a steady best time.  d=18 is not square-free, so only
# theorem1 applies there; d=10 is square-free, so group runs its commutant
# sub-check, which d=8 skips.
SWEEP = (
    ("theorem1", 15), ("theorem1", 18), ("theorem1", 21),
    ("theorem2", 15), ("theorem2", 21),
    ("witness_construction", 10), ("witness_construction", 15),
    ("group", 8), ("group", 10),
)

HEAVY_D = (105, 210)
QUERY_D = (105, 210, 330)
LIGHT_MAX_D = 30
FACTOR_MAX = 10**10

# Slot -> (pool entries, picks per deck).  A deck has a fixed composition so
# that the latency mix, and with it each percentile, does not depend on the
# seed: cli-session is 70 light, 25 heavy and 5 out-of-scope requests per
# deck, 100 in all, so that its p90 has ten entries beyond it and falls in
# the middle of the nine perp requests at d=210, not at a cluster's edge.
CLI_SLOTS: dict[str, tuple[int, int]] = {
    "factor": (24, 15),
    "commute": (24, 10),
    "commute-matrix": (24, 9),
    "count": (24, 10),
    "count-brute": (24, 8),
    "perp-light": (24, 11),
    "verify": (3, 7),
    "out-of-scope": (24, 5),
}
for _d, _perp_picks in zip(HEAVY_D, (2, 3)):
    for _fmt in ("text", "json", "csv"):
        CLI_SLOTS[f"points:{_d}:{_fmt}"] = (1, 1)
        CLI_SLOTS[f"perp:{_d}:{_fmt}"] = (16, _perp_picks)
    for _fmt in ("dot", "json"):
        CLI_SLOTS[f"graph:{_d}:{_fmt}"] = (1, 1)

# Picks per modulus in one quarter of a line-queries deck (a deck is four
# quarters, 600 queries).  The O(d^2) perp queries are 18% of the stream; the
# shares put the median inside points_containing and p90 inside perp_set.
QUERY_PICKS = {
    "is_distant": 4, "commutes": 4, "commuting_count": 4, "index_set_K": 3,
    "point_count_formula": 2, "perp_size_formula": 2,
    "points_containing": 12, "point_through": 10,
    "perp_as_point_union": 3, "perp_set": 6,
}
QUERY_SLOTS = {f"{fn}:{d}": (32, 4 * n) for fn, n in QUERY_PICKS.items() for d in QUERY_D}

SLOTS = {
    "verify-sweep": {f"{c}:{d}": (1, 1) for c, d in SWEEP},
    "cli-session": CLI_SLOTS,
    "line-queries": QUERY_SLOTS,
}


# ---------------------------------------------------------------- closed forms

_FACTORS: dict[int, tuple[tuple[int, int], ...]] = {}


def factorize(d: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of d > 1 as (prime, multiplicity) pairs."""
    if d not in _FACTORS:
        out, n, p = [], d, 2
        while p * p <= n:
            if n % p == 0:
                m = 0
                while n % p == 0:
                    n //= p
                    m += 1
                out.append((p, m))
            p += 1 if p == 2 else 2
        if n > 1:
            out.append((n, 1))
        _FACTORS[d] = tuple(out)
    return _FACTORS[d]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_of(d: int) -> list[int]:
    return [p for p, _ in factorize(d)]


def square_free(d: int) -> bool:
    return all(m == 1 for _, m in factorize(d))


def trial_divisions(d: int) -> int:
    """Candidate divisors ``make_modulus`` tests while factoring d.

    It tries p = 2, 3, 4, ... while p*p <= n, dividing n as it goes.  With q
    the largest prime of d and r the next largest (1 if none), it stops after
    p = q when q**2 divides d, and otherwise after p = max(r, isqrt(q)).
    """
    if d < 2:
        return 0
    fs = factorize(d)
    q, mq = fs[-1]
    r = fs[-2][0] if len(fs) > 1 else 1
    last = q if mq >= 2 else max(r, math.isqrt(q))
    return last - 1


def line_size(d: int) -> int:
    """Points of the line over Z_d: d * prod (1 + 1/p), for any d."""
    n = 1
    for p, m in factorize(d):
        n *= p ** (m - 1) * (p + 1)
    return n


def vanishing_primes(v, d: int) -> list[int]:
    """The primes of a square-free d at which both coordinates of v vanish."""
    return [p for p in primes_of(d) if v[0] % p == 0 and v[1] % p == 0]


def points_through(v, d: int) -> int:
    return math.prod(p + 1 for p in vanishing_primes(v, d))


def perp_size(v, d: int) -> int:
    """|perp(v)| = d * prod_{p in K} p; for d that is not square-free, d^2 bounds it."""
    if not square_free(d):
        return d * d
    return d * math.prod(vanishing_primes(v, d))


def witness_pairs(d: int) -> int:
    """Sum over v of |perp(v)| for square-free d: d * prod (p^2 + p - 1).

    Locally at p, the p^2 - 1 vectors off (0, 0) contribute 1 and (0, 0)
    contributes p, and the sum is multiplicative over the primes.
    """
    return d * math.prod(p * p + p - 1 for p in primes_of(d))


def canonical_generator(v, d: int) -> tuple[int, int]:
    """Lexicographically smallest admissible member of the orbit Z_d * v."""
    return min(
        (t * v[0] % d, t * v[1] % d)
        for t in range(d)
        if math.gcd(t * v[0], t * v[1], d) == 1
    )


# ------------------------------------------------------------- predicted cost

def verify_cost(check: str, d: int) -> int:
    n = d * d
    if check in ("theorem1", "theorem2"):
        return n * (n + line_size(d))
    if check == "witness_construction":
        return n * n + witness_pairs(d)
    return 8 * n * n  # group: closure, normal forms, centre, commutators, commutants


def cli_cost(argv: list[str]) -> int:
    cmd, flags = argv[0], {a for a in argv if a.startswith("--")}
    try:
        d = int(argv[1])
    except (IndexError, ValueError):
        return 1
    if d < 2:
        return 1
    ints = [int(a) for a in argv[2:] if a.lstrip("-").isdigit()]
    if cmd == "factor":
        return math.isqrt(d) + 1
    if cmd == "commute":
        return 4 * d if "--matrix" in flags else 1
    if cmd == "count":
        return d * d if "--brute" in flags else 1
    if cmd == "perp":
        v = (ints[0] % d, ints[1] % d)
        rendered = perp_size(v, d) * (1 + points_through(v, d)) if square_free(d) else d * d
        return d * d + 2 * line_size(d) + rendered
    if cmd == "points":
        return d * d + line_size(d) * d
    if cmd == "graph":
        return line_size(d) ** 2
    if cmd == "verify":
        checks = ["theorem1"]
        if square_free(d):
            checks += ["theorem2", "witness_construction"]
        if d <= 32:
            checks.append("group")
        return sum(verify_cost(c, d) for c in checks)
    return 1


def query_cost(fn: str, d: int, args: list) -> int:
    if fn == "points_containing":
        return line_size(d)
    if fn == "point_through":
        return 2 * d
    if fn == "perp_set":
        return d * d
    if fn == "perp_as_point_union":
        v = args[0]
        return line_size(d) + perp_size(v, d) * points_through(v, d)
    return 1 + len(primes_of(d))


def predicted_cost(workload: str, op: dict) -> int:
    if workload == "verify-sweep":
        return verify_cost(op["check"], op["d"])
    if workload == "cli-session":
        return cli_cost(op["argv"])
    return query_cost(op["fn"], op["d"], op["args"])


def admit(workload: str, op: dict) -> bool:
    """The work-ceiling guard: True iff the op's predicted cost is in bounds."""
    return predicted_cost(workload, op) <= CEILING[workload]


# ------------------------------------------------------------------ generator

def _vec(rng: random.Random, d: int) -> list[int]:
    return [rng.randrange(d), rng.randrange(d)]


def _admissible(rng: random.Random, d: int) -> list[int]:
    while True:
        v = _vec(rng, d)
        if math.gcd(v[0], v[1], d) == 1:
            return v


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("text", "json", "csv"))]


def _light_d(rng: random.Random, want_square_free: bool | None = None) -> int:
    while True:
        d = rng.randint(2, LIGHT_MAX_D)
        if want_square_free is None or square_free(d) == want_square_free:
            return d


def _factor_d(rng: random.Random) -> int:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(2, 10**4)
    d = int(math.exp(rng.uniform(math.log(10**4), math.log(FACTOR_MAX))))
    if kind == 2:  # a prime, the slowest input for trial division
        while not is_prime(d):
            d -= 1
    return d


def _draw_cli(slot: str, rng: random.Random) -> list[str]:
    kind = slot.split(":")[0]
    if kind == "factor":
        return ["factor", str(_factor_d(rng)), *_fmt(rng)]
    if kind in ("commute", "commute-matrix"):
        d = _light_d(rng)
        ops = [str(rng.randrange(-d, 2 * d)) for _ in range(6)]
        extra = ["--matrix", "--pretty"] if kind == "commute-matrix" else []
        return ["commute", str(d), *ops, *extra, *_fmt(rng)]
    if kind in ("count", "count-brute"):
        d = _light_d(rng, want_square_free=True)
        extra = ["--brute"] if kind == "count-brute" else []
        return ["count", str(d), *map(str, _vec(rng, d)), *extra, *_fmt(rng)]
    if kind == "perp-light":
        d = _light_d(rng)
        return ["perp", str(d), *map(str, _vec(rng, d)), *_fmt(rng)]
    if kind == "verify":
        return ["verify", "6", "--format", ("text", "json", "csv")[rng.randrange(3)]]
    if kind == "out-of-scope":
        which = rng.randrange(4)
        if which == 0:  # the commutant formula needs square-free d
            d = _light_d(rng, want_square_free=False)
            return ["count", str(d), *map(str, _vec(rng, d)), *_fmt(rng)]
        if which == 1:  # --brute is bounded to d <= 32
            d = rng.choice([n for n in range(33, 100) if square_free(n)])
            return ["count", str(d), *map(str, _vec(rng, d)), "--brute", *_fmt(rng)]
        if which == 2:  # not a modulus
            return ["factor", str(rng.randint(-9, 1)), *_fmt(rng)]
        return ["graph", str(_light_d(rng)), "--format", "text"]  # usage error
    _, d, fmt = slot.split(":")
    if kind == "perp":  # admissible, so the output size does not depend on the seed
        return ["perp", d, *map(str, _admissible(rng, int(d))), "--format", fmt]
    return [kind, d, "--format", fmt]


def _draw_query(slot: str, rng: random.Random) -> dict:
    fn, d = slot.split(":")
    d = int(d)
    if fn == "is_distant":
        args = [list(canonical_generator(_admissible(rng, d), d)) for _ in range(2)]
    elif fn == "commutes":
        args = [[rng.randrange(d) for _ in range(3)] for _ in range(2)]
    elif fn == "commuting_count":
        args = [[rng.randrange(d) for _ in range(3)]]
    elif fn == "point_through":
        args = [_admissible(rng, d)]
    else:
        args = [_vec(rng, d)]
    return {"fn": fn, "d": d, "args": args}


def _draw(workload: str, slot: str, rng: random.Random) -> dict:
    if workload == "verify-sweep":
        check, d = slot.split(":")
        return {"check": check, "d": int(d)}
    if workload == "cli-session":
        return {"argv": _draw_cli(slot, rng)}
    return _draw_query(slot, rng)


def op_key(workload: str, op: dict) -> str:
    if workload == "verify-sweep":
        return f"{op['check']} d={op['d']}"
    if workload == "cli-session":
        return " ".join(op["argv"])
    return f"{op['fn']} d={op['d']} {json.dumps(op['args'], separators=(',', ':'))}"


def generate_pool(workload: str, seed: int = POOL_SEED) -> list[dict]:
    """Seeded pool of guarded inputs: [{"slot", "key", "op", "cost"}, ...]."""
    rng = random.Random(f"pool:{workload}:{seed}")
    pool = []
    for slot, (size, _) in SLOTS[workload].items():
        taken, rejected = 0, 0
        while taken < size:
            op = _draw(workload, slot, rng)
            if not admit(workload, op):
                rejected += 1
                if rejected > 1000:
                    raise RuntimeError(f"slot {slot} cannot draw inputs under the ceiling")
                continue
            pool.append({"slot": slot, "key": op_key(workload, op), "op": op,
                         "cost": predicted_cost(workload, op)})
            taken += 1
    return pool


def make_deck(workload: str, seed: int, pool: list[dict]) -> list[dict]:
    """The run's op sequence: a fixed number of picks per slot, chosen and
    shuffled by the seed."""
    rng = random.Random(f"deck:{workload}:{seed}")
    by_slot: dict[str, list[dict]] = {}
    for entry in pool:
        by_slot.setdefault(entry["slot"], []).append(entry)
    deck = []
    for slot, (_, picks) in SLOTS[workload].items():
        deck.extend(rng.choice(by_slot[slot]) for _ in range(picks))
    rng.shuffle(deck)
    return deck


# --------------------------------------------------------------- work counts

def work_counts(workload: str, entry: dict) -> Counter:
    """Work one op does by its contract, from the closed forms alone.

    pairs: form evaluations made through perp_set (d^2 per call);
    witness_pairs: (v, w) pairs given to construct_witness;
    group_products: four-fold commutator products (3 multiply + 1 inverse);
    points_scanned / points_matched: point-membership tests and their hits;
    trial_divisions: candidate divisors tried by make_modulus.
    """
    op, c = entry["op"], Counter()
    if workload == "verify-sweep":
        d, check = op["d"], op["check"]
        if check in ("theorem1", "theorem2", "witness_construction"):
            c["pairs"] = d**4
        if check in ("theorem1", "theorem2"):
            c["points_scanned"] = d * d * line_size(d)
            c["points_matched"] = d * line_size(d)
        if check == "witness_construction":
            c["witness_pairs"] = witness_pairs(d)
        if check == "group":
            c["group_products"] = d**4
        return c
    if workload == "line-queries":
        fn, d, args = op["fn"], op["d"], op["args"]
        if fn == "perp_set":
            c["pairs"] = d * d
        if fn in ("points_containing", "perp_as_point_union"):
            c["points_scanned"] = line_size(d)
            c["points_matched"] = points_through(args[0], d)
        return c
    argv = op["argv"]
    try:
        d = int(argv[1])
    except ValueError:
        return c
    if d < 2 or (argv[0] == "graph" and "text" in argv):
        return c
    c["trial_divisions"] = trial_divisions(d)
    if argv[0] == "perp":
        v = (int(argv[2]) % d, int(argv[3]) % d)
        c["pairs"] = d * d
        if square_free(d):
            c["points_scanned"] = 2 * line_size(d)
            c["points_matched"] = 2 * points_through(v, d)
    elif argv[0] == "verify":
        for check in ("theorem1", "theorem2", "witness_construction", "group"):
            c += work_counts("verify-sweep", {"op": {"check": check, "d": d}})
    return c


def digest(obj) -> str:
    """sha256 of bytes, or of the compact JSON of any other value."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()
