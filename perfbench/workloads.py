"""The four benchmark workloads: seeded inputs, the operation each one
times, and the check applied to every result.

Every workload hands the library only inputs generated here from the
seed. Work comes in rounds: each round holds a fixed number of
operations per stratum (code, cap and query size), drawn afresh from
the seed and shuffled, so every round has the same mix of costs and a
run of whole rounds measures the same mix on every seed. Round 0 is
generated during set-up and is the window the traced run counts.

Checks run outside the timed region and use references that share no
code with the engines: `plan_is_valid` for every plan, the brute-force
oracles of `tests/oracles.py` for negative answers, and the frozen
values in `data/frozen.json` (see `freeze.py`).

Why each workload exists:
- analyze: the only workload that runs cli, report, bounds and the
  profiler, and the only one that enumerates the same recovery sets
  twice inside one operation.
- serve: long-lived planners, warmed in set-up, so the planner
  backtrack does nearly all the work and no enumeration runs in the
  timed phase; a recovery-layer change must leave it flat. A tenth of
  its queries are unservable, which shows a planner that finds plans
  faster but proves "none" slower.
- search: thousands of fresh tiny codes with no reuse between calls;
  recovery DFS and packing dominate, and the batch sweep runs only for
  candidates that pass the packing filter.
- distance: the only workload where the GF(2) codeword loop matters;
  everywhere else k <= 9 and distance takes microseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

import batchcodes
import oracles
from batchcodes import (
    BitMatrix,
    BitVector,
    LinearCode,
    Query,
    QueryPlanner,
    RecoverySet,
    ServingPlan,
    cli,
    format_matrix,
    plan_is_valid,
)

FROZEN_PATH = Path(__file__).resolve().parent / "data" / "frozen.json"
DEFAULT_SEED = 0

# The named codes of tests/conftest.py::build_corpus.
CORPUS = (
    "identity(2)",
    "identity(3)",
    "identity(4)",
    "subcube(2,1)",
    "subcube(3,1)",
    "subcube(2,2)",
    "simplex(2)",
    "simplex(3)",
    "simplex(4)",
    "triplicated_parity(3)",
    "triplicated_parity(4)",
    "triplicated_parity(5)",
    "blockwise_subcube_allones(1)",
    "blockwise_subcube_allones(2)",
    "blockwise_subcube_allones(3)",
    "paired_parity(2)",
    "paired_parity(3)",
    "paired_parity(4)",
    "paired_parity(5)",
    "paired_parity(6)",
)
CAPS = (None, 2, 3)
RANDOM_PER_CELL = 3


class CheckFailed(Exception):
    """An operation returned a wrong or unconfirmed answer."""


@dataclass(frozen=True)
class Op:
    """One timed operation.

    `prepare` does untimed per-op work and returns the thunk to time;
    `check` validates the thunk's result and returns its canonical bytes
    for the output digest, raising CheckFailed on a wrong answer.
    """

    stratum: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], bytes]
    key: object = None


def build_code(name: str) -> LinearCode:
    """Construct a family code from its display name, e.g. "subcube(2,3)"."""
    family, _, rest = name.partition("(")
    args = tuple(int(a) for a in rest.rstrip(")").split(","))
    return getattr(batchcodes, family)(*args)


def cap_key(r: int | None) -> str:
    return "none" if r is None else str(r)


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def random_query(rng: random.Random, k: int, t: int) -> Query:
    return Query(tuple(rng.randint(1, k) for _ in range(t)))


def random_systematic(rng: random.Random, k: int, n: int) -> LinearCode:
    """[I | A] with uniformly random parity columns (zero allowed)."""
    words = []
    for i in range(k):
        word = 1 << i
        for j in range(k, n):
            word |= rng.getrandbits(1) << j
        words.append(word)
    return LinearCode(BitMatrix(n, tuple(words)))


def plan_from_dict(k: int, query: Query, assignments: list[dict]) -> ServingPlan:
    return ServingPlan(
        tuple(
            (
                a["position"],
                RecoverySet(
                    BitVector.unit(k, query.indices[a["position"] - 1]),
                    tuple(a["columns"]),
                ),
            )
            for a in assignments
        )
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class _Rounds:
    """Shared round bookkeeping: round 0 is generated in set-up."""

    # Whole rounds a run times at least, whatever --seconds says.
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.frozen = load_frozen()
        self._first: list[Op] | None = None

    def round(self, i: int) -> list[Op]:
        if i == 0 and self._first is not None:
            ops, self._first = self._first, None
            return ops
        rng = random.Random(f"{type(self).__name__}:{self.seed}:{i}")
        ops = self._make_round(i, rng)
        rng.shuffle(ops)
        return ops

    def _ready(self) -> None:
        self._first = self.round(0)

    def _make_round(self, i: int, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def recover(self, op: Op) -> None:
        """Restore state after an op the guard interrupted."""


class Analyze(_Rounds):
    """`batchcodes analyze FILE --json` in-process, stdout captured.

    Part (a): the 20 corpus codes at r_cap none, 2 and 3, each with two
    --query values of size at most the frozen batch_t. Part (b):
    RANDOM_PER_CELL random systematic codes per (k, n, r_cap) with k in
    4..7 and n in k+2..2k+3, which keeps recovery enumeration a large
    share. With one code per cell, p90 fell in a gap between the costs
    of a few codes and moved with the seed's draw; with three it falls
    among many random codes of similar cost.
    """

    guard_s = 30.0
    # A round takes 7 to 12 s as the host's speed varies, so a 20 s run
    # would time two rounds on a slow host and three on a fast one, and
    # p90 over 660 ops moved more than over 990.
    min_rounds = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.workdir = workdir
        self.profiles = self.frozen["corpus_profiles"]
        self.corpus = [(name, build_code(name), workdir / f"{name}.txt") for name in CORPUS]
        self._ready()

    def _make_round(self, i: int, rng: random.Random) -> list[Op]:
        ops = []
        for name, code, path in self.corpus:
            for r in CAPS:
                expected = self.profiles[name][cap_key(r)]
                bt = expected["batch_t"]
                queries = (
                    [random_query(rng, code.k, rng.randint(1, bt)) for _ in range(2)]
                    if bt
                    else []
                )
                ops.append(self._op(f"corpus/{name}/r{cap_key(r)}", code, path, r, queries, expected))
        for k in range(4, 8):
            for n in range(k + 2, 2 * k + 4):
                for r in CAPS:
                    for j in range(RANDOM_PER_CELL):
                        code = random_systematic(rng, k, n)
                        path = self.workdir / f"round{i}-k{k}-n{n}-r{cap_key(r)}-{j}.txt"
                        ops.append(self._op(f"random/k{k}/n{n}/r{cap_key(r)}", code, path, r, [], None))
        return ops

    def _op(self, stratum, code, path, r, queries, expected) -> Op:
        argv = ["analyze", str(path), "--json"]
        if r is not None:
            argv += ["--r-cap", str(r)]
        for q in queries:
            argv += ["--query", str(q)]
        matrix = format_matrix(code.generator)

        def prepare():
            # Files are written just before use, outside set-up and the
            # timed call, so that disk latency on a shared host is in neither.
            if not path.exists():
                path.write_text(matrix)
            return lambda: run_cli(argv)

        def check(result) -> bytes:
            rc, text = result
            if rc != 0:
                raise CheckFailed(f"analyze exited {rc}")
            report = json.loads(text)
            prof = report["profile"]
            if expected is not None:
                if prof != expected:
                    raise CheckFailed("profile differs from the frozen value")
            else:
                d = oracles.brute_min_distance(code)
                if (prof["n"], prof["k"], prof["d"]) != (code.n, code.k, d):
                    raise CheckFailed("n, k or d differs from the oracle")
                if not prof["batch_t"] <= prof["pir_t"] <= d:
                    raise CheckFailed("batch_t <= pir_t <= d violated")
            if [p["query"] for p in report["plans"]] != [list(q.indices) for q in queries]:
                raise CheckFailed("plans do not answer the queries asked")
            for q, p in zip(queries, report["plans"]):
                if not p["servable"]:
                    raise CheckFailed(f"query {q} within batch_t left unserved")
                if not plan_is_valid(code, q, plan_from_dict(code.k, q, p["assignments"]), r):
                    raise CheckFailed(f"invalid plan for {q}")
            return text.replace(str(path), path.name).encode()

        return Op(stratum, prepare, check)


# (code, r, strata, every query of size <= this is servable); a stratum is
# (smallest t, largest t, queries per round), t drawn uniformly. The last
# column was established by full servable_all sweeps (freeze.py).
# A round holds 121 queries. The median falls among the quick queries,
# whose costs lie close together, and the hard simplex(4) and simplex(5)
# searches set p90 and most of the run's time. simplex(5) t=16 queries
# range from 1 ms to over 0.5 s, so they stay at one a round: a larger
# share would make ops_per_s depend on which of them the seed drew.
SERVE_PLANNERS = (
    ("simplex(4)", None, ((6, 6, 4), (7, 7, 16), (8, 8, 16)), 8),
    ("simplex(5)", 2, ((12, 14, 12), (15, 15, 8), (16, 16, 1)), 16),
    ("subcube(2,3)", 3, ((1, 7, 32),), 7),
    ("subcube(3,2)", None, ((1, 4, 8),), 4),
    ("triplicated_parity(5)", None, ((1, 3, 12),), 3),
)
# Uncapped codes with n <= 12; their unservable queries at t = batch_t + 1
# were listed by the brute-force oracle (freeze.py).
UNSERVABLE_CODES = (
    "simplex(3)",
    "subcube(2,2)",
    "triplicated_parity(3)",
    "triplicated_parity(4)",
    "blockwise_subcube_allones(3)",
    "paired_parity(6)",
)
UNSERVABLE_PER_ROUND = 12
ORACLE_MAX_N = 12


class Serve(_Rounds):
    """`QueryPlanner.serve(q)` on long-lived planners, one per (code, r),
    warmed until every candidate list is complete."""

    guard_s = 10.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.codes: dict[str, LinearCode] = {}
        self.limits: dict[tuple[str, int | None], int] = {}
        self.planners: dict[tuple[str, int | None], QueryPlanner] = {}
        for name, r, _, limit in SERVE_PLANNERS:
            self._add_planner(name, r, limit)
        self.unservable = []
        for name in UNSERVABLE_CODES:
            self._add_planner(name, None, self.frozen["corpus_profiles"][name]["none"]["batch_t"])
            self.unservable += [(name, Query(tuple(q))) for q in self.frozen["unservable"][name]]
        self._sums: dict[str, list[int]] = {}
        self._verdicts: dict[tuple[str, Query], bool] = {}
        self._ready()

    def _add_planner(self, name: str, r: int | None, limit: int) -> None:
        code = self.codes.setdefault(name, build_code(name))
        self.limits[(name, r)] = limit
        self.planners[(name, r)] = self._warm(code, r)

    @staticmethod
    def _warm(code: LinearCode, r: int | None) -> QueryPlanner:
        planner = QueryPlanner(code, r)
        for symbol in range(1, code.k + 1):
            planner.candidates(symbol)
        return planner

    def recover(self, op: Op) -> None:
        name, r = op.key
        self.planners[(name, r)] = self._warm(self.codes[name], r)

    def _make_round(self, i: int, rng: random.Random) -> list[Op]:
        ops = []
        for name, r, strata, _ in SERVE_PLANNERS:
            k = self.codes[name].k
            for lo, hi, count in strata:
                label = f"{name}/r{cap_key(r)}/t{lo}" + (f"-{hi}" if hi > lo else "")
                for _ in range(count):
                    q = random_query(rng, k, rng.randint(lo, hi))
                    ops.append(self._op(name, r, q, label))
        for _ in range(UNSERVABLE_PER_ROUND):
            name, q = rng.choice(self.unservable)
            ops.append(self._op(name, None, q, "unservable"))
        return ops

    def _op(self, name: str, r: int | None, q: Query, stratum: str) -> Op:
        key = (name, r)
        code = self.codes[name]

        def prepare():
            planner = self.planners[key]
            return lambda: planner.serve(q)

        def check(plan) -> bytes:
            if plan is not None:
                if not plan_is_valid(code, q, plan, r):
                    raise CheckFailed(f"invalid plan for {q} on {name}")
            elif q.t <= self.limits[key]:
                raise CheckFailed(f"{q} on {name} left unserved within batch_t")
            elif not self._oracle_unservable(name, q, r):
                raise CheckFailed(f"{q} on {name} unserved but the oracle finds a plan")
            return f"{name}/{cap_key(r)}:{q}:{plan}".encode()

        return Op(stratum, prepare, check, key)

    def _oracle_unservable(self, name: str, q: Query, r: int | None) -> bool:
        code = self.codes[name]
        if code.n > ORACLE_MAX_N:
            return False
        verdict = self._verdicts.get((name, q))
        if verdict is None:
            if name not in self._sums:
                self._sums[name] = oracles.subset_sum_table(code)
            verdict = not oracles.brute_plan_exists(code, q.indices, r, self._sums[name])
            self._verdicts[(name, q)] = verdict
        return verdict


SEARCH_GRID = tuple(
    (k, t, mode, r)
    for k in (2, 3, 4)
    for t in (1, 2, 3, 4)
    for mode in ("batch", "pir")
    for r in (None, 2)
)
WITNESS_ORACLE_MAX_N = 10


def search_key(k: int, t: int, mode: str, r: int | None) -> str:
    return f"{k},{t},{mode},{cap_key(r)}"


class Search(_Rounds):
    """`batchcodes search --k K --t T --mode M [--r-cap R] --json`
    in-process over the whole grid; the seed sets the order."""

    guard_s = 30.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.table = self.frozen["search"]
        self._witness_ok: dict[str, bool] = {}
        self._ready()

    def _make_round(self, i: int, rng: random.Random) -> list[Op]:
        return [self._op(*cell) for cell in SEARCH_GRID]

    def _op(self, k: int, t: int, mode: str, r: int | None) -> Op:
        key = search_key(k, t, mode, r)
        argv = ["search", "--k", str(k), "--t", str(t), "--mode", mode]
        if r is not None:
            argv += ["--r-cap", str(r)]
        argv.append("--json")
        expected = self.table[key]

        def check(result) -> bytes:
            rc, text = result
            out = json.loads(text)
            rows = out["witness"]["rows"] if out["witness"] else None
            if (out["optimal_n"], rows) != (expected["optimal_n"], expected["rows"]):
                raise CheckFailed(f"search {key} differs from the frozen table")
            if rc != (0 if rows else 1):
                raise CheckFailed(f"search {key} exited {rc}")
            if rows and not self._witness_passes(key, rows, k, t, mode, r):
                raise CheckFailed(f"witness for {key} fails the oracle")
            return text.encode()

        return Op(key, lambda: lambda: run_cli(argv), check)

    def _witness_passes(self, key, rows, k, t, mode, r) -> bool:
        if len(rows[0]) > WITNESS_ORACLE_MAX_N:
            return True
        if key not in self._witness_ok:
            self._witness_ok[key] = witness_passes(rows, k, t, mode, r)
        return self._witness_ok[key]


def witness_passes(rows: list[str], k: int, t: int, mode: str, r: int | None) -> bool:
    """Brute-force check that a search witness serves every size-t query
    (batch) or every uniform size-t query (pir)."""
    code = LinearCode.from_rows([[int(b) for b in row] for row in rows])
    sums = oracles.subset_sum_table(code)
    if mode == "pir":
        queries = [(i,) * t for i in range(1, k + 1)]
    else:
        queries = combinations_with_replacement(range(1, k + 1), t)
    return all(oracles.brute_plan_exists(code, q, r, sums) for q in queries)


# (family code, closed-form minimum distance); k runs 14..18.
DISTANCE_CODES = (
    *((f"triplicated_parity({k})", 3) for k in range(14, 19)),
    *((f"paired_parity({k})", 2) for k in range(14, 19)),
    *((f"blockwise_subcube_allones({kappa})", 2) for kappa in (7, 8, 9)),
    ("subcube(4,2)", 4),
    ("subcube(2,4)", 16),
)


class Distance(_Rounds):
    """`min_distance()` on a fresh LinearCode per op (instances cache d).

    Each op disguises its code with a seeded invertible row transform and
    a seeded column permutation, which leave every codeword weight as it
    was.
    """

    guard_s = 10.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.bases = [
            (name, d, build_code(name).generator) for name, d in DISTANCE_CODES
        ]
        self._ready()

    def _make_round(self, i: int, rng: random.Random) -> list[Op]:
        return [self._op(name, d, disguise(rng, g)) for name, d, g in self.bases]

    def _op(self, name: str, d: int, matrix: BitMatrix) -> Op:
        def prepare():
            code = LinearCode(matrix)
            return code.min_distance

        def check(got) -> bytes:
            if got != d:
                raise CheckFailed(f"{name}: distance {got}, expected {d}")
            return f"{name}:{got}".encode()

        return Op(name, prepare, check)


def disguise(rng: random.Random, g: BitMatrix) -> BitMatrix:
    rows = list(g.row_words)
    k, n = len(rows), g.n
    for _ in range(4 * k):
        i, j = rng.sample(range(k), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    perm = rng.sample(range(n), n)
    permuted = []
    for word in rows:
        out = 0
        for j in range(n):
            if word >> j & 1:
                out |= 1 << perm[j]
        permuted.append(out)
    return BitMatrix(n, tuple(permuted))


WORKLOADS = {
    "analyze": Analyze,
    "serve": Serve,
    "search": Search,
    "distance": Distance,
}
