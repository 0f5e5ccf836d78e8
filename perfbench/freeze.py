"""Regenerate data/frozen.json, the reference values the benchmark checks.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted; the benchmark exists
to show that later commits reproduce these values byte for byte. It
takes several minutes, most of them in the simplex(5), r=2, t=16 sweep.

What it records, and what backs each value:
- corpus_profiles: the analyze profile of every corpus code at r_cap
  none, 2 and 3. The uncapped (n, k, d, batch_t, pir_t) must equal the
  table frozen in tests/test_profiler.py, and d the brute-force oracle.
- unservable: for each small code of the serve workload, every query of
  size batch_t + 1 that the brute-force oracle cannot serve.
- search: optimal_n and witness rows for the search grid; witnesses
  with n <= 10 must pass the brute-force oracle.
- digests: the sha256 of round 0's outputs for the default seed.
It also confirms, by full servable_all sweeps, that every serve query
within the workload's stated batch_t limit is servable.
"""

from __future__ import annotations

import json
import sys
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

import run
from calibrate import Calibration


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"freeze: check failed: {what}")


def main() -> int:
    if not run.use_sources():
        return 2
    import oracles
    import workloads as wl
    from batchcodes import QueryPlanner, build_report, min_length, report_to_dict
    from test_profiler import CORPUS_PARAMETERS

    frozen: dict = {}

    profiles = {}
    for name in wl.CORPUS:
        code = wl.build_code(name)
        by_cap = {}
        for r in wl.CAPS:
            by_cap[wl.cap_key(r)] = report_to_dict(build_report(code, name, r))["profile"]
        p = by_cap["none"]
        got = (p["n"], p["k"], p["d"], p["batch_t"], p["pir_t"], p["systematic"])
        require(got == CORPUS_PARAMETERS[name], (name, got))
        require(p["d"] == oracles.brute_min_distance(code), name)
        profiles[name] = by_cap
    frozen["corpus_profiles"] = profiles

    unservable = {}
    for name in wl.UNSERVABLE_CODES:
        code = wl.build_code(name)
        sums = oracles.subset_sum_table(code)
        t = profiles[name]["none"]["batch_t"] + 1
        unservable[name] = [
            list(q)
            for q in combinations_with_replacement(range(1, code.k + 1), t)
            if not oracles.brute_plan_exists(code, q, None, sums)
        ]
        require(bool(unservable[name]), name)
    frozen["unservable"] = unservable

    for name, r, _, limit in wl.SERVE_PLANNERS:
        ok, witness = QueryPlanner(wl.build_code(name), r).servable_all(limit)
        require(ok, (name, r, witness))

    table = {}
    for k, t, mode, r in wl.SEARCH_GRID:
        res = min_length(k, t, mode, r)
        rows = None
        if res.witness is not None:
            gen = res.witness.generator
            rows = [str(gen.row(i)) for i in range(1, gen.k + 1)]
            if res.optimal_n <= wl.WITNESS_ORACLE_MAX_N:
                require(wl.witness_passes(rows, k, t, mode, r), (k, t, mode, r))
        table[wl.search_key(k, t, mode, r)] = {"optimal_n": res.optimal_n, "rows": rows}
    frozen["search"] = table

    wl.FROZEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")

    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name in run.WORKLOAD_NAMES:
            workdir = Path(tmp) / name
            workdir.mkdir()
            workload = wl.WORKLOADS[name](wl.DEFAULT_SEED, workdir)
            res, _, _ = run.run_rounds(workload, 0.0, None, Calibration())
            require(res.failed == 0, (name, res.errors))
            digests[name] = res.digest.hexdigest()
    frozen["digests"] = digests
    wl.FROZEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
