"""Analysis reports: assembly, JSON dictionaries, and text rendering.

The JSON schema is stable: a report always serializes to the keys
{code, profile, bounds, plans}; rationals become {num, den}; unbounded
caps and infinite locality become null.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundVerdict, evaluate_all
from .gf2 import LinearCode
from .planner import Query, QueryPlanner, ServingPlan
from .profiler import CodeProfile, LrcProfile, profile
from .search import SearchResult

__all__ = [
    "QueryOutcome",
    "AnalysisReport",
    "build_report",
    "report_to_dict",
    "plan_to_dict",
    "search_to_dict",
    "bounds_to_dicts",
    "render_report",
    "render_bounds",
    "render_plan",
    "render_search",
]


@dataclass(frozen=True)
class QueryOutcome:
    query: Query
    plan: ServingPlan | None


@dataclass(frozen=True)
class AnalysisReport:
    source: str
    profile: CodeProfile
    bounds: tuple[BoundVerdict, ...]
    plans: tuple[QueryOutcome, ...] = ()


def build_report(
    code: LinearCode,
    source: str,
    r_cap: int | None = None,
    queries: tuple[Query, ...] = (),
) -> AnalysisReport:
    # Reject a bad query before the profile, which can take minutes.
    for q in queries:
        q.check_within(code.k)
    prof = profile(code, r_cap)
    verdicts = tuple(evaluate_all(prof))
    # A fresh planner, not the one inside `profile`: a planner whose
    # lists are fully enumerated may pick a different valid plan (see
    # QueryPlanner.serve), and the reported plans are those of a cold one.
    planner = QueryPlanner(code, r_cap)
    outcomes = tuple(QueryOutcome(q, planner.serve(q)) for q in queries)
    return AnalysisReport(source, prof, verdicts, outcomes)


def _lrc_to_dict(lrc: LrcProfile | None) -> dict | None:
    if lrc is None:
        return None
    return {
        "cap": lrc.cap,
        "locality": lrc.locality,
        "availability": lrc.availability,
        "symbols": [
            {"index": s.index, "min_size": s.min_size, "packing": s.packing}
            for s in lrc.symbols
        ],
    }


def _profile_to_dict(prof: CodeProfile) -> dict:
    return {
        "n": prof.n,
        "k": prof.k,
        "d": prof.d,
        "rate": {"num": prof.rate.numerator, "den": prof.rate.denominator},
        "systematic": prof.systematic,
        "r_cap": prof.r_cap,
        "batch_t": prof.batch_t,
        "pir_t": prof.pir_t,
        "all_symbol": _lrc_to_dict(prof.all_symbol),
        "info_symbol": _lrc_to_dict(prof.info_symbol),
    }


def bounds_to_dicts(verdicts: tuple[BoundVerdict, ...] | list[BoundVerdict]) -> list[dict]:
    return [
        {
            "name": v.name,
            "kind": v.kind,
            "applicable": v.applicable,
            "rhs": v.rhs,
            "attained": v.attained,
            "reason": v.reason,
            "witness": v.witness,
        }
        for v in verdicts
    ]


def plan_to_dict(query: Query, plan: ServingPlan | None) -> dict:
    out: dict = {
        "query": list(query.indices),
        "servable": plan is not None,
    }
    if plan is None:
        out["assignments"] = None
    else:
        out["assignments"] = [
            {"position": pos, "columns": list(rs.columns)}
            for pos, rs in plan.assignments
        ]
    return out


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "code": {
            "source": report.source,
            "k": report.profile.k,
            "n": report.profile.n,
        },
        "profile": _profile_to_dict(report.profile),
        "bounds": bounds_to_dicts(report.bounds),
        "plans": [plan_to_dict(o.query, o.plan) for o in report.plans],
    }


def search_to_dict(result: SearchResult) -> dict:
    witness = None
    if result.witness is not None:
        gen = result.witness.generator
        witness = {
            "k": gen.k,
            "n": gen.n,
            "rows": [str(gen.row(i)) for i in range(1, gen.k + 1)],
        }
    return {
        "k": result.k,
        "t": result.t,
        "mode": result.mode,
        "r_cap": result.r_cap,
        "n_max": result.n_max,
        "optimal_n": result.optimal_n,
        "redundancy": result.redundancy,
        "witness": witness,
        "nodes_explored": result.nodes_explored,
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_bounds(verdicts) -> str:
    header = ("bound", "kind", "applicable", "rhs", "attained", "notes")
    rows = [header]
    for v in verdicts:
        notes = v.reason or ""
        if v.witness:
            at = ", ".join(f"{key}={val}" for key, val in v.witness.items())
            notes = f"at {at}" if not notes else f"{notes}; {at}"
        rows.append(
            (v.name, v.kind, _fmt(v.applicable), _fmt(v.rhs), _fmt(v.attained), notes)
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def _render_lrc(label: str, lrc: LrcProfile) -> str:
    cap = "unbounded" if lrc.cap is None else str(lrc.cap)
    loc = "infinite" if lrc.locality is None else str(lrc.locality)
    return (
        f"{label}: locality={loc} availability={lrc.availability} (cap={cap})"
    )


def render_plan(query: Query, plan: ServingPlan | None) -> str:
    if plan is None:
        return f"{query}: UNSERVABLE"
    return f"{query}: {plan}"


def render_report(report: AnalysisReport) -> str:
    p = report.profile
    lines = [
        f"source: {report.source}",
        f"[n={p.n}, k={p.k}, d={p.d}] rate={p.rate} "
        f"systematic={_fmt(p.systematic)} "
        f"r_cap={'unbounded' if p.r_cap is None else p.r_cap}",
        f"batch_t={p.batch_t} pir_t={p.pir_t}",
        _render_lrc("all-symbol", p.all_symbol),
    ]
    if p.info_symbol is not None:
        lines.append(_render_lrc("info-symbol", p.info_symbol))
    lines.append("")
    lines.append(render_bounds(report.bounds))
    if report.plans:
        lines.append("")
        lines.append("queries:")
        for outcome in report.plans:
            lines.append("  " + render_plan(outcome.query, outcome.plan))
    return "\n".join(lines) + "\n"


def render_search(result: SearchResult) -> str:
    lines = [
        f"k={result.k} t={result.t} mode={result.mode} "
        f"r_cap={'unbounded' if result.r_cap is None else result.r_cap}"
    ]
    if result.optimal_n is None:
        lines.append(
            f"not found: no code passes up to n_max={result.n_max} "
            f"({result.nodes_explored} candidates tested)"
        )
    else:
        lines.append(
            f"optimal n={result.optimal_n} (redundancy {result.redundancy}, "
            f"{result.nodes_explored} candidates tested)"
        )
        assert result.witness is not None
        lines.append("witness generator matrix:")
        gen = result.witness.generator
        for i in range(1, gen.k + 1):
            lines.append("  " + str(gen.row(i)))
    return "\n".join(lines) + "\n"
