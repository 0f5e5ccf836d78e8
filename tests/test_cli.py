"""Command-line interface: subcommands, exit codes, and JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batchcodes.report as report_module
from batchcodes import Query, QueryPlanner, format_matrix, simplex, subcube
from batchcodes.cli import _emit_json, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def child_env():
    """The environment with this checkout's src first on PYTHONPATH, for
    a child interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run(capsys, argv, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_dumps(out: str) -> str:
    """`out` as `print(json.dumps(value, indent=2))` prints the value it
    holds."""
    return json.dumps(json.loads(out), indent=2) + "\n"


@pytest.fixture
def subcube_file(tmp_path):
    path = tmp_path / "subcube21.txt"
    path.write_text(format_matrix(subcube(2, 1).generator))
    return str(path)


def emitted(value) -> str:
    """What `_emit_json(value)` prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_json(value)
    return buf.getvalue()


# JSON values as the writer takes them: str keys, lists and tuples,
# strings with non-ASCII, control and lone surrogate characters, ints
# past 64 bits of either sign, bools and None.
any_text = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | any_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    @settings(max_examples=300)
    @given(json_values)
    @example({"": [{}, [], (), ""]})
    @example("\x00\x1f\"\\/\u00e9\ud800\U0001f600")
    @example([-(2**70), True, False, None, 0])
    def test_matches_json_dumps(self, value):
        assert emitted(value) == json.dumps(value, indent=2) + "\n"

    def test_rejects_other_types(self):
        for value in (1.5, {1, 2}, b"x", {"a": [1, object()]}, {1: 2}):
            with pytest.raises(TypeError):
                emitted(value)


class TestConstruct:
    def test_emits_matrix(self, capsys):
        code, out, err = run(capsys, ["construct", "subcube", "--ell", "2", "--m", "1"])
        assert code == 0
        assert out == "2 3\n101\n011\n"

    def test_missing_parameter(self, capsys):
        code, out, err = run(capsys, ["construct", "subcube", "--ell", "2"])
        assert code == 2
        assert (out, err) == ("", "error: subcube requires --ell and --m\n")

    def test_unknown_family(self, capsys):
        code, out, err = run(capsys, ["construct", "hamming", "--k", "3"])
        assert code == 2

    def test_invalid_parameter_value(self, capsys):
        code, out, err = run(capsys, ["construct", "simplex", "--m", "1"])
        assert code == 2
        assert err.startswith("error:")

    def test_all_families(self, capsys):
        for argv in (
            ["construct", "identity", "--k", "3"],
            ["construct", "simplex", "--m", "3"],
            ["construct", "triplicated-parity", "--k", "3"],
            ["construct", "blockwise-subcube-allones", "--kappa", "2"],
            ["construct", "paired-parity", "--k", "4"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 0 and out[0].isdigit(), argv


class TestAnalyze:
    def test_text_report(self, capsys, subcube_file):
        code, out, err = run(capsys, ["analyze", subcube_file])
        assert code == 0
        assert "[n=3, k=2, d=2]" in out
        assert "batch_t=2 pir_t=2" in out
        assert "singleton" in out

    def test_json_matches_golden(self, capsys):
        text = format_matrix(simplex(3).generator)
        code, out, err = run(
            capsys,
            ["analyze", "-", "--r-cap", "2", "--query", "1,1,2,2", "--json"],
            stdin_text=text,
        )
        assert code == 0
        # Bytes, not parsed values: a change of whitespace or escaping in
        # the JSON writer must fail here.
        assert out == (GOLDEN / "simplex3_r2.json").read_text()

    def test_plans_come_from_a_fresh_planner(self, capsys):
        simplex4 = simplex(4)
        query = Query.parse("3,3,4,4")
        code, out, err = run(
            capsys,
            ["analyze", "-", "--query", str(query), "--json"],
            stdin_text=format_matrix(simplex4.generator),
        )
        assert code == 0
        (plan,) = json.loads(out)["plans"]
        got = "; ".join(
            f"T{a['position']}={{{','.join(map(str, a['columns']))}}}"
            for a in plan["assignments"]
        )
        want = str(QueryPlanner(simplex4).serve(query))
        assert got == want == "T1={1,2,6,11}; T2={3}; T3={4}; T4={5,7,9,13}"
        # The profile's planner has every list fully enumerated, which
        # changes the search order and so the plan.
        warm = QueryPlanner(simplex4)
        for s in range(1, simplex4.k + 1):
            warm.max_packing(s)
        assert str(warm.serve(query)) == (
            "T1={1,2,4,15}; T2={3}; T3={5,6,8}; T4={7,9,14}"
        )

    def test_queries_rendered(self, capsys, subcube_file):
        code, out, err = run(
            capsys,
            ["analyze", subcube_file, "--query", "1,1", "--query", "1,1,1"],
        )
        assert code == 0
        assert "1,1: T1={1}; T2={2,3}" in out
        assert "1,1,1: UNSERVABLE" in out

    def test_rank_deficient_matrix(self, capsys):
        code, out, err = run(capsys, ["analyze", "-"], stdin_text="11\n11\n")
        assert code == 2
        assert err.startswith("error:")

    def test_readme_example(self, capsys):
        """README's analyze block is what the command prints."""
        command = (
            "batchcodes construct simplex --m 3 | "
            "batchcodes analyze - --r-cap 2 --query 1,1,2,2"
        )
        text = README.read_text()
        start = text.index("```\n", text.index(command)) + 4
        start = text.index("```\n", start) + 4
        shown = text[start : text.index("```", start)]
        code, matrix, err = run(capsys, ["construct", "simplex", "--m", "3"])
        code, out, err = run(
            capsys,
            ["analyze", "-", "--r-cap", "2", "--query", "1,1,2,2"],
            stdin_text=matrix,
        )
        assert code == 0
        assert out == shown

    def test_bad_query_rejected_before_profile(self, capsys, monkeypatch, tmp_path):
        # An uncapped profile of simplex(5) runs for minutes; a query
        # naming a symbol above k is a usage error that must not wait.
        def no_profile(*args, **kwargs):
            raise AssertionError("profile ran before the query check")

        monkeypatch.setattr(report_module, "profile", no_profile)
        path = tmp_path / "simplex5.txt"
        path.write_text(format_matrix(simplex(5).generator))
        code, out, err = run(capsys, ["analyze", str(path), "--query", "1,9"])
        assert code == 2
        assert out == ""
        assert err == "error: query index 9 exceeds k = 5\n"

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["analyze", str(tmp_path / "nope.txt")])
        assert code == 2
        assert err.startswith("error:")


class TestQuery:
    def test_servable(self, capsys, subcube_file):
        code, out, err = run(capsys, ["query", subcube_file, "1,1"])
        assert code == 0
        assert out.strip() == "1,1: T1={1}; T2={2,3}"

    def test_unservable(self, capsys, subcube_file):
        code, out, err = run(capsys, ["query", subcube_file, "1,1,1"])
        assert code == 1
        assert out.strip() == "1,1,1: UNSERVABLE"

    def test_json(self, capsys, subcube_file):
        code, out, err = run(capsys, ["query", subcube_file, "1,2", "--json"])
        assert code == 0
        assert out == as_dumps(out)
        obj = json.loads(out)
        assert obj["servable"] is True
        assert obj["query"] == [1, 2]
        assert obj["assignments"] == [
            {"position": 1, "columns": [1]},
            {"position": 2, "columns": [2]},
        ]

    def test_malformed_query(self, capsys, subcube_file):
        for text in ("1,x", "1_0", "\u0661,\u0662", "+1"):
            code, out, err = run(capsys, ["query", subcube_file, text])
            assert code == 2, text
            assert err.startswith("error:")

    def test_bad_cap(self, capsys, subcube_file):
        code, out, err = run(capsys, ["query", subcube_file, "1,1", "--r-cap", "0"])
        assert code == 2

    def test_stdin(self, capsys):
        text = format_matrix(subcube(2, 1).generator)
        code, out, err = run(capsys, ["query", "-", "2,2"], stdin_text=text)
        assert code == 0


class TestDistance:
    def test_value(self, capsys):
        text = format_matrix(simplex(3).generator)
        code, out, err = run(capsys, ["distance", "-"], stdin_text=text)
        assert code == 0
        assert out.strip() == "4"


class TestBounds:
    def test_table(self, capsys):
        code, out, err = run(
            capsys,
            [
                "bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4",
                "--n", "7", "--systematic",
            ],
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("zs_systematic"))
        assert " 7 " in f" {line} " and "yes" in line

    def test_json(self, capsys):
        code, out, err = run(
            capsys,
            [
                "bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4",
                "--n", "7", "--systematic", "--json",
            ],
        )
        assert code == 0
        assert out == as_dumps(out)
        rows = {v["name"]: v for v in json.loads(out)}
        assert rows["zs_systematic"]["rhs"] == 7
        assert rows["zs_systematic"]["attained"] is True
        assert rows["plotkin_batch"]["rhs"] == 8
        assert rows["plotkin_batch"]["attained"] is True
        assert rows["singleton"]["attained"] is False

    def test_plotkin_needs_n(self, capsys):
        code, out, err = run(
            capsys, ["bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4"]
        )
        assert code == 0
        assert "needs --n" in out

    def test_systematic_bound_skipped_for_t1(self, capsys):
        code, out, err = run(
            capsys,
            [
                "bounds", "--k", "3", "--d", "2", "--r", "2", "--t", "1",
                "--systematic", "--json",
            ],
        )
        assert code == 0
        rows = {v["name"]: v for v in json.loads(out)}
        assert rows["zs_systematic"]["applicable"] is False

    def test_invalid_parameters(self, capsys):
        code, out, err = run(
            capsys, ["bounds", "--k", "0", "--d", "1", "--r", "1", "--t", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t", "0"],
            ["--d", "0"],
            ["--r", "0"],
            ["--delta", "0"],
            ["--n", "0"],
            ["--q", "1"],
            ["--q", "1", "--n", "7"],
        ],
        ids="_".join,
    )
    def test_rejected_inputs(self, capsys, extra):
        """Every parameter below its range exits 2, whether or not --n
        is given; t = 0 too, although the table of a profile with
        batch_t = 0 skips the rows that need t."""
        argv = ["bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4"]
        code, out, err = run(capsys, argv + extra)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_nonsystematic_row_is_listed(self, capsys):
        code, out, err = run(
            capsys,
            ["bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4", "--json"],
        )
        assert code == 0
        rows = {v["name"]: v for v in json.loads(out)}
        assert rows["zs_systematic"]["applicable"] is False
        assert rows["zs_systematic"]["reason"] == "code is not systematic"

    def test_same_table_as_analyze(self, capsys):
        """analyze and bounds print one table for the same parameters."""
        code, report, err = run(
            capsys,
            ["analyze", "-", "--r-cap", "2"],
            stdin_text=format_matrix(simplex(3).generator),
        )
        assert code == 0
        code, table, err = run(
            capsys,
            [
                "bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4",
                "--delta", "3", "--n", "7", "--systematic",
            ],
        )
        assert code == 0
        assert report.split("\n\n", 1)[1] == table


class TestSearch:
    def test_found(self, capsys):
        code, out, err = run(capsys, ["search", "--k", "2", "--t", "2"])
        assert code == 0
        assert "optimal n=3" in out
        assert "101" in out

    def test_not_found(self, capsys):
        code, out, err = run(
            capsys, ["search", "--k", "2", "--t", "3", "--n-max", "4"]
        )
        assert code == 1
        assert "not found" in out

    def test_json(self, capsys):
        code, out, err = run(
            capsys, ["search", "--k", "3", "--t", "2", "--json"]
        )
        assert code == 0
        assert out == as_dumps(out)
        obj = json.loads(out)
        assert obj["optimal_n"] == 4
        assert obj["witness"]["rows"] == ["1001", "0101", "0011"]

    def test_guard(self, capsys):
        code, out, err = run(capsys, ["search", "--k", "9", "--t", "2"])
        assert code == 2
        assert err.startswith("error:")


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    def test_parser_keeps_no_state_between_calls(self, capsys, subcube_file):
        """The parser `main` reuses gives the same output as a fresh one,
        and a usage error leaves it usable."""
        calls = (
            ["analyze", subcube_file, "--r-cap", "2", "--query", "1,2"],
            ["analyze", subcube_file, "--json"],
        )
        reused = [run(capsys, argv) for argv in calls]
        fresh = []
        for argv in calls:
            args = build_parser().parse_args(argv)
            code = args.func(args)
            fresh.append((code, *capsys.readouterr()))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0]
        assert run(capsys, ["analyze"])[0] == 2
        assert run(capsys, calls[1]) == fresh[1]

    def test_closed_stdout_is_quiet(self):
        """A reader that leaves after the first line, as `| head -1`
        does, gets no error line, and the broken pipe exits 141
        (128 + SIGPIPE). The 160 kB matrix is more than a pipe holds,
        so the writer is still writing when the reader goes."""
        env = child_env()
        # Unbuffered stdout drops what a partial write leaves over,
        # with no error, so the child runs with the default buffering.
        env.pop("PYTHONUNBUFFERED", None)
        argv = ["construct", "identity", "--k", "400"]
        with subprocess.Popen(
            [sys.executable, "-m", "batchcodes.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline() == b"400 400\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_no_runtime_dependencies(self, subcube_file):
        """Every subcommand runs on the standard library alone: the only
        top-level module outside it that a run imports is batchcodes."""
        child = """
import contextlib, io, json, sys
before = set(sys.modules)
from batchcodes.cli import main
calls = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([codes, sorted(added - set(sys.stdlib_module_names))]))
"""
        calls = [
            ["analyze", subcube_file, "--r-cap", "2", "--query", "1,2", "--json"],
            ["query", subcube_file, "1,2"],
            ["construct", "simplex", "--m", "3"],
            ["distance", subcube_file],
            ["bounds", "--k", "3", "--d", "4", "--r", "2", "--t", "4", "--n", "7"],
            ["search", "--k", "2", "--t", "2"],
        ]
        out = subprocess.run(
            [sys.executable, "-c", child, json.dumps(calls)],
            capture_output=True,
            env=child_env(),
            check=True,
            text=True,
            timeout=120,
        ).stdout
        assert json.loads(out) == [[0] * len(calls), ["batchcodes"]]
