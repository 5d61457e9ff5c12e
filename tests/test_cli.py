"""Command-line contract: flags, formats, exit codes."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treerank.enumeration as enumeration
import treerank.limits as limits
import treerank.series as series
from treerank import cli
from treerank.cli import main
from treerank.constants import MAX_DIGITS, ExactConst
from treerank.counting import root_ranks
from treerank.enumeration import census
from treerank.limits import bound_interval, limit_joint_prob, limit_subtree_prob
from treerank.series import InvariantError
from treerank.variety import TreeVariety

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NP = TreeVariety.NONPLANE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bound_report(capsys, variety, k, r, digits):
    """The stdout of `bounds --format json`, which must exit 0."""
    code, out, _ = run(capsys, "bounds", "--variety", str(variety), "--k", str(k),
                       "--r", str(r), "--digits", str(digits), "--format", "json")
    assert code == 0
    return out


def corrupted_root_ranks(variety, k, size):
    """`root_ranks` with a planted fault: non-plane t[1][3] reads as 999."""
    ranks = root_ranks(variety, k, size)
    if variety is TreeVariety.NONPLANE and k == 1 and size >= 3:
        ranks[2] = 999
    return ranks


def root_table_failures(out):
    return [line for line in out.splitlines()
            if line.startswith("FAIL") and "root-rank-table" in line]


def reference_root_output(variety, order, fmt):
    """`counts --kind root` as printed before the direct writer: a payload
    through `json.dumps(indent=2)`, or joined string rows."""
    rows = [["i", "k", "count"]]
    for i in range(1, order + 1):
        for k in range(i):
            c = root_ranks(variety, k, i)[-1]
            if c:
                rows.append([str(i), str(k), str(c)])
    if fmt == "json":
        payload = {
            "variety": str(variety),
            "kind": "root",
            "rows": [{"i": int(a), "k": int(b), "count": int(c)} for a, b, c in rows[1:]],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return "\n".join(",".join(r) for r in rows) + "\n"
    return "\n".join("\t".join(r) for r in rows) + "\n"


class TestCounts:
    def test_rank_table_contains_known_value(self, capsys):
        code, out, _ = run(capsys, "counts", "--variety", "nonplane", "--kind", "rank",
                           "--k", "0", "--order", "10")
        assert code == 0
        row6 = [line for line in out.splitlines() if line.startswith("6\t")][0]
        assert row6.split("\t")[1] == "155"

    def test_plane_rank_one_value(self, capsys):
        code, out, _ = run(capsys, "counts", "--variety", "plane", "--kind", "rank",
                           "--k", "1", "--order", "10")
        assert code == 0
        row10 = [line for line in out.splitlines() if line.startswith("10\t")][0]
        assert row10.split("\t")[1] == "1613835"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "size", "--r", "1",
                           "--order", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,prob_numerator,prob_denominator,prob_decimal"
        assert lines[1] == "0,0,,,"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "joint", "--k", "1", "--i", "3",
                           "--order", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["variety"] == "nonplane"
        assert payload["rows"][3]["n"] == 3

    def test_root_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "root", "--order", "4")
        assert code == 0
        assert "4\t1\t3" in out  # three size-4 trees with a rank-1 root

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 60])
    def test_root_writer_matches_reference_rendering(self, capsys, variety, order):
        for fmt in ("json", "csv", "table"):
            code, out, _ = run(capsys, "counts", "--variety", str(variety), "--kind", "root",
                               "--order", str(order), "--format", fmt)
            assert code == 0
            assert out == reference_root_output(variety, order, fmt), fmt
            if order == 0 and fmt == "json":
                assert '"rows": []' in out

    def test_joint_size_past_order_reads_no_table(self, capsys):
        # A correction at degree i-1 >= order lies past the truncation, so
        # every count is 0 whatever t[k][i] is; i = 3000 must not build it.
        argv = ["counts", "--order", "10", "--kind", "joint", "--k", "1", "--format", "json"]
        started = time.perf_counter()
        code, far, _ = run(capsys, *argv, "--i", "3000")
        assert code == 0
        assert time.perf_counter() - started < 5.0
        _, near, _ = run(capsys, *argv, "--i", "11")
        far_lines, near_lines = far.splitlines(), near.splitlines()
        assert len(far_lines) == len(near_lines)
        assert [(a, b) for a, b in zip(far_lines, near_lines) if a != b] == [
            ('  "selector": "rank k=1, size i=3000",', '  "selector": "rank k=1, size i=11",'),
        ]

    def test_size_past_order_reads_no_tree_count(self, capsys, monkeypatch):
        # As for joint requests: T_r at degree r-1 >= order lies past the
        # truncation, so r = 1500 must not grow the rows to 1500.
        monkeypatch.setattr(series, "_SUFFIX_ROWS", {v: [[0, 1], [0, 0]] for v in TreeVariety})
        series.tree_counts.cache_clear()
        argv = ["counts", "--order", "5", "--kind", "size", "--format", "json"]
        try:
            code, far, _ = run(capsys, *argv, "--r", "1500")
            grown = max(len(row) for row in series._SUFFIX_ROWS[TreeVariety.NONPLANE])
            _, near, _ = run(capsys, *argv, "--r", "6")
        finally:
            series.tree_counts.cache_clear()
        assert code == 0
        assert grown == 6  # T_0..T_5, what order 5 needs
        far_lines, near_lines = far.splitlines(), near.splitlines()
        assert len(far_lines) == len(near_lines)
        assert [(a, b) for a, b in zip(far_lines, near_lines) if a != b] == [
            ('  "selector": "subtree size r=1500",', '  "selector": "subtree size r=6",'),
        ]

    def test_rank_request_at_order_320_within_budget(self, capsys, monkeypatch):
        # ROADMAP aim 1's counts size, from empty rows as in a new process
        monkeypatch.setattr(series, "_SUFFIX_ROWS", {v: [[0, 1], [0, 0]] for v in TreeVariety})
        started = time.perf_counter()
        code, out, _ = run(capsys, "counts", "--variety", "nonplane", "--order", "320",
                           "--kind", "rank", "--k", "2")
        elapsed = time.perf_counter() - started
        assert code == 0
        assert len(out.splitlines()) == 322  # header and n = 0..320
        assert elapsed < 2.0, f"took {elapsed:.2f} s"

    def test_negative_rank_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--kind", "rank", "--k", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra, flag", [
        (["--order", "-1"], "--order"),
    ])
    def test_bad_range_names_the_flag(self, capsys, extra, flag):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--kind", "rank", "--k", "0", *extra])
        assert exc.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in message
        assert "0..-1" not in message

    def test_missing_selector_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--kind", "size"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    @pytest.mark.parametrize("selector", [["rank", "--k", "2"], ["size", "--r", "3"],
                                          ["joint", "--k", "1", "--i", "4"]],
                             ids=["rank", "size", "joint"])
    def test_n_max_prints_the_first_rows_of_the_full_order(self, capsys, variety, selector):
        # The last row printed, n_max, is --order.  The counts are causal:
        # row n is the same at every order >= n, so a smaller --order
        # prints the first rows of a larger one.
        argv = ["counts", "--variety", str(variety), "--kind", *selector]
        for fmt in ("table", "csv", "json"):
            code, full, _ = run(capsys, *argv, "--format", fmt, "--order", "30")
            assert code == 0
            for order in (0, 1, 7, 29, 30):
                code, out, _ = run(capsys, *argv, "--format", fmt, "--order", str(order))
                assert code == 0
                if fmt != "json":  # a header, then a row per size n = 0..order
                    assert out.splitlines() == full.splitlines()[:order + 2], (fmt, order)
                    continue
                payload, whole = json.loads(out), json.loads(full)
                assert len(payload["rows"]) == order + 1
                assert payload == dict(whole, rows=whole["rows"][:order + 1]), order
                assert out == json.dumps(payload, indent=2) + "\n"


# JSON brackets at 40 and 60 digits, whose enclosures stop above the
# precision ladder's lowest rung, and one whose w-rows are all 0 (no rank-6
# root below size 7).  The digests were recorded when every per-size row
# had its own enclosure.
PINNED_BOUNDS = {
    "nonplane-k2-r100-d40": (
        ["bounds", "--variety", "nonplane", "--k", "2", "--r", "100", "--format", "json",
         "--digits", "40"],
        "b3de77ff44df220cb57a5d3e6d9138b617d231ad67fbcf4fe741ea64f9575a82"),
    "plane-k5-r60-d60": (
        ["bounds", "--variety", "plane", "--k", "5", "--r", "60", "--format", "json",
         "--digits", "60"],
        "08c734a5b85ed9ae0d123b6e93d244ace02e2842e1a456a42a76912dc76675d1"),
    "nonplane-k6-r6": (
        ["bounds", "--variety", "nonplane", "--k", "6", "--r", "6", "--format", "json"],
        "49bc8c73d3560ee84db1a064defcd3412c6b1857114c4f573ab8de660be18328"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBounds:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "--variety", "nonplane", "--k", "2",
                           "--r", "4", "--digits", "8")
        assert code == 0
        assert "lower = " in out and "upper = " in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "1", "--r", "3",
                           "--digits", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) == out.strip()
        assert payload["k"] == 1 and payload["r"] == 3

    def test_json_failure_in_the_second_row_column_prints_nothing(self, capsys, monkeypatch):
        # The report is written a row at a time, but only once the one
        # ladder pass has enclosed both row columns and the three bracket
        # values: a failure planted in that pass at the last v row (the
        # second column), after every w row, leaves stdout empty.
        class Planted(int):
            def __mul__(self, other):  # the pass scales its bounds by N_i
                raise RuntimeError("planted")

        tree_counts = cli.tree_counts

        def planted_tree_counts(variety, size):
            counts = tree_counts(variety, size)
            return [*counts[:-1], Planted(counts[-1])]

        monkeypatch.setattr(cli, "tree_counts", planted_tree_counts)
        with pytest.raises(RuntimeError, match="planted"):
            main(["bounds", "--k", "2", "--r", "12", "--format", "json"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, field, expected", [
        # 0.000528497301...: a 10^-6 wide interval once printed 0.000529.
        (["--variety", "nonplane", "--k", "0", "--r", "60"],
         lambda p: p["per_i_terms"][59]["v_decimal"], "0.000528"),
        # 0.481671477...: a 10^-6 wide interval once printed 0.481672.
        (["--variety", "plane", "--k", "0", "--r", "20"],
         lambda p: p["upper"]["decimal"], "0.481671"),
    ], ids=["nonplane-v60", "plane-upper"])
    def test_decimals_are_correctly_rounded(self, capsys, argv, field, expected):
        code, out, _ = run(capsys, "bounds", *argv, "--digits", "6", "--format", "json")
        assert code == 0
        assert field(json.loads(out)) == expected

    @pytest.mark.parametrize("name", list(PINNED_BOUNDS))
    def test_json_stdout_matches_the_pinned_digest(self, capsys, name):
        argv, digest = PINNED_BOUNDS[name]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert sha256(out) == digest

    def test_pinned_digest_holds_under_python_O(self):
        argv, digest = PINNED_BOUNDS["plane-k5-r60-d60"]
        script = f"import sys\nfrom treerank import cli\nsys.exit(cli.main({argv!r}))\n"
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert sha256(proc.stdout) == digest

    def test_rejects_bad_flags(self):
        for argv in (["bounds", "--k", "-2"], ["bounds", "--k", "0", "--r", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestReportSerialization:
    """`bounds --format json` against the values it reports."""

    def test_schema_keys(self, capsys):
        report = bound_interval(NP, 2, 4)
        payload = json.loads(bound_report(capsys, NP, 2, 4, 8))
        assert list(payload) == ["variety", "k", "r", "lower", "upper",
                                 "v_partial_sum", "per_i_terms"]
        assert payload["variety"] == "nonplane"
        # Decimals carry the digits asked for.
        assert payload["lower"]["decimal"] == report.lower.enclosure(8).decimal()
        assert payload["upper"]["decimal"] == report.upper.enclosure(8).decimal()
        assert len(payload["v_partial_sum"]["decimal"].split(".")[1]) == 8
        assert list(payload["lower"]) == ["exact", "decimal"]
        term = payload["per_i_terms"][0]
        assert list(term) == ["i", "t_ki", "w_exact", "w_decimal", "v_exact", "v_decimal"]
        assert term["i"] == 1 and term["t_ki"] == 0  # no rank-2 root at size 1
        assert payload["per_i_terms"][2]["t_ki"] == 1  # the size-3 balanced tree
        # The per-size rows are the joint and subtree limits themselves.
        for i, term in enumerate(payload["per_i_terms"], start=1):
            assert term["w_exact"] == limit_joint_prob(NP, 2, i).render()
            assert term["v_exact"] == limit_subtree_prob(NP, i).render()

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_an_all_zero_w_column(self, capsys, variety):
        # No tree of size <= 6 has a root of rank 6.
        terms = json.loads(bound_report(capsys, variety, 6, 6, 5))["per_i_terms"]
        assert [term["w_exact"] for term in terms] == ["0"] * 6
        assert [term["w_decimal"] for term in terms] == ["0.00000"] * 6

    def test_json_round_trip_is_byte_identical(self, capsys):
        # The report is written with f-strings; json.dumps of what it parses
        # to must print the same bytes.
        for variety in TreeVariety:
            for k in (0, 2, 4):
                for r in (1, 12, 100):
                    for digits in (1, 12, 40):
                        out = bound_report(capsys, variety, k, r, digits)
                        round_trip = json.dumps(json.loads(out), indent=2) + "\n"
                        assert round_trip == out, (variety, k, r, digits)

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_one_pass_decimals_and_quoted_texts_match_the_slow_paths(self, capsys, variety):
        # The report encloses every value on one ladder pass and quotes its
        # texts without json.dumps.  Against the Horner path of
        # `ExactConst.enclosure` (the head, and the rows up to r = 12) and
        # against json.dumps of the parsed report.
        for k in (0, 1, 2, 5):
            for r in (1, 3, 12, 60):
                report = bound_interval(variety, k, r)
                for digits in (1, 6, 12, 30):
                    out = bound_report(capsys, variety, k, r, digits)
                    payload = json.loads(out)
                    assert json.dumps(payload, indent=2) + "\n" == out, (k, r, digits)
                    for name, value in (("lower", report.lower), ("upper", report.upper),
                                        ("v_partial_sum", report.partial_v_sum)):
                        expected = value.enclosure(digits).decimal()
                        assert payload[name]["decimal"] == expected, (name, k, r, digits)
                    if r > 12:
                        continue
                    for i, term in enumerate(payload["per_i_terms"], start=1):
                        w, v = limit_joint_prob(variety, k, i), limit_subtree_prob(variety, i)
                        assert term["w_decimal"] == w.enclosure(digits).decimal(), (k, i)
                        assert term["v_decimal"] == v.enclosure(digits).decimal(), (k, i)


# sha256 of the stdout of `limits --kind rank` for (variety, k, format,
# digits), digits None for the default; recorded while a_0 and a_1 came from
# hand-derived closed forms instead of moment sums.
PINNED_RANK_LIMITS = {
    ("nonplane", 0, "table", None):
        "3f29717b75531ee9fba37e0d799eba72672ee29e7dda8756bd1dcef403bdb7b9",
    ("nonplane", 0, "table", 40):
        "ca89aa5bc3b3d0e1056990648c870aef9308d87b7933bf677dc084fc2d53277a",
    ("nonplane", 0, "json", None):
        "68a2a159a60ff4354b59bb289be5d7351d597093b84ace4ef3f62561146ccc74",
    ("nonplane", 0, "json", 40):
        "994066abc65e8f03a97a1ad5165ccb641bad52340c04272d300db73d086ff1f0",
    ("nonplane", 1, "table", None):
        "3f3a7966a5804fb52234d152b9a78b053838c6bdf4628d224ed1161679f3966c",
    ("nonplane", 1, "table", 40):
        "ce31933088df4de8a2bbd22dd8aa45c4197b2069eb5af30fe0dfc0300d5e881f",
    ("nonplane", 1, "json", None):
        "fc22859e47368f3d0126e1f2f95fb78458420489564c933cfc510f64e6d85a72",
    ("nonplane", 1, "json", 40):
        "3ccc1cc74c353ced03957f93efba9566dfc8f6533b4ce5bcb3931e626485fa15",
    ("plane", 0, "table", None):
        "12d7acca0e6953e36dbdc37ba0698db0d30cff2f0719ee269f49f49553b7f3af",
    ("plane", 0, "table", 40):
        "80333102edd46ffe01ad9b1b8212f80c58fdf9b6f58c36755c57f412f79b8263",
    ("plane", 0, "json", None):
        "a60382cbfc244ef4dd284af71ae3d8414d8c0929665140ac32d28669dedf4df0",
    ("plane", 0, "json", 40):
        "c91859804e6ed130213575a16a00fac4c10c5d04c876a9d322477b838a434794",
    ("plane", 1, "table", None):
        "f12468abc4feabff2be8c5ad913a94f4a3f0e12dda11b4b5121a7ed51f455e0d",
    ("plane", 1, "table", 40):
        "6adcae5bf17c3752a2ab5e0833c159d258128b2907ecf38acf703ef77f9280d9",
    ("plane", 1, "json", None):
        "a595e6af83d2c8b32052e142211056084b48cebca17dc40b5c3e70df1fd2adc7",
    ("plane", 1, "json", 40):
        "1ebbcf9cb5840327c6fd95e3206b1dcd6117893b1be45411835564efb36fbc10",
}


class TestLimits:
    def test_rank_one_exact_string(self, capsys):
        code, out, _ = run(capsys, "limits", "--variety", "nonplane", "--k", "1")
        assert code == 0
        assert "2 - (1/24)*pi^2 - 4*pi^-1" in out
        assert "0.315526938553" in out

    def test_plane_subtree_limit(self, capsys):
        code, out, _ = run(capsys, "limits", "--variety", "plane", "--kind", "v",
                           "--r", "1")
        assert code == 0
        assert "(2/3) - (1/2)*sqrt3*pi^-1" in out

    def test_digits_past_the_int_to_str_cap(self, capsys):
        # Printing more than 4300 digits must not trip the interpreter's cap
        # on int -> str conversion.
        code, out, _ = run(capsys, "limits", "--variety", "nonplane", "--kind", "v",
                           "--r", "1", "--digits", "5000")
        assert code == 0
        with mpmath.workdps(5010):
            truth = mpmath.nstr(1 - 2 / mpmath.pi, 5000, strip_zeros=False)
        assert out.split("≈ ")[1].strip() == truth

    def test_joint_kind(self, capsys):
        code, out, _ = run(capsys, "limits", "--kind", "w", "--k", "0", "--i", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "1 - 2*pi^-1"

    def test_higher_rank_redirected(self, capsys):
        for argv in (["limits", "--k", "2"], ["limits", "--k", "5", "--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert captured.err.endswith(
                "error: --kind rank needs --k 0 or 1; bracket higher ranks with `bounds`\n")

    def test_unread_flag_refused_before_the_missing_rank(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--kind", "rank", "--r", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: --kind rank does not read --r\n")

    @pytest.mark.parametrize("key", list(PINNED_RANK_LIMITS))
    def test_rank_limit_stdout_matches_the_pinned_digest(self, capsys, key):
        variety, k, fmt, digits = key
        argv = ["limits", "--variety", variety, "--kind", "rank", "--k", str(k), "--format", fmt]
        code, out, _ = run(capsys, *argv, *(["--digits", str(digits)] if digits else []))
        assert code == 0
        assert sha256(out) == PINNED_RANK_LIMITS[key]


class TestEnumerate:
    def test_plane_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--variety", "plane", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["3(2(1))", "3(1)(2)", "3(2)(1)"]

    def test_over_limit_refused(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "8", "--enum-limit", "5")
        assert code == 2
        assert "1385" in err  # the exact count appears in the refusal

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "600", "--enum-limit", "600"],
        ["enumerate", "--n", "1", "--enum-limit", str(cli.MAX_ENUM_LIMIT + 1)],
        ["verify", "--order", "80", "--enum-limit", str(cli.MAX_ENUM_LIMIT + 1)],
    ])
    def test_enum_limit_past_the_cap_is_a_usage_error(self, capsys, argv):
        # A pass over every tree of such a size would not end, and at some
        # hundreds of sizes it would recurse past the interpreter's limit.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --enum-limit: must be <= {cli.MAX_ENUM_LIMIT}" in captured.err
        args = cli.build_parser().parse_args(
            ["enumerate", "--n", "1", "--enum-limit", str(cli.MAX_ENUM_LIMIT)])
        assert args.enum_limit == cli.MAX_ENUM_LIMIT

    @pytest.mark.parametrize("variety", ["nonplane", "plane"])
    @pytest.mark.parametrize("n, quoted", [(11, "exactly"), (2000, "more than")])
    def test_refusal_is_one_line_and_quick_at_any_size(self, capsys, variety, n, quoted):
        # An exact count at n = 2000 has more digits than int-to-str allows,
        # and its recurrence would take minutes; beyond the default series
        # order the refusal quotes a lower bound instead.
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--variety", variety, "--n", str(n))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"refusing to enumerate {variety} trees of size {n} (limit 10)")
        assert f"there are {quoted} " in err


class TestVerify:
    def test_small_config_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--enum-limit", "5", "--order", "10",
                           "--r", "4")
        assert code == 0
        assert "FAIL" not in out

    @pytest.fixture
    def corrupted(self, monkeypatch):
        monkeypatch.setattr(cli, "root_ranks", corrupted_root_ranks)

    def test_corrupted_table_detected(self, capsys, corrupted):
        code, out, _ = run(capsys, "verify", "--enum-limit", "5", "--order", "10",
                           "--r", "4")
        assert code == 1
        assert root_table_failures(out)
        assert "FAIL  root-rank-table row sums nonplane: mismatch at sizes [3]\n" in out

    @pytest.mark.parametrize("order", [2, 3, 10, 80])
    def test_rank_one_correction_holds_in_integers(self, capsys, order):
        code, out, _ = run(capsys, "verify", "--enum-limit", "2", "--order", str(order),
                           "--r", "2")
        assert code == 0
        assert "ok    rank-1 root correction z*E - z^2/2: series match\n" in out

    def test_rank_one_correction_catches_the_planted_fault(self, capsys, corrupted):
        # t[1][3] = 999, where 2 E_1 - 1 = 1 trees of size 3 have a rank-1 root
        code, out, _ = run(capsys, "verify", "--enum-limit", "5", "--order", "10",
                           "--r", "4")
        assert code == 1
        assert "FAIL  rank-1 root correction z*E - z^2/2: mismatch\n" in out

    def test_bracket_truncation_past_the_order(self, capsys):
        # The default --r 12 exceeds --order 7: the tables reach both.
        code, out, err = run(capsys, "verify", "--order", "7", "--enum-limit", "5")
        assert code == 0, err
        assert "FAIL" not in out
        assert "bracket nesting/anchoring plane" in out

    def test_bracket_truncation_past_the_order_still_detects_corruption(self, capsys,
                                                                         corrupted):
        code, out, _ = run(capsys, "verify", "--order", "7", "--enum-limit", "5")
        assert code == 1
        assert root_table_failures(out)

    def test_enum_limit_11_matches_the_pinned_digest(self):
        # Past the reach of the per-tree reference census (n <= 10); the
        # digest was recorded while the census still generated the trees
        # of size n - 1.
        argv = ["verify", "--enum-limit", "11", "--order", "80"]
        script = f"import sys\nfrom treerank import cli\nsys.exit(cli.main({argv!r}))\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert sha256(proc.stdout) == (
            "255a0cd3d62c1ae8c9c9e1929abae53b809432c85047b1a71feefebe9f6e5b25")

    def test_enum_limit_12_within_budget(self, capsys):
        # About 0.25 s of CPU on a 2-core Xeon with Python 3.11, from cold
        # census caches; tallying only sizes n - 1 and n took 2.4 s.  The
        # digest is the same for both.
        caches = (census, enumeration._canonical_trees)
        for cache in caches:
            cache.cache_clear()
        try:
            started = time.process_time()
            code, out, _ = run(capsys, "verify", "--enum-limit", "12")
            elapsed = time.process_time() - started
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == 0
        assert sha256(out) == (
            "26bc185234185cf5833c3e695b1b5f99b8e3a8df4aced6304ea88aeda8b128f4")
        assert elapsed < 1.0, f"took {elapsed:.2f} s of CPU"

    def test_corrupted_table_detected_under_python_O(self):
        # Asserts are stripped under -O; the checks that catch the fault are not.
        argv = ["verify", "--enum-limit", "4", "--order", "6", "--r", "3"]
        script = (f"import sys; sys.path.insert(0, {str(TESTS)!r})\n"
                  "import test_cli\n"
                  "from treerank import cli\n"
                  "cli.root_ranks = test_cli.corrupted_root_ranks\n"
                  f"sys.exit(cli.main({argv!r}))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert root_table_failures(proc.stdout)

    def test_row_sums_are_checked_against_the_linear_kernel(self, capsys, monkeypatch):
        # T_5 off by one in rows 0 and 1 alike: the column sums and
        # `tree_counts` both read it there, so only the kernel's own count
        # of T_5, from T_0..T_4, exposes it.
        monkeypatch.setattr(series, "_SUFFIX_ROWS", {v: [[0, 1], [0, 0]] for v in TreeVariety})
        caches = (series.tree_counts, limits.limit_subtree_prob)
        for cache in caches:
            cache.cache_clear()
        try:
            rows = series._suffix_rows(TreeVariety.NONPLANE, 1, 10)
            rows[0][5] += 1
            rows[1][5] += 1
            code, out, _ = run(capsys, "verify", "--enum-limit", "4", "--order", "10",
                               "--r", "4")
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == 1
        assert "FAIL  root-rank-table row sums nonplane: mismatch at sizes [5, " in out
        assert "ok    root-rank-table row sums plane: all rows equal the tree counts\n" in out

    def test_undecided_sqrt_bound_fails_the_inequality_line(self, capsys, monkeypatch):
        # A sign the precision ladder cannot decide is a failing check, and
        # the line names the check.
        monkeypatch.setattr(enumeration, "iv_sign", lambda builder: 0)
        code, out, _ = run(capsys, "verify", "--enum-limit", "4", "--order", "6", "--r", "3")
        assert code == 1
        assert "FAIL  inequalities nonplane n=4: sqrt-subtree-mean<=100-90/sqrt(n)\n" in out

    # Planted faults in the corrections of a_0 and a_1, which the limit
    # anchor and the bracket lines read through `limit_rank_fraction`.
    def test_rank_zero_correction_fault_fails_the_anchor(self, capsys, monkeypatch):
        monkeypatch.setitem(limits.RANK_CORRECTIONS, 0, dict.fromkeys(TreeVariety, [2]))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL  limit anchor nonplane: rank-0 limit equals size-1 limit: mismatch\n" in out

    def test_nonplane_rank_one_correction_fault_escapes_the_bracket(self, capsys, monkeypatch):
        monkeypatch.setitem(limits.RANK_CORRECTIONS, 1,
                            {**limits.RANK_CORRECTIONS[1], NP: [1, 0, -2]})
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert ("FAIL  bracket nesting/anchoring nonplane: closed form escapes bracket at r=8\n"
                in out)

    def test_plane_rank_one_correction_fault_needs_a_finer_bracket(self, capsys, monkeypatch):
        # Halving the plane 2c moves a_1 up by about 0.032, well inside the
        # default r = 12 bracket, which is about 0.14 wide: the default
        # verify passes.  Of the --r 100 ladder 33, 66, 100, the r = 66
        # bracket, about 0.029 wide, is the first to exclude the wrong value.
        monkeypatch.setitem(limits.RANK_CORRECTIONS, 1,
                            {**limits.RANK_CORRECTIONS[1], TreeVariety.PLANE: [1, 0, -1]})
        code, out, _ = run(capsys, "verify")
        assert code == 0, out
        code, out, _ = run(capsys, "verify", "--enum-limit", "6", "--order", "12", "--r", "100")
        assert code == 1
        assert ("FAIL  bracket nesting/anchoring plane: closed form escapes bracket at r=66\n"
                in out)

    def test_a_bracket_wider_than_the_one_before_fails_nesting(self, capsys, monkeypatch):
        # The plane r = 8 lower bound, one lower, is below the r = 4 one:
        # that rung is no longer nested, though it still holds a_1.
        original = cli.bound_interval

        def planted(variety, k, r):
            report = original(variety, k, r)
            if (variety, r) == (TreeVariety.PLANE, 8):
                report = report._replace(lower=report.lower - ExactConst.rational(1))
            return report

        monkeypatch.setattr(cli, "bound_interval", planted)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL  bracket nesting/anchoring plane: bracket at r=8 not nested\n" in out
        assert "ok    bracket nesting/anchoring nonplane: brackets nested and anchored\n" in out

    def test_one_census_pass_per_variety_and_size(self, capsys, monkeypatch):
        def no_second_walk(*args, **kwargs):
            raise AssertionError("verify counts trees through census, not enumerate_texts")

        monkeypatch.setattr(cli, "enumerate_texts", no_second_walk)
        census.cache_clear()
        code, out, _ = run(capsys, "verify", "--enum-limit", "6", "--order", "8", "--r", "3")
        assert code == 0
        assert "FAIL" not in out
        assert census.cache_info().misses == 2 * 6


class TestConfig:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--k", "1", "--order", "5"],
        ["verify", "--variety", "plane"],
        ["verify", "--threads", "2"],
        ["limits", "--k", "1", "--enum-limit", "3"],
        ["enumerate", "--n", "3", "--digits", "5"],
        ["counts", "--kind", "root", "--enum-limit", "3"],
        # Every verify check is a yes/no decision; none prints digits.
        ["verify", "--digits", "12"],
        # --order is the last row printed.
        ["counts", "--kind", "rank", "--k", "0", "--n-max", "3"],
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    # Each --kind with the selector flags it reads, and each one it does not.
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(argv, flag, id=f"{argv[0]}-{argv[argv.index('--kind') + 1]}-{flag[2:]}")
        for argv, unread in [
            (["counts", "--order", "5", "--kind", "rank", "--k", "1"], ["--r", "--i"]),
            (["counts", "--order", "5", "--kind", "size", "--r", "1"], ["--k", "--i"]),
            (["counts", "--order", "5", "--kind", "joint", "--k", "1", "--i", "2"], ["--r"]),
            # The root table prints no decimals.
            (["counts", "--order", "5", "--kind", "root"], ["--k", "--r", "--i", "--digits"]),
            (["limits", "--kind", "rank", "--k", "0"], ["--r", "--i"]),
            (["limits", "--kind", "v", "--r", "1"], ["--k", "--i"]),
            (["limits", "--kind", "w", "--k", "1", "--i", "3"], ["--r"]),
        ]
        for flag in unread
    ])
    def test_selector_the_kind_does_not_read_is_rejected(self, capsys, argv, flag):
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        kind = argv[argv.index("--kind") + 1]
        assert f"error: --kind {kind} does not read {flag}\n" in captured.err

    # Each --kind that reads selector flags, with a subset of them left out.
    @pytest.mark.parametrize("argv, needs", [
        (["counts", "--kind", "rank"], "--kind rank needs --k >= 0"),
        (["counts", "--kind", "size", "--digits", "5"], "--kind size needs --r >= 1"),
        (["counts", "--kind", "joint"], "--kind joint needs --k >= 0 and --i >= 1"),
        (["counts", "--kind", "joint", "--k", "1"], "--kind joint needs --k >= 0 and --i >= 1"),
        (["counts", "--kind", "joint", "--i", "3"], "--kind joint needs --k >= 0 and --i >= 1"),
        (["limits"], "--kind rank needs --k 0 or 1; bracket higher ranks with `bounds`"),
        (["limits", "--kind", "rank", "--format", "json"],
         "--kind rank needs --k 0 or 1; bracket higher ranks with `bounds`"),
        (["limits", "--kind", "v"], "--kind v needs --r >= 1"),
        (["limits", "--kind", "w", "--k", "0"], "--kind w needs --k >= 0 and --i >= 1"),
        (["limits", "--kind", "w", "--i", "2"], "--kind w needs --k >= 0 and --i >= 1"),
    ], ids=["counts-rank", "counts-size", "counts-joint", "counts-joint-no-i", "counts-joint-no-k",
            "limits", "limits-rank", "limits-v", "limits-w-no-i", "limits-w-no-k"])
    def test_selector_the_kind_reads_is_required(self, capsys, argv, needs):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(f"error: {needs}\n")

    @pytest.mark.parametrize("argv, flag", [
        (["counts", "--kind", "rank", "--k", "0", "--order", "3", "--digits", "-1"], "--digits"),
        (["counts", "--kind", "rank", "--k", "x"], "--k"),
        (["counts", "--kind", "size", "--r", "0"], "--r"),
        (["counts", "--kind", "joint", "--k", "0", "--i", "0"], "--i"),
        (["bounds", "--k", "1", "--digits", "-3"], "--digits"),
        (["limits", "--k", "1", "--digits", "0"], "--digits"),
        (["limits", "--k", "-1"], "--k"),
        (["limits", "--kind", "v", "--r", "0"], "--r"),
        (["limits", "--kind", "w", "--k", "0", "--i", "0"], "--i"),
        (["enumerate", "--n", "0"], "--n"),
        (["enumerate", "--n", "1", "--enum-limit", "0"], "--enum-limit"),
        (["verify", "--enum-limit", "3", "--order", "3", "--r", "0"], "--r"),
        (["verify", "--enum-limit", "0"], "--enum-limit"),
        (["verify", "--enum-limit", "3", "--order", "1"], "--order"),
    ])
    def test_out_of_range_value_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["limits", "--kind", "rank", "--k", "0"],
        ["bounds", "--k", "2"],
        ["counts", "--kind", "rank", "--k", "0", "--order", "3"],
    ])
    def test_digits_past_what_an_enclosure_can_certify(self, capsys, argv):
        # Below 10^-MAX_DIGITS no interval the precision ladder reaches is
        # narrow enough, so such a request could only end in a traceback.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--digits", str(MAX_DIGITS + 1)])
        assert exc.value.code == 2
        assert f"argument --digits: must be <= {MAX_DIGITS}" in capsys.readouterr().err
        args = cli.build_parser().parse_args([*argv, "--digits", str(MAX_DIGITS)])
        assert args.digits == MAX_DIGITS

    def test_invariant_failure_exits_1_without_traceback(self, capsys, monkeypatch):
        def broken(args, parser):
            raise InvariantError("planted inconsistency")

        monkeypatch.setattr(cli, "cmd_limits", broken)
        code, _, err = run(capsys, "limits", "--k", "1")
        assert code == 1
        assert err == "treerank: internal invariant failed: planted inconsistency\n"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Values drawn for each numeric flag, as (in range, out of range): negative,
# zero, non-numeric and past a cap where the flag has one.  --order and --r
# stay at most 40 and --enum-limit at most 6 (or past its cap), so that
# each argv takes well under a second.
NUMERIC_POOLS = {
    "--order": (["0", "1", "2", "5", "12", "40"], ["-1", "x"]),
    "--digits": (["1", "12", "30"], ["-1", "0", str(MAX_DIGITS + 1), "x"]),
    "--enum-limit": (["1", "3", "6"], ["-1", "0", str(cli.MAX_ENUM_LIMIT + 1), "x"]),
    "--k": (["0", "1", "2", "4"], ["-1", "x"]),
    "--r": (["1", "4", "12", "40"], ["-1", "0", "x"]),
    "--i": (["1", "3", "16", "40"], ["-1", "0", "x"]),
    "--n": (["1", "3", "6", "7", "2000"], ["-1", "0", "x"]),
}


def flag_pools() -> dict[str, dict[str, tuple[list[str], list[str]]]]:
    """Per subcommand, each flag the parser defines with the values to draw
    for it: its choices and one that is not, or its numeric pools."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    pools = {}
    for command, sub in subparsers.choices.items():
        pools[command] = {
            action.option_strings[-1]: ((list(action.choices), ["other"]) if action.choices
                                        else NUMERIC_POOLS[action.option_strings[-1]])
            for action in sub._actions
            if action.option_strings and action.option_strings[-1] != "--help"
        }
    return pools


FLAG_POOLS = flag_pools()


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand with a subset of its flags, at most one of them out of
    range, so that in-range argvs reach the checks past the parser."""
    command = draw(st.sampled_from(sorted(FLAG_POOLS)))
    pools = FLAG_POOLS[command]
    flags = draw(st.lists(st.sampled_from(sorted(pools)), unique=True))
    bad = draw(st.none() | st.sampled_from(flags)) if flags else None
    argv = [command]
    for flag in flags:
        valid, invalid = pools[flag]
        argv += [flag, draw(st.sampled_from(invalid if flag == bad else valid))]
    return argv


class TestExitCodeContract:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argvs())
    def test_every_argv_exits_0_1_or_2_without_a_traceback(self, argv):
        # Any exception but SystemExit leaves `main` and fails the example.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            assert out.getvalue() == "", argv

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["enumerate", "--variety", "plane", "--n", "8"],
    ], ids=["verify", "enumerate"])
    def test_closed_stdout_exits_141_without_a_traceback(self, argv):
        # As in `treerank verify | head -1`, but the reader is gone before the
        # first write, so the outcome does not hang on timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "treerank.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_reader_gone_after_the_first_line_of_a_json_bracket(self):
        # As in `treerank bounds ... --format json | head -1`: the report
        # (about 0.8 MB) is written a row at a time, and the write after the
        # reader leaves ends the process as SIGPIPE would, without a traceback.
        proc = subprocess.Popen([sys.executable, "-m", "treerank.cli", "bounds", "--k", "2",
                                 "--r", "100", "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


class TestParserReuse:
    def test_one_process_prints_what_fresh_processes_print(self):
        # `main` builds its parser on the first call and keeps it.  Usage
        # errors and valid commands run one after another in one process
        # print the same bytes, and exit with the same codes, as each run
        # in a process of its own.
        argvs = [["counts", "--kind", "rank", "--k", "-1"],
                 ["counts", "--kind", "joint", "--k", "1", "--i", "3", "--order", "8",
                  "--format", "json"],
                 ["bounds", "--variety", "plane", "--k", "2", "--r", "6", "--format", "json"],
                 ["limits", "--kind", "w", "--k", "1", "--i", "3"],
                 ["limits", "--k", "2"]]
        script = ("import contextlib, io, json, sys\n"
                  "from treerank import cli\n"
                  "results = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    out, err = io.StringIO(), io.StringIO()\n"
                  "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                  "        try:\n"
                  "            code = cli.main(argv)\n"
                  "        except SystemExit as exc:\n"
                  "            code = exc.code\n"
                  "    results.append([code, out.getvalue(), err.getvalue()])\n"
                  "print(json.dumps(results))\n")

        def results(batch):
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(batch)],
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            return json.loads(proc.stdout)

        together = results(argvs)
        assert together == [result for argv in argvs for result in results([argv])]
        assert [code for code, _, _ in together] == [2, 0, 0, 0, 2]
        assert together[0][2].startswith("usage: treerank counts")


class TestBenchmarkTracer:
    def test_tracer_installs_and_reports_on_the_current_package(self):
        # The benchmark's traced mode wraps the package's public functions and
        # reads the caches it names; a rename or an uncached name breaks it.
        # The JSON bracket runs the report's one ladder pass under the tracer,
        # as the benchmark's traced bracket runs do.
        # `base_series` (now a test helper) and `root_rank_counts` (replaced
        # by the uncached `root_ranks`) are gone on purpose, and the tracer
        # reads them as 0 builds; every other name must still be there.
        # The wrappers replace module names after import, so `counts` and
        # `limits` must look their library call up when they run.
        script = (
            "import contextlib, io, json, sys, time\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import treerank, treerank.cli\n"
            "import spans\n"
            "tracer = spans.Tracer()\n"
            "tracer.install()\n"
            "start = time.perf_counter()\n"
            "for argv in (['bounds', '--k', '2', '--r', '4'],\n"
            "             ['bounds', '--k', '2', '--r', '12', '--format', 'json'],\n"
            "             ['counts', '--order', '10', '--kind', 'size', '--r', '2'],\n"
            "             ['limits', '--kind', 'v', '--r', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert treerank.cli.main(argv) == 0, argv\n"
            "metrics = tracer.metrics(time.perf_counter() - start)\n"
            "print(json.dumps({'metrics': metrics, 'cached': sorted(tracer._cached),\n"
            "                  'expected': sorted(spans.CACHED), 'calls': tracer.fn_calls}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["metrics"]["constants.enclosures"] > 0
        assert sorted(set(result["expected"]) - set(result["cached"])) == \
            ["base_series", "root_rank_counts"]
        assert set(result["cached"]) <= set(result["expected"])
        assert result["metrics"]["counting.root_table_builds"] == 0
        assert result["calls"].get("counting.size_vertex_counts") == 1
        assert result["calls"].get("limits.limit_subtree_prob", 0) >= 1


class TestBenchmarkStdout:
    def test_a_sample_of_benchmark_commands_matches_the_reference_digests(self):
        # The benchmark rejects a command whose stdout hash differs from
        # perfbench/reference.json; a sample of its commands, run in
        # process, catches such drift here first: the default verify, all
        # 18 bracket commands (both varieties, every K, the text rungs and
        # the JSON one), and one count of each kind but root in each format
        # for both varieties, whose decimals go through `decimal_string`.
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        reference = json.loads((PERFBENCH / "reference.json").read_text())
        counts = workloads.every_command("series")
        sample = [next(argv for argv in counts if {variety, kind, fmt} <= set(argv))
                  for variety in workloads.VARIETIES for kind in ("rank", "size", "joint")
                  for fmt in workloads.FORMATS]
        assert len({workloads.key(argv) for argv in sample}) == 18
        for argv in [*workloads.commands("oracle", 0), *workloads.every_command("bracket"),
                     *sample]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0, argv
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert digest == reference[workloads.key(argv)], argv
