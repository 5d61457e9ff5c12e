"""Command-line contract: flags, formats, exit codes."""

import json

import pytest

from treerank.cli import THREADS_ENV_VAR, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_rank_table_contains_known_value(self, capsys):
        code, out, _ = run(capsys, "counts", "--variety", "nonplane", "--kind", "rank",
                           "--k", "0", "--n-max", "10", "--order", "12")
        assert code == 0
        row6 = [line for line in out.splitlines() if line.startswith("6\t")][0]
        assert row6.split("\t")[1] == "155"

    def test_plane_rank_one_value(self, capsys):
        code, out, _ = run(capsys, "counts", "--variety", "plane", "--kind", "rank",
                           "--k", "1", "--n-max", "10", "--order", "10")
        assert code == 0
        row10 = [line for line in out.splitlines() if line.startswith("10\t")][0]
        assert row10.split("\t")[1] == "1613835"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "size", "--r", "1",
                           "--n-max", "3", "--order", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,prob_numerator,prob_denominator,prob_decimal"
        assert lines[1] == "0,0,,,"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "joint", "--k", "1", "--i", "3",
                           "--n-max", "6", "--order", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["variety"] == "nonplane"
        assert payload["rows"][3]["n"] == 3

    def test_root_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--kind", "root", "--n-max", "4",
                           "--order", "6")
        assert code == 0
        assert "4\t1\t3" in out  # three size-4 trees with a rank-1 root

    def test_negative_rank_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--kind", "rank", "--k", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra, flag", [
        (["--order", "-1"], "--order"),
        (["--n-max", "-1"], "--n-max"),
        (["--order", "5", "--n-max", "6"], "--n-max"),
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

    def test_rejects_bad_flags(self):
        for argv in (["bounds", "--k", "-2"], ["bounds", "--k", "0", "--r", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


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

    def test_joint_kind(self, capsys):
        code, out, _ = run(capsys, "limits", "--kind", "w", "--k", "0", "--i", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "1 - 2*pi^-1"

    def test_higher_rank_redirected(self):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--k", "2"])
        assert exc.value.code == 2


class TestEnumerate:
    def test_plane_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--variety", "plane", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["3(2(1))", "3(1)(2)", "3(2)(1)"]

    def test_over_limit_refused(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "8", "--enum-limit", "5")
        assert code == 2
        assert "1385" in err  # the exact count appears in the refusal


class TestVerify:
    def test_small_config_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--enum-limit", "5", "--order", "10",
                           "--r", "4")
        assert code == 0
        assert "FAIL" not in out

    def test_corrupted_table_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--enum-limit", "5", "--order", "10",
                           "--r", "4", "--corrupt-root-table")
        assert code == 1
        assert "FAIL" in out
        assert "root-rank-table" in out


class TestConfig:
    def test_threads_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        parser = build_parser()
        args = parser.parse_args(["verify"])
        from treerank.cli import _resolve_threads

        assert _resolve_threads(args) == 3
        monkeypatch.setenv(THREADS_ENV_VAR, "junk")
        assert _resolve_threads(args) >= 1
        args.threads = 7
        assert _resolve_threads(args) == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
