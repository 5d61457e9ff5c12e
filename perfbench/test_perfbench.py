"""The benchmark's own tests: run from the repository root with

    python3 -m pytest perfbench -q

They start real interpreters through the benchmark's runner, so they
take about half a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Counters of one bracket iteration with K = 2, read at the seed commit.
BRACKET_K2_COUNTERS = {
    "series.base_series_builds": 200,
    "counting.root_table_builds": 6,
    "constants.enclosures": 418,
    "constants.iv_rounds": 1257,
    "constants.iv_max_prec_bits": 512,
    "limits.lower_terms": 101,
    "limits.lower_coeff_bits": 618,
}

# verify at enum-limit 6: per variety, every size is enumerated once by the
# count loop and once by census; the plane one-child mean walks the
# non-plane trees once more.
NONPLANE_UP_TO_6 = 1 + 1 + 2 + 5 + 16 + 61
PLANE_UP_TO_6 = 1 + 1 + 3 + 9 + 39 + 189
SMALL_VERIFY = ["verify", "--enum-limit", "6", "--order", "12", "--r", "3"]


@pytest.fixture(scope="module")
def runner():
    return run.Runner(ROOT)


def _counters(layers: dict) -> dict:
    return {name: value for name, value in layers.items() if not run._is_time(name)}


def test_every_generated_argv_has_a_reference_digest():
    reference = checks.load_reference()
    for workload in workloads.NAMES:
        every = {workloads.key(a) for a in workloads.every_command(workload)}
        assert every <= set(reference)
        for seed in range(50):
            assert {workloads.key(a) for a in workloads.commands(workload, seed)} <= every


def test_same_seed_same_commands():
    for workload in workloads.NAMES:
        assert workloads.commands(workload, 7) == workloads.commands(workload, 7)


def test_checks_reject_wrong_output(runner):
    argvs = workloads.ladder(2)[:3]
    sample = runner.child(argvs)
    assert checks.failures(argvs, sample["outputs"], checks.load_reference()) == []

    changed = [dict(o) for o in sample["outputs"]]
    changed[0]["stdout"] = changed[0]["stdout"].replace("lower", "lowr", 1)
    assert len(checks.failures(argvs, changed, checks.load_reference())) == 1

    # Swapping two rungs breaks nesting even when every digest is accepted.
    swapped = [argvs[1], argvs[0], argvs[2]]
    outputs = [sample["outputs"][1], sample["outputs"][0], sample["outputs"][2]]
    reference = {workloads.key(a): checks.digest(o["stdout"]) for a, o in zip(swapped, outputs)}
    bad = checks.failures(swapped, outputs, reference)
    assert len(bad) == 1 and "nest" in bad[0]


def test_bracket_counters_repeat_and_match_the_seed_commit(runner):
    argvs = workloads.ladder(2)
    first = runner.child(argvs, trace=True)
    second = runner.child(argvs, trace=True)
    assert _counters(first["layers"]) == _counters(second["layers"])
    for name, value in BRACKET_K2_COUNTERS.items():
        assert first["layers"][name] == value, name
    assert checks.failures(argvs, first["outputs"], checks.load_reference()) == []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in spec["per_layer"]} == set(first["layers"]) | {"trace.overhead_s"}


def test_self_times_account_for_traced_wall_and_enumeration_is_charged(runner):
    sample = runner.child([SMALL_VERIFY], trace=True)
    assert sample["outputs"][0]["rc"] == 0
    layers = sample["layers"]
    assert layers["enumeration.passes"] == 6 * 2 * 2 + 6
    assert layers["enumeration.trees_visited"] == \
        2 * (NONPLANE_UP_TO_6 + PLANE_UP_TO_6) + NONPLANE_UP_TO_6
    assert 0 <= layers["trace.unattributed_s"] < 0.01 * sample["wall_s"]
    assert layers["cli.calls"] >= 2  # main and cmd_verify, patched in cli's namespace


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "bracket", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
