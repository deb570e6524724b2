"""``BENCHMARK.json`` says what ``perfbench.metrics`` and the workloads say."""

import json
import re

from perfbench import api
from perfbench.metrics import END_TO_END, GATED_WORKLOADS, PER_LAYER, REPORT, RUN_SECONDS
from perfbench.workloads import WORKLOADS

CONTRACT = json.loads((api.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_and_command():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["command"] == ["python3", "-m", "perfbench"]
    assert CONTRACT["paths"] == ["perfbench"]
    assert CONTRACT["run_seconds"] == RUN_SECONDS


def test_workloads_match_the_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(GATED_WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]]().why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_code():
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = CONTRACT["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m.bound for m in END_TO_END)


def test_per_layer_metrics_match_the_code():
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert all(m.note for m in PER_LAYER)  # every one names what it should move


def test_all_runs_fit_the_drivers_limit():
    # 4 + 22 per workload, each a run of RUN_SECONDS plus an interpreter start.
    runs = 4 + 22 * len(GATED_WORKLOADS)
    assert runs * (RUN_SECONDS + 1.5) < 0.9 * 3420


def test_names_and_units_are_well_formed_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in CONTRACT[key])


def test_the_issue_names_are_all_reported():
    assert len([m for m in REPORT if m.name not in ("op_p50_ms", "op_p75_ms")]) == 13
