"""ok / worse / unresolved, and exact counts on the sim workloads."""

import copy

from perfbench.compare import compare, verdict
from perfbench.metrics import REPORT

METRICS = {m.name: m for m in REPORT}


def _row(median, spread=0.01):
    return {"median": median, "spread": spread, "unit": "", "min": median, "max": median,
            "values": [median]}


def test_verdicts():
    ops = METRICS["ops_per_s"]
    assert verdict(ops, _row(400), _row(390))[0] == "ok"
    assert verdict(ops, _row(400), _row(290))[0] == "worse"
    assert verdict(ops, _row(400), _row(500))[0] == "ok"   # better
    # Either side's own spread wider than the bound: the pair shows nothing.
    assert verdict(ops, _row(400, 0.3), _row(290))[0] == "unresolved"
    assert verdict(ops, _row(400), _row(390, 0.3))[0] == "unresolved"
    p99 = METRICS["write_p99_ms"]
    assert verdict(p99, _row(16.0), _row(19.0))[0] == "ok"
    assert verdict(p99, _row(16.0), _row(21.0))[0] == "worse"


def test_absolute_and_any_increase_bounds():
    share = METRICS["within_slo_share_at_120"]
    assert verdict(share, _row(0.90), _row(0.86))[0] == "ok"
    assert verdict(share, _row(0.90), _row(0.84))[0] == "worse"
    failed = METRICS["failed_share"]
    assert verdict(failed, _row(0.0, 0.0), _row(0.0, 0.0))[0] == "ok"
    assert verdict(failed, _row(0.0, 0.0), _row(0.001, 0.0))[0] == "worse"


def test_setup_may_move_a_tenth_of_a_second():
    setup = METRICS["setup_s"]
    assert verdict(setup, _row(0.27), _row(0.36))[0] == "ok"
    assert verdict(setup, _row(0.27), _row(0.40))[0] == "worse"
    assert verdict(setup, _row(0.60), _row(0.74))[0] == "ok"
    assert verdict(setup, _row(0.60), _row(0.80))[0] == "worse"


def _document():
    return {
        "seed": 1, "seconds": 7.5, "runs_per_workload": 3, "smoke": False,
        "workloads": {
            "sim-base-write": {
                "correct": True,
                "end_to_end": {"ops_per_s": _row(400.0), "setup_s": _row(0.27)},
                "counts_per_op": {"crypto.signs": 14.0, "sim.messages": 24.0},
            }
        },
    }


def test_same_document_is_clean_and_counts_must_match_exactly():
    a = _document()
    lines, bad = compare(a, copy.deepcopy(a))
    assert not bad and any("counts identical" in line for line in lines)
    b = copy.deepcopy(a)
    b["workloads"]["sim-base-write"]["counts_per_op"]["sim.messages"] = 24.5
    lines, bad = compare(a, b)
    assert bad and any("sim.messages" in line for line in lines)


def test_worse_and_incorrect_fail_the_comparison():
    a, b = _document(), _document()
    b["workloads"]["sim-base-write"]["end_to_end"]["ops_per_s"] = _row(250.0)
    assert compare(a, b)[1]
    c = _document()
    c["workloads"]["sim-base-write"]["correct"] = False
    assert compare(a, c)[1]
