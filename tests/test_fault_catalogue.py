"""The fault catalogue is the one spelling of the fault vocabulary.

Each op is declared once, by a ``FaultOp`` in ``repro.sim.faults.FAULT_OPS``;
schedules, plans, the campaigns, the instrumentation events and the
stabilization oracle all read that declaration.  The load-bearing check:
an op added to the catalogue here, and nowhere else, is validated,
serialised in a plan, armed, fired and instrumented, and when declared
state-damaging the stabilization oracle expects audits for it.
"""

from __future__ import annotations

import json

import pytest

from repro import Instrumentation, Variant, build_cluster
from repro.chaos import CampaignConfig, EpisodePlan, generate_plan, run_episode
from repro.chaos.oracles import run_oracle_battery
from repro.errors import SimulationError
from repro.sim.faults import FAULT_OPS, FaultOp, FaultParam, FaultSchedule

SPEC = {"op": "poke", "time": 0.5, "node": "replica:1", "strength": 3}


def poke(damages_state: bool) -> FaultOp:
    """A scratch node op: perturb the live value, seeded by ``strength``."""
    return FaultOp(
        "poke",
        "node",
        (
            FaultParam("node"),
            FaultParam("strength", 1, (lambda v: v >= 1, "be at least 1")),
        ),
        lambda p: f"poke {p['node']} x{p['strength']}",
        lambda p, node: node.perturb_state(target="data", seed=p["strength"]),
        damages_state=damages_state,
    )


def test_a_scratch_op_is_validated(monkeypatch):
    monkeypatch.setitem(FAULT_OPS, "poke", poke(True))
    assert FaultSchedule([SPEC]).specs == [SPEC]
    assert FaultSchedule().add("poke", 0.5, node="replica:1").specs == [
        {"op": "poke", "time": 0.5, "node": "replica:1"}
    ]
    with pytest.raises(SimulationError, match="strength must be at least 1, got 0"):
        FaultSchedule([dict(SPEC, strength=0)])
    with pytest.raises(SimulationError, match="poke needs node"):
        FaultSchedule().add("poke", 0.5)
    with pytest.raises(SimulationError, match="poke takes"):
        FaultSchedule().add("poke", 0.5, node="replica:1", force=9)


def test_a_scratch_op_is_serialised_armed_fired_and_instrumented(monkeypatch):
    monkeypatch.setitem(FAULT_OPS, "poke", poke(True))
    plan = generate_plan(
        CampaignConfig(
            seed=31,
            episodes=1,
            byzantine=False,
            attacks=False,
            corruption=False,
            stores=("memory",),
        ),
        0,
    ).replace(faults=[dict(SPEC)], audit_interval=0.2)
    assert EpisodePlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan

    instrumentation = Instrumentation()
    result = run_episode(plan, instrumentation=instrumentation)
    events = [
        (span.name, span.start, dict(span.attrs))
        for span in instrumentation.spans()
        if span.kind == "event"
    ]
    assert events == [("chaos.poke replica:1 x3", 0.5, {"node": "replica:1"})]
    assert result.ok, result.violations
    assert result.quarantines == result.repairs >= 1
    assert result.verdicts["stabilization"].detail == (
        "corruption injected at replica:1"
    )


@pytest.mark.parametrize("damages_state", [True, False])
def test_the_stabilization_oracle_reads_the_damages_state_column(
    monkeypatch, damages_state
):
    """Replicas that never self-audited fail the oracle exactly when the
    injected op is declared state-damaging."""
    monkeypatch.setitem(FAULT_OPS, "poke", poke(damages_state))
    cluster = build_cluster(f=1, seed=1)
    cluster.run_scripts({"alice": [("write", ("v", 0))]}, max_time=60)
    verdict = run_oracle_battery(
        {None: cluster.history},
        cluster.replicas,
        Variant.BASE.protocol,
        1,
        faults=[SPEC],
    )["stabilization"]
    assert verdict.ok is not damages_state
    if damages_state:
        assert "never self-audited despite injected corruption" in verdict.detail


def test_every_declared_op_has_a_builder_with_its_parameters():
    """``FaultSchedule.<op>(time, ...)`` takes the declared parameters in
    order and stores only what it was given."""
    for name, op in FAULT_OPS.items():
        builder = getattr(FaultSchedule, name)
        assert list(builder.__signature__.parameters) == [
            "self", "time", *(p.name for p in op.params)
        ]
    schedule = FaultSchedule().wal_bitflip(0.4, "replica:1", flip=0x80)
    assert schedule.specs == [
        {"op": "wal_bitflip", "time": 0.4, "node": "replica:1", "flip": 0x80}
    ]
    assert [step.description for step in schedule.steps()] == [
        "wal_bitflip replica:1 @0.50"
    ]
