"""The one variant registry: ``Variant`` resolves its own classes."""

from __future__ import annotations

import pytest

from repro.core import (
    BftBcClient,
    BftBcReplica,
    FastBftBcClient,
    FastBftBcReplica,
    OptimizedBftBcClient,
    OptimizedBftBcReplica,
    StrongBftBcClient,
    Variant,
    make_system,
)


@pytest.mark.parametrize("variant", list(Variant))
def test_every_variant_resolves_and_runs_its_classes(variant):
    assert issubclass(variant.replica_cls, BftBcReplica)
    assert issubclass(variant.client_cls, BftBcClient)
    assert variant.strong is (variant is Variant.STRONG)
    # The resolved classes accept the configuration the flag builds.
    config = make_system(f=1, seed=b"registry", strong=variant.strong)
    config.registry.register("client:a")
    variant.replica_cls("replica:0", config)
    variant.client_cls("client:a", config)


def test_registry_table():
    assert {v: (v.replica_cls, v.client_cls) for v in Variant} == {
        Variant.BASE: (BftBcReplica, BftBcClient),
        Variant.OPTIMIZED: (OptimizedBftBcReplica, OptimizedBftBcClient),
        Variant.STRONG: (BftBcReplica, StrongBftBcClient),
        Variant.FASTPATH: (FastBftBcReplica, FastBftBcClient),
    }


def test_cluster_deploy_no_longer_exports_a_dispatch():
    import repro.cluster.deploy as deploy

    assert not hasattr(deploy, "variant_replica_cls")
    assert not hasattr(deploy, "variant_client_cls")
