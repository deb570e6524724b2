"""Process-cluster orchestration and the unified deployment API.

A replica group on real sockets is a :class:`DeploymentSpec` through this
package: :class:`ReplicaGroup` is the only code that builds a
``ReplicaServer``, and the TCP deployment, ``repro serve``, the TCP chaos
campaign and the TCP load harness all start one.  Two layers:

* :mod:`repro.cluster.process` — :class:`ProcessCluster` launches one
  ``python -m repro serve`` worker per replica group, discovers the
  ephemeral ports they announce, monitors liveness (optionally restarting
  crashed workers), and tears the fleet down cleanly.
* :mod:`repro.cluster.deploy` — :func:`deploy` turns a declarative
  :class:`DeploymentSpec` into a uniform :class:`Deployment` handle over
  any of the three transports (``sim`` | ``tcp`` | ``process``), replacing
  the four divergent construction paths (sim ``ClusterOptions``, ad-hoc
  ``ReplicaServer`` wiring, ``shard_cluster``, the load harness) for the
  common single-group case.
"""

from repro.cluster.deploy import (
    Deployment,
    ProcessDeployment,
    ReplicaGroup,
    SimDeployment,
    TcpDeployment,
    deploy,
)
from repro.cluster.process import ProcessCluster, WorkerHandle
from repro.cluster.spec import DeploymentSpec

__all__ = [
    "DeploymentSpec",
    "Deployment",
    "SimDeployment",
    "TcpDeployment",
    "ProcessDeployment",
    "ReplicaGroup",
    "deploy",
    "ProcessCluster",
    "WorkerHandle",
]
