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

from repro._exports import lazy_exports

_EXPORTS = {
    "DeploymentSpec": "repro.cluster.spec",
    "Deployment": "repro.cluster.deploy",
    "SimDeployment": "repro.cluster.deploy",
    "TcpDeployment": "repro.cluster.deploy",
    "ProcessDeployment": "repro.cluster.deploy",
    "ReplicaGroup": "repro.cluster.deploy",
    "deploy": "repro.cluster.deploy",
    "ProcessCluster": "repro.cluster.process",
    "WorkerHandle": "repro.cluster.process",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# ``deploy`` names both a submodule and the function it defines.  Importing
# the submodule binds the package attribute to the module, so the function
# is bound here, after that import, as every later lookup expects.
from repro.cluster.deploy import deploy  # noqa: E402
