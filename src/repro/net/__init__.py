"""Network substrates.

* :mod:`repro.net.simnet` — the seeded unreliable network used by the
  deterministic simulator (loss, delay, duplication, reordering,
  corruption), matching the §2 model.
* :mod:`repro.net.asyncio_transport` — a real length-prefixed TCP transport
  so the same protocol state machines can run as asyncio services.
* :mod:`repro.net.shard_transport` — the sharded roles (shard members,
  routers, reconfigurators, bootstrap) over the same TCP framing.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "SimNetwork": "repro.net.simnet",
    "LinkProfile": "repro.net.simnet",
    "NetworkStats": "repro.net.simnet",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
