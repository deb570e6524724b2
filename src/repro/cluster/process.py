"""One OS process per replica group: spawn, discover, monitor, tear down.

:class:`ProcessCluster` launches ``python -m repro serve`` workers (each
hosting one or more durable replicas), reads the JSON announcement lines
they print to discover ephemeral ports without races, and keeps a monitor
thread watching liveness.  A crashed worker can be restarted on its data
directory — the replica recovers its Figure-2 state from snapshot + WAL —
and, because restarts re-request the originally announced ports, the
other processes' address books stay valid.

The cluster records itself in ``<data_dir>/cluster.json`` — the spec's
``to_wire()`` form beside the worker table — so a separate invocation
(``python -m repro cluster status|down``) can find and manage the fleet,
and each worker's stabilization loop can find its peers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Optional

from repro.cluster.spec import DeploymentSpec
from repro.core.quorum import QuorumSystem
from repro.errors import NetworkError, QuorumConfigError

__all__ = [
    "ProcessCluster",
    "WorkerHandle",
    "STATE_FILE",
    "replica_data_dir",
    "serve_command",
]

STATE_FILE = "cluster.json"
#: Seconds between the supervisor's liveness checks.
MONITOR_INTERVAL = 0.25
#: Seconds a worker has to announce every replica it hosts.
START_TIMEOUT = 30.0
#: Client-id namespaces each worker admits wholesale.
OPEN_NAMESPACES = ("client:",)
#: Seconds between each worker's periodic self-audits; a worker that
#: recovers onto a corrupted data directory quarantines and repairs from
#: the peers named in ``cluster.json``.
AUDIT_INTERVAL = 1.0


def _worker_env() -> dict[str, str]:
    """The child environment: ensure ``repro`` is importable as installed.

    The package may be running from a source tree (``src`` layout) that is
    on ``sys.path`` but not in the inherited ``PYTHONPATH``; prepending the
    package's parent directory makes ``python -m repro`` work in the child
    regardless of how this process found it.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _slug(node_id: str) -> str:
    return node_id.replace(":", "_").replace("/", "_")


def replica_data_dir(
    worker_dir: str, node_ids: "tuple[str, ...] | list[str]", node_id: str
) -> str:
    """Where a replica journals inside its worker's directory.

    A worker hosting a single replica journals directly in its directory
    (the historical ``serve`` layout); a worker hosting several gives each
    replica its own subdirectory.  This is the one layout rule: ``serve``,
    ``TcpDeployment``, the TCP chaos campaign and the offline fingerprint
    recovery all journal where it says.
    """
    if len(node_ids) == 1:
        return str(worker_dir)
    return str(Path(worker_dir) / _slug(node_id))


@dataclass
class WorkerHandle:
    """One spawned ``serve`` process and the replicas it hosts."""

    index: int
    node_ids: tuple[str, ...]
    data_dir: str
    process: Optional[subprocess.Popen] = None
    #: node id -> (host, port), filled in from announcement lines.
    addrs: dict[str, tuple[str, int]] = field(default_factory=dict)
    restarts: int = 0
    log_path: Optional[str] = None

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def serve_command(
    spec: DeploymentSpec, worker: WorkerHandle, ports: str = "0"
) -> list[str]:
    """The ``python -m repro serve`` line that hosts ``worker`` under ``spec``."""
    cmd = [
        sys.executable, "-m", "repro",
        "--f", str(spec.f),
        "--seed", str(spec.seed),
        "serve", *worker.node_ids,
        "--data-dir", worker.data_dir,
        "--variant", str(spec.variant),
        "--scheme", spec.scheme,
        "--host", spec.host,
        "--port", ports,
        "--fsync", spec.fsync,
        "--announce",
        "--peers-file", str(Path(str(spec.data_dir)) / STATE_FILE),
        "--audit-interval", str(AUDIT_INTERVAL),
    ]
    for namespace in OPEN_NAMESPACES:
        cmd.extend(["--open-namespace", namespace])
    if not spec.batch_verify:
        cmd.append("--no-batch-verify")
    return cmd


class ProcessCluster:
    """Launches and supervises one ``serve`` worker per replica group.

    ``spec`` names the fleet: ``f``, ``seed``, ``variant``, ``scheme``,
    ``host``, ``fsync`` and ``batch_verify`` reach every worker's command
    line, ``workers`` partitions the ``3f+1`` replicas, and ``data_dir``
    (required) holds the worker directories and ``cluster.json``.
    """

    def __init__(
        self, spec: DeploymentSpec, *, auto_restart: bool = False
    ) -> None:
        if spec.data_dir is None:
            raise QuorumConfigError("a process cluster needs spec.data_dir")
        self.spec = spec
        self.data_dir = str(spec.data_dir)
        self.auto_restart = auto_restart
        node_ids = QuorumSystem.bft_bc(spec.f).replica_ids
        count = spec.n if spec.workers is None else spec.workers
        # Partition the n replicas across the workers round-robin; with the
        # default one-worker-per-replica layout each group is a singleton.
        groups: list[list[str]] = [[] for _ in range(count)]
        for position, node_id in enumerate(node_ids):
            groups[position % count].append(node_id)
        self.workers: list[WorkerHandle] = [
            WorkerHandle(
                index=index,
                node_ids=tuple(group),
                data_dir=str(Path(self.data_dir) / f"worker-{index}"),
            )
            for index, group in enumerate(groups)
        ]
        self._lock = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        #: Worker crashes observed by the monitor (before any restart).
        self.crashes = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> dict[str, tuple[str, int]]:
        """Spawn every worker; block until all replicas have announced.

        Returns the full ``node_id -> (host, port)`` address book.  If any
        worker fails to announce, every worker spawned so far is stopped
        before the error propagates.
        """
        Path(self.data_dir).mkdir(parents=True, exist_ok=True)
        try:
            for worker in self.workers:
                self._spawn(worker)
            deadline = time.monotonic() + START_TIMEOUT
            for worker in self.workers:
                self._await_announcements(worker, deadline)
        except BaseException:
            self.stop()
            raise
        self._write_state()
        if self.auto_restart:
            self._stopping.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self.addrs

    def _spawn(self, worker: WorkerHandle, *, pin_ports: bool = False) -> None:
        Path(worker.data_dir).mkdir(parents=True, exist_ok=True)
        if pin_ports:
            ports = ",".join(
                str(worker.addrs.get(node_id, ("", 0))[1])
                for node_id in worker.node_ids
            )
        else:
            ports = "0"
        worker.log_path = str(Path(worker.data_dir) / "worker.log")
        log = open(worker.log_path, "ab")
        try:
            worker.process = subprocess.Popen(
                serve_command(self.spec, worker, ports),
                stdout=subprocess.PIPE,
                stderr=log,
                env=_worker_env(),
            )
        finally:
            log.close()
        worker.addrs = {} if not pin_ports else dict(worker.addrs)

    def _await_announcements(self, worker: WorkerHandle, deadline: float) -> None:
        """Read the worker's stdout until every hosted replica announced."""
        process = worker.process
        assert process is not None and process.stdout is not None
        pending = set(worker.node_ids)
        stdout: IO[bytes] = process.stdout
        while pending:
            if time.monotonic() > deadline:
                raise NetworkError(
                    f"worker {worker.index} did not announce {sorted(pending)} "
                    f"within {START_TIMEOUT}s (log: {worker.log_path})"
                )
            line = stdout.readline()
            if not line:
                raise NetworkError(
                    f"worker {worker.index} exited during startup "
                    f"(code {process.poll()}, log: {worker.log_path})"
                )
            try:
                event = json.loads(line)
            except ValueError:
                continue  # human-readable chatter is fine to skip
            if event.get("event") != "listening":
                continue
            node_id = event["node_id"]
            worker.addrs[node_id] = (event["host"], int(event["port"]))
            pending.discard(node_id)
        # Startup is done; keep draining stdout in the background so the
        # child never blocks on a full pipe.
        threading.Thread(
            target=_drain, args=(stdout,), daemon=True
        ).start()

    @property
    def addrs(self) -> dict[str, tuple[str, int]]:
        book: dict[str, tuple[str, int]] = {}
        for worker in self.workers:
            book.update(worker.addrs)
        return book

    # -- supervision ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(MONITOR_INTERVAL):
            for worker in self.workers:
                with self._lock:
                    if self._stopping.is_set() or worker.alive:
                        continue
                    self.crashes += 1
                    self.restart(worker)

    def restart(self, worker: WorkerHandle) -> None:
        """Respawn a dead worker on its data directory and original ports.

        The replicas recover from their WALs; reusing the announced ports
        keeps every other process's address book valid, so clients simply
        re-dial on their retransmission timers.
        """
        self._spawn(worker, pin_ports=True)
        deadline = time.monotonic() + START_TIMEOUT
        self._await_announcements(worker, deadline)
        # Incremented only once the worker has re-announced: observers
        # polling ``restarts`` may rely on the replicas listening again.
        worker.restarts += 1
        self._write_state()

    def worker_for(self, node_id: str) -> WorkerHandle:
        for worker in self.workers:
            if node_id in worker.node_ids:
                return worker
        raise KeyError(node_id)

    def kill(self, node_id: str, *, sig: int = signal.SIGKILL) -> WorkerHandle:
        """Send ``sig`` (default ``SIGKILL``) to the worker hosting a replica."""
        worker = self.worker_for(node_id)
        if worker.process is not None and worker.alive:
            worker.process.send_signal(sig)
            worker.process.wait(timeout=10)
        return worker

    def status(self) -> list[dict[str, Any]]:
        """One row per worker: its ``cluster.json`` entry plus liveness."""
        return [
            dict(row, alive=worker.alive)
            for row, worker in zip(self._worker_table(), self.workers)
        ]

    def stop(self, *, grace: float = 5.0) -> None:
        """Terminate every worker (SIGTERM, then SIGKILL after ``grace``)."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=grace)
            self._monitor = None
        with self._lock:
            for worker in self.workers:
                process = worker.process
                if process is None or process.poll() is not None:
                    continue
                process.terminate()
            for worker in self.workers:
                process = worker.process
                if process is None:
                    continue
                try:
                    process.wait(timeout=grace)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=grace)
        self._clear_state()

    # -- state file (CLI handoff) -------------------------------------------

    def _state_path(self) -> Path:
        return Path(self.data_dir) / STATE_FILE

    def _worker_table(self) -> list[dict[str, Any]]:
        return [
            {
                "index": worker.index,
                "node_ids": list(worker.node_ids),
                "data_dir": worker.data_dir,
                "pid": worker.pid,
                "addrs": {
                    node_id: list(addr) for node_id, addr in worker.addrs.items()
                },
                "restarts": worker.restarts,
            }
            for worker in self.workers
        ]

    def _write_state(self) -> None:
        state = {"spec": self.spec.to_wire(), "workers": self._worker_table()}
        path = self._state_path()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=2, sort_keys=True))
        tmp.replace(path)

    def _clear_state(self) -> None:
        try:
            self._state_path().unlink()
        except FileNotFoundError:
            pass

    @staticmethod
    def read_state(data_dir: str) -> Optional[dict]:
        """The recorded state of a cluster previously started here."""
        path = Path(data_dir) / STATE_FILE
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            return None

    def __enter__(self) -> "ProcessCluster":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _drain(stream: IO[bytes]) -> None:
    try:
        while stream.read(65536):
            pass
    except (OSError, ValueError):
        pass
