"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``      — write/read workload on each protocol variant, with metrics.
* ``attacks``   — run the §3.2 Byzantine-client attack catalogue.
* ``compare``   — BFT-BC vs BQS vs Phalanx on one workload (E8-style table).
* ``simulate``  — a configurable workload (clients, ops, loss, f, variant).
* ``metrics``   — run an instrumented workload; print the per-phase latency
  table or Prometheus-style text exposition.
* ``trace``     — run an instrumented workload; dump its spans as JSON lines.
* ``serve``     — host one or more durable replicas over TCP, journaling to
  a data directory and recovering from it on startup; ``--announce`` prints
  a JSON line per bound port for orchestrators.
* ``cluster``   — ``up`` spawns one ``serve`` worker process per replica
  (recording the fleet in ``cluster.json``), ``status`` shows liveness,
  ``down`` terminates the fleet.
* ``chaos``     — seed-deterministic fault campaigns with invariant oracles:
  ``chaos run`` sweeps simulated episodes (auto-minimizing any violation to
  a replayable artifact), ``chaos replay`` re-executes an artifact, and
  ``chaos tcp`` runs the byte-mangling proxy campaign against the real
  transport.
* ``load``      — open-loop production load (Poisson arrivals, zipfian
  popularity, huge cold identity universe) judged against SLO targets, on
  the virtual-time simulator or over real TCP (``--tcp``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro import DeploymentSpec, Instrumentation, Variant

VARIANT_CHOICES = tuple(v.value for v in Variant)


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.sim import build_cluster, read_script, write_script
    from repro.spec import check_register_linearizable

    rows = []
    for variant in Variant:
        cluster = build_cluster(f=args.f, variant=variant, seed=args.seed)
        node = cluster.add_client("demo")
        node.run_script(write_script("client:demo", 5) + read_script(3))
        cluster.run()
        rows.append(
            [
                variant,
                cluster.metrics.phases_summary("write").p50,
                cluster.metrics.phases_summary("read").p50,
                cluster.network.stats.messages_sent,
                "yes" if check_register_linearizable(cluster.history).ok else "NO",
            ]
        )
    print(
        format_table(
            ["variant", "write phases", "read phases", "messages", "atomic"],
            rows,
            title=f"BFT-BC demo (f={args.f}, 5 writes + 3 reads)",
        )
    )
    return 0


def cmd_attacks(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.byzantine import make_attack
    from repro.sim import build_cluster
    from repro.spec import count_lurking_writes

    rows = []
    for name, label, achieved, verdict in (
        ("equivocation", "equivocation",
         lambda a: f"{a.quorums_reached} certificates", "blocked"),
        ("ts-exhaustion", "ts-exhaustion",
         lambda a: f"{a.replies} prepare replies", "blocked"),
        ("lurking", "lurking-writes",
         lambda a: f"hoard {len(a.hoard)}", "bounded at 1"),
    ):
        cluster = build_cluster(f=args.f, seed=args.seed)
        attack = cluster.add_adversary(
            make_attack(name, "client:evil", cluster.config)
        )
        cluster.run(max_time=60)
        result = achieved(attack)
        if hasattr(attack, "hoard"):
            cluster.release_hoard(attack)
            lurking = count_lurking_writes(cluster.history, attack.node_id)
            result += f", seen {lurking}"
        rows.append([label, result, verdict])

    print(
        format_table(
            ["attack", "attacker achieved", "verdict"],
            rows,
            title=f"§3.2 attack catalogue vs BFT-BC (f={args.f})",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.baselines.runner import build_bqs_cluster, build_phalanx_cluster
    from repro.sim import build_cluster, read_script, write_script

    ops = 6
    rows = []
    systems = {
        "BQS": build_bqs_cluster(f=args.f, seed=args.seed),
        "Phalanx": build_phalanx_cluster(f=args.f, seed=args.seed),
        "BFT-BC": build_cluster(f=args.f, seed=args.seed),
        "BFT-BC opt": build_cluster(f=args.f, variant="optimized", seed=args.seed),
    }
    for name, cluster in systems.items():
        node = cluster.add_client("w")
        node.run_script(write_script("client:w", ops) + read_script(ops))
        cluster.run()
        rows.append(
            [
                name,
                cluster.config.n,
                cluster.metrics.phases_summary("write").p50,
                cluster.network.stats.messages_sent / (2 * ops),
                cluster.network.stats.bytes_sent // (2 * ops),
            ]
        )
    print(
        format_table(
            ["system", "replicas", "write phases", "msgs/op", "bytes/op"],
            rows,
            title=f"protocol comparison (f={args.f})",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.net.simnet import LinkProfile
    from repro.sim import build_cluster, make_scripts
    from repro.spec import check_register_linearizable

    profile = LinkProfile(
        drop_rate=args.loss, max_delay=args.max_delay, duplicate_rate=args.dup
    )
    cluster = build_cluster(
        f=args.f, variant=args.variant, seed=args.seed, profile=profile
    )
    names = [f"client:w{i}" for i in range(args.clients)]
    scripts = make_scripts(
        names, args.ops, write_fraction=args.write_fraction, seed=args.seed
    )
    cluster.run_scripts(
        {name.split(":")[1]: s for name, s in scripts.items()},
        max_time=600,
    )
    report = check_register_linearizable(cluster.history)
    print(f"completed {cluster.metrics.operations} operations "
          f"in {cluster.scheduler.now:.2f}s virtual time")
    print(f"write latency p50/p95: "
          f"{cluster.metrics.latency_summary('write').p50 * 1000:.1f} / "
          f"{cluster.metrics.latency_summary('write').p95 * 1000:.1f} ms")
    print(f"messages: {cluster.network.stats.messages_sent} "
          f"({cluster.network.stats.messages_dropped} dropped)")
    if Variant.coerce(args.variant).protocol.fast_path:
        print(f"fast-path rate: {cluster.metrics.fast_path_rate():.0%}")
    print(f"linearizable: {report.ok}")
    return 0 if report.ok else 1


def _run_instrumented(args: argparse.Namespace) -> Instrumentation:
    """Run the shared metrics/trace workload under a fresh instrumentation."""
    from repro.sim import build_cluster, make_scripts

    instr = Instrumentation()
    cluster = build_cluster(
        f=args.f, variant=args.variant, seed=args.seed, instrumentation=instr
    )
    names = [f"client:w{i}" for i in range(args.clients)]
    scripts = make_scripts(
        names, args.ops, write_fraction=args.write_fraction, seed=args.seed
    )
    cluster.run_scripts(
        {name.split(":")[1]: s for name, s in scripts.items()}, max_time=600
    )
    return instr


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis import format_phase_breakdown
    from repro.obs import render_prometheus

    instr = _run_instrumented(args)
    if args.format == "prometheus":
        print(render_prometheus(instr.histograms, sources=instr.sources), end="")
    else:
        print(format_phase_breakdown(instr))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import spans_to_jsonl

    instr = _run_instrumented(args)
    dump = spans_to_jsonl(instr.spans())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(dump)
        print(f"wrote {len(instr.spans())} spans to {args.output}")
    else:
        print(dump, end="")
    return 0


def _parse_ports(port: str, count: int) -> list[int]:
    """``--port`` accepts one value or a comma list matching the node ids.

    A single ``0`` fans out to every hosted replica (all ephemeral); a
    single non-zero port only works for a single replica.
    """
    values = [int(part) for part in str(port).split(",")]
    if len(values) == 1 and count > 1:
        if values[0] != 0:
            raise ValueError(
                "a fixed --port cannot be shared by several replicas; "
                "pass a comma-separated list"
            )
        values = values * count
    if len(values) != count:
        raise ValueError(
            f"--port lists {len(values)} ports for {count} node ids"
        )
    return values


def add_spec_flags(command: argparse.ArgumentParser, data_dir_help: str) -> None:
    """The flags ``serve`` and ``cluster up`` share; read by
    :func:`spec_from_flags`."""
    command.add_argument("--data-dir", required=True, help=data_dir_help)
    command.add_argument("--variant", choices=VARIANT_CHOICES, default="base")
    command.add_argument("--scheme", choices=("hmac", "rsa"), default="hmac")
    command.add_argument("--host", default="127.0.0.1")
    command.add_argument("--fsync", choices=("always", "never"), default="always")


def spec_from_flags(args: argparse.Namespace, **fields: Any) -> DeploymentSpec:
    """The spec :func:`add_spec_flags`' flags describe; for ``serve`` the
    inverse of :func:`repro.cluster.process.serve_command`."""
    return DeploymentSpec(
        f=args.f,
        variant=args.variant,
        scheme=args.scheme,
        seed=args.seed,
        store="file",
        data_dir=args.data_dir,
        fsync=args.fsync,
        host=args.host,
        **fields,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.cluster.deploy import ReplicaGroup

    spec = spec_from_flags(args, transport="tcp")
    # Every worker process builds the deployment's one configuration, so
    # key material and admitted client namespaces agree fleet-wide.
    config = spec.make_config(args.open_namespace or ["client:"])
    unknown = [
        node_id
        for node_id in args.node_ids
        if node_id not in config.quorums.replica_ids
    ]
    if unknown:
        print(
            f"unknown node id(s) {unknown}; "
            f"expected among {list(config.quorums.replica_ids)}",
            file=sys.stderr,
        )
        return 1
    try:
        ports = _parse_ports(args.port, len(args.node_ids))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    def peer_addrs() -> "dict[str, tuple[str, int]]":
        """The cluster address book, re-read from the orchestrator's state
        file on every audit tick (it may not exist yet at startup)."""
        import pathlib

        if not args.peers_file:
            return {}
        try:
            state = json.loads(pathlib.Path(args.peers_file).read_text())
        except (OSError, ValueError):
            return {}
        book: dict[str, tuple[str, int]] = {}
        for worker in state.get("workers", []):
            for node_id, addr in worker.get("addrs", {}).items():
                if node_id not in args.node_ids and len(addr) == 2:
                    book[node_id] = (addr[0], int(addr[1]))
        return book

    async def run() -> None:
        group = await ReplicaGroup.start(
            spec, config, node_ids=args.node_ids, ports=ports
        )
        for node_id, (host, port) in group.addrs.items():
            # The announcement contract: one flushed line per replica, so
            # an orchestrator (or a human with --port 0) learns the
            # ephemeral addresses without polling or races.
            if args.announce:
                print(
                    json.dumps(
                        {
                            "event": "listening",
                            "node_id": node_id,
                            "host": host,
                            "port": port,
                        },
                        sort_keys=True,
                    ),
                    flush=True,
                )
            else:
                print(
                    f"replica {node_id} serving on {host}:{port} "
                    f"(data dir {args.data_dir}, fsync={args.fsync})",
                    flush=True,
                )
        tasks = []
        if args.audit_interval > 0:
            tasks = [
                asyncio.ensure_future(
                    server.stabilization_loop(
                        peer_addrs, interval=args.audit_interval
                    )
                )
                for server in group.servers.values()
            ]
        try:
            await asyncio.Event().wait()
        finally:
            for task in tasks:
                task.cancel()
            await group.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    import json
    import os
    import signal as signal_module

    from repro.cluster import ProcessCluster

    if args.cluster_command == "up":
        spec = spec_from_flags(args, transport="process", workers=args.workers)
        addrs = ProcessCluster(spec).start()
        # Detached by design: the workers outlive this command, the state
        # file records them, and `cluster down` reaps them later.
        for node_id, (host, port) in sorted(addrs.items()):
            print(f"{node_id} listening on {host}:{port}")
        print(f"state recorded in {os.path.join(args.data_dir, 'cluster.json')}")
        return 0

    state = ProcessCluster.read_state(args.data_dir)
    if state is None:
        print(f"no cluster state under {args.data_dir}", file=sys.stderr)
        return 1

    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    if args.cluster_command == "status":
        from repro.analysis import format_table

        spec = DeploymentSpec.from_wire(state["spec"])
        rows = []
        for worker in state["workers"]:
            pid = worker.get("pid")
            alive = pid is not None and _pid_alive(pid)
            for node_id in worker["node_ids"]:
                host, port = worker["addrs"].get(node_id, ("?", 0))
                rows.append(
                    [node_id, worker["index"], pid, host, port,
                     "up" if alive else "DOWN"]
                )
        if args.json:
            print(json.dumps(state, indent=2, sort_keys=True))
        else:
            print(
                format_table(
                    ["replica", "worker", "pid", "host", "port", "state"],
                    rows,
                    title=f"cluster under {args.data_dir} "
                          f"(f={spec.f}, variant={spec.variant})",
                )
            )
        return 0

    # down
    reaped = 0
    for worker in state["workers"]:
        pid = worker.get("pid")
        if pid is None or not _pid_alive(pid):
            continue
        try:
            os.kill(pid, signal_module.SIGTERM)
            reaped += 1
        except (ProcessLookupError, PermissionError):
            continue
    try:
        os.unlink(os.path.join(args.data_dir, "cluster.json"))
    except FileNotFoundError:
        pass
    print(f"terminated {reaped} worker(s)")
    return 0


def _replay(args: argparse.Namespace) -> int:
    """``chaos replay``: either kind of artifact (the format tag picks the
    engine)."""
    import json

    from repro.chaos import replay_artifact

    outcome = replay_artifact(args.artifact)
    actual = outcome.actual
    if args.json:
        print(json.dumps(
            {
                "note": outcome.note,
                "expected": dict(sorted(outcome.expected.items())),
                "actual": dict(sorted(actual.items())),
                "matches": outcome.matches,
            },
            indent=2, sort_keys=True,
        ))
    else:
        if outcome.note:
            print(f"note: {outcome.note}")
        for name in sorted(outcome.expected):
            expected, got = outcome.expected[name], actual.get(name)
            marker = "ok" if got == expected else "MISMATCH"
            print(f"{name}: expected {expected}, got {got} [{marker}]")
        print("replay matches" if outcome.matches else "replay DIVERGED")
    return 0 if outcome.matches else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import format_campaign
    from repro.chaos import CampaignConfig, run_campaign
    from repro.chaos.tcp import TcpChaosConfig, run_tcp_campaign

    if args.chaos_command == "run":
        config = CampaignConfig(
            seed=args.seed,
            episodes=args.episodes,
            f=args.f,
            variants=tuple(args.variants.split(",")),
        )
        campaign = run_campaign(
            config,
            minimize=not args.no_minimize,
            artifact_dir=args.artifact_dir,
        )
        summary = campaign.summary()
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_campaign(summary))
        return 0 if not summary["violations"] else 1

    if args.chaos_command == "replay":
        return _replay(args)

    summary = run_tcp_campaign(TcpChaosConfig(seed=args.seed, f=args.f))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_campaign(summary))
    return 0 if summary["ok"] else 1


def cmd_storage(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.storage.filelog import FileLogStore

    root = pathlib.Path(args.data_dir)
    if not root.exists():
        print(f"no such data directory: {root}", file=sys.stderr)
        return 2
    # A directory holding wal.bin is one store; otherwise scrub every
    # immediate subdirectory that holds one (a cluster root).
    if (root / "wal.bin").exists():
        targets = [root]
    else:
        targets = sorted(
            child for child in root.iterdir()
            if child.is_dir() and (child / "wal.bin").exists()
        )
    if not targets:
        print(f"no replica stores under {root}", file=sys.stderr)
        return 2
    reports = {}
    clean = True
    for directory in targets:
        store = FileLogStore(directory, snapshot_interval=None)
        report = store.scrub()
        reports[str(directory)] = report
        clean = clean and report["clean"]
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0 if clean else 1
    for directory, report in reports.items():
        verdict = "clean" if report["clean"] else "CORRUPT"
        print(f"{directory}: {verdict}")
        print(f"  records verified {report['records_verified']}, "
              f"torn {report['torn_records']}, "
              f"corrupt {report['corrupt_records']}, "
              f"corrupt snapshots {report['corrupt_snapshots']}")
    print("scrub clean" if clean else "scrub found damage — "
          "quarantine the replica and repair from peers")
    return 0 if clean else 1


def cmd_shard(args: argparse.Namespace) -> int:
    import json

    from repro.chaos.shard import ShardEpisodePlan, run_shard_episode
    from repro.sim.shard_cluster import build_shard_cluster, member_id

    if args.shard_command == "demo":
        cluster = build_shard_cluster(
            shards=args.shards, f=args.f, seed=args.seed,
            service_delay=args.service_delay,
        )
        scripts = {
            f"w{c}": [
                (f"obj:{c}-{i % args.objects}", "write", f"w{c}-{i}")
                for i in range(args.ops)
            ]
            for c in range(args.clients)
        }
        cluster.run_scripts(scripts)
        elapsed = cluster.scheduler.now
        counts = cluster.ring.distribution(
            obj for script in scripts.values() for obj, _, _ in script
        )
        print(f"{args.shards} shard(s), {args.clients} client(s), "
              f"{cluster.total_ops()} ops in {elapsed:.3f}s virtual "
              f"({cluster.total_ops() / elapsed:.0f} ops/s)")
        for shard in cluster.shard_ids:
            print(f"  {shard}: epoch {cluster.directory.epoch(shard)}, "
                  f"{counts.get(shard, 0)} ops routed")
        return 0

    # shard rebalance
    shard = "shard:0"
    plan = ShardEpisodePlan(
        seed=args.seed,
        shards=args.shards,
        f=args.f,
        clients=args.clients,
        ops_per_client=args.ops,
        objects=args.objects,
        handoff=0.15,
        profile={"min_delay": 0.001, "max_delay": 0.02,
                 "drop_rate": 0.05, "reorder_rate": 0.1},
        reconfigurations=[
            {"time": 0.3, "shard": shard,
             "remove": member_id(0, 1), "add": "replica:s0nX",
             "crash_old": True},
        ],
    )
    result = run_shard_episode(plan)
    payload = {
        "ok": result.ok,
        "violated": list(result.violated),
        "stats": result.stats,
        "verdicts": {
            name: verdict.ok
            for name, verdict in result.verdicts.items()
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"replaced {member_id(0, 1)} with replica:s0nX in {shard} "
              f"under live traffic")
        for name, verdict in result.verdicts.items():
            mark = "ok" if verdict.ok else "VIOLATED"
            detail = f" — {verdict.detail}" if verdict.detail else ""
            print(f"  {name}: {mark}{detail}")
        print(f"stats: {result.stats}")
    return 0 if result.ok else 1



def cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.core.persistence import ClientStateBudget
    from repro.load import LoadProfile, run_open_loop, run_tcp_load

    profile_kwargs = dict(
        identities=args.identities,
        objects=args.objects,
        write_fraction=args.write_fraction,
        zipf_skew=args.zipf_skew,
        seed=args.seed,
        identity_policy=args.identity_policy,
    )
    if args.burst > 1.0:
        profile = LoadProfile.bursty(
            args.rate, args.duration,
            burst_multiplier=args.burst, **profile_kwargs,
        )
    else:
        profile = LoadProfile.sustained(
            args.rate, args.duration, **profile_kwargs
        )
    budget = (
        ClientStateBudget(hot_entries=args.budget) if args.budget else None
    )
    if args.tcp:
        report = run_tcp_load(
            profile, f=args.f, variant=args.variant, budget=budget
        )
    else:
        report = run_open_loop(
            profile,
            f=args.f,
            variant=args.variant,
            service_delay=args.service_delay,
            budget=budget,
            secret_cache=args.secret_cache,
        )
    if args.json:
        print(json.dumps(report.to_wire(), indent=2, sort_keys=True))
        return 0 if report.slo_ok else 1
    mode = "tcp (wall clock)" if args.tcp else "sim (virtual time)"
    print(f"open-loop load on {mode}: variant={args.variant}, f={args.f}")
    print(f"  arrivals {report.arrivals} (offered {report.offered_rate:.0f}/s), "
          f"completed {report.completed}, failed {report.failed}")
    print(f"  distinct identities {report.distinct_identities} "
          f"of a {profile.identities}-identity universe")
    if report.predicted_capacity != float("inf"):
        print(f"  predicted capacity {report.predicted_capacity:.0f}/s "
              f"(utilization {report.utilization:.0%})")
    print(f"  write p50/p95/p99: {report.write_p50 * 1000:.1f} / "
          f"{report.write_p95 * 1000:.1f} / {report.write_p99 * 1000:.1f} ms")
    print(f"  read  p50/p95/p99: {report.read_p50 * 1000:.1f} / "
          f"{report.read_p95 * 1000:.1f} / {report.read_p99 * 1000:.1f} ms")
    for key, value in sorted(report.identity.items()):
        print(f"  identity.{key}: {value}")
    for verdict in report.slos:
        mark = "ok" if verdict.ok else "VIOLATED"
        bound = ">=" if verdict.metric == "completion" else "<="
        print(f"  slo {verdict.metric} {bound} {verdict.limit}: "
              f"observed {verdict.observed:.4f} [{mark}]")
    print("SLOs met" if report.slo_ok else "SLOs VIOLATED")
    return 0 if report.slo_ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: global flags and every subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="BFT-BC (Liskov & Rodrigues, ICDCS 2006) demonstrations",
    )
    parser.add_argument("--f", type=int, default=1, help="fault threshold")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="workload on each protocol variant")
    sub.add_parser("attacks", help="the §3.2 attack catalogue")
    sub.add_parser("compare", help="BFT-BC vs BQS vs Phalanx")

    sim = sub.add_parser("simulate", help="configurable workload")
    sim.add_argument("--variant", choices=VARIANT_CHOICES, default="base")
    sim.add_argument("--clients", type=int, default=3)
    sim.add_argument("--ops", type=int, default=10)
    sim.add_argument("--write-fraction", type=float, default=0.5)
    sim.add_argument("--loss", type=float, default=0.05)
    sim.add_argument("--dup", type=float, default=0.0)
    sim.add_argument("--max-delay", type=float, default=0.01)

    metrics = sub.add_parser(
        "metrics", help="instrumented workload; latency histograms"
    )
    trace = sub.add_parser(
        "trace", help="instrumented workload; span dump as JSON lines"
    )
    for obs_parser in (metrics, trace):
        obs_parser.add_argument(
            "--variant", choices=VARIANT_CHOICES, default="strong"
        )
        obs_parser.add_argument("--clients", type=int, default=2)
        obs_parser.add_argument("--ops", type=int, default=6)
        obs_parser.add_argument("--write-fraction", type=float, default=0.5)
    metrics.add_argument(
        "--format", choices=("table", "prometheus"), default="table"
    )
    trace.add_argument("--output", help="write the JSON lines here (default stdout)")

    serve = sub.add_parser(
        "serve", help="host one or more durable replicas over TCP"
    )
    serve.add_argument("node_ids", nargs="+", metavar="node_id",
                       help="replica id(s), e.g. replica:0")
    add_spec_flags(serve, "directory for the WAL and snapshot (per-replica "
                          "subdirectories when hosting several)")
    serve.add_argument("--port", default="0",
                       help="listen port, or a comma list matching the node "
                            "ids; 0 picks an ephemeral port")
    serve.add_argument("--announce", action="store_true",
                       help="print one JSON line per replica once it is "
                            "listening (orchestrator port discovery)")
    serve.add_argument("--open-namespace", action="append", default=None,
                       metavar="PREFIX",
                       help="client-id namespace(s) whose signatures verify "
                            "without explicit registration (default: client:)")
    serve.add_argument("--peers-file", default=None,
                       help="orchestrator state file (cluster.json) naming "
                            "peer addresses; enables quarantine repair")
    serve.add_argument("--audit-interval", type=float, default=0.0,
                       help="seconds between periodic self-audits "
                            "(0 disables the stabilization loop)")

    cluster = sub.add_parser(
        "cluster", help="manage a multi-process replica cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_up = cluster_sub.add_parser(
        "up", help="spawn one serve worker per replica and record the fleet"
    )
    add_spec_flags(cluster_up, "root directory for worker data dirs and "
                               "the cluster state file")
    cluster_up.add_argument("--workers", type=int, default=None,
                            help="worker processes to spread the 3f+1 "
                                 "replicas across (default: one each)")
    cluster_status = cluster_sub.add_parser(
        "status", help="show the recorded fleet and its liveness"
    )
    cluster_status.add_argument("--data-dir", required=True)
    cluster_status.add_argument("--json", action="store_true")
    cluster_down = cluster_sub.add_parser(
        "down", help="terminate the recorded fleet"
    )
    cluster_down.add_argument("--data-dir", required=True)

    chaos = sub.add_parser(
        "chaos", help="fault campaigns with invariant oracles"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run", help="sweep simulated episodes derived from one seed"
    )
    # SUPPRESS: absent here, the pre-subcommand global --seed survives.
    chaos_run.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    chaos_run.add_argument("--episodes", type=int, default=25)
    chaos_run.add_argument(
        "--variants",
        default="base,optimized,strong",
        help="comma-separated protocol variants to round-robin",
    )
    chaos_run.add_argument(
        "--artifact-dir", help="write minimized repro artifacts here"
    )
    chaos_run.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging of violations",
    )
    chaos_run.add_argument("--json", action="store_true")
    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-execute a chaos artifact and compare verdicts"
    )
    chaos_replay.add_argument("artifact", help="path to a chaos artifact JSON")
    chaos_replay.add_argument("--json", action="store_true")
    chaos_tcp = chaos_sub.add_parser(
        "tcp", help="proxy campaign against the real TCP transport"
    )
    chaos_tcp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    chaos_tcp.add_argument("--json", action="store_true")

    shard = sub.add_parser(
        "shard", help="sharded deployments with online reconfiguration"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_demo = shard_sub.add_parser(
        "demo", help="route a workload across shards; show the placement"
    )
    shard_demo.add_argument("--shards", type=int, default=2)
    shard_demo.add_argument("--clients", type=int, default=3)
    shard_demo.add_argument("--ops", type=int, default=12)
    shard_demo.add_argument("--objects", type=int, default=8)
    # SUPPRESS: absent here, the pre-subcommand global --seed survives.
    shard_demo.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shard_demo.add_argument(
        "--service-delay", type=float, default=0.002,
        help="per-frame replica service time (models per-shard capacity)",
    )
    shard_rebalance = shard_sub.add_parser(
        "rebalance",
        help="replace a crashed member under live traffic; judge by oracles",
    )
    shard_rebalance.add_argument("--shards", type=int, default=2)
    shard_rebalance.add_argument("--clients", type=int, default=3)
    shard_rebalance.add_argument("--ops", type=int, default=24)
    shard_rebalance.add_argument("--objects", type=int, default=8)
    shard_rebalance.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shard_rebalance.add_argument("--json", action="store_true")

    storage = sub.add_parser(
        "storage", help="offline durable-store maintenance"
    )
    storage_sub = storage.add_subparsers(dest="storage_command", required=True)
    storage_scrub = storage_sub.add_parser(
        "scrub",
        help="re-verify every WAL record and snapshot seal, read-only",
    )
    storage_scrub.add_argument(
        "data_dir",
        help="one replica's data directory, or a cluster root whose "
             "subdirectories each hold one",
    )
    storage_scrub.add_argument("--json", action="store_true")

    load = sub.add_parser(
        "load", help="open-loop production load judged against SLOs"
    )
    load.add_argument("--rate", type=float, default=400.0,
                      help="base arrival rate, operations per second")
    load.add_argument("--duration", type=float, default=5.0,
                      help="arrival window, seconds")
    load.add_argument("--identities", type=int, default=10_000,
                      help="size of the client identity universe")
    load.add_argument("--objects", type=int, default=32)
    load.add_argument("--write-fraction", type=float, default=0.5)
    load.add_argument("--zipf-skew", type=float, default=1.1)
    load.add_argument("--identity-policy",
                      choices=("sequential", "uniform"), default="sequential")
    load.add_argument("--burst", type=float, default=1.0,
                      help="burst rate multiplier (>1 adds a centred spike)")
    load.add_argument("--variant", choices=VARIANT_CHOICES, default="optimized")
    load.add_argument("--service-delay", type=float, default=0.0005,
                      help="per-frame replica service time (sim only)")
    load.add_argument("--budget", type=int, default=0,
                      help="per-map hot-entry budget for client state "
                           "(0 = unbounded)")
    load.add_argument("--secret-cache", type=int, default=None,
                      help="registry derived-secret LRU capacity (sim only)")
    load.add_argument("--tcp", action="store_true",
                      help="run over real loopback TCP instead of the simulator")
    load.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "attacks": cmd_attacks,
        "compare": cmd_compare,
        "simulate": cmd_simulate,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "cluster": cmd_cluster,
        "chaos": cmd_chaos,
        "shard": cmd_shard,
        "storage": cmd_storage,
        "load": cmd_load,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
