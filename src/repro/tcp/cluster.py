"""Multi-process cluster launcher for the TCP runtime.

``python -m repro cluster serve`` runs ONE replica process from a JSON
cluster config; :class:`ProcessCluster` spawns N of them as
subprocesses, waits for them to answer pings, and exposes the
process-level fault injectors the chaos harness uses: SIGKILL, restart
(same WAL, same port), and forced connection resets via the admin
``reset_link`` operation.

The config file is the single source of cluster truth -- placements,
per-replica ports, runtime tuning -- so a replica process needs nothing
but the file and its own name, and a restarted process recovers purely
from its WAL.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.tcp.client import ClusterClient
from repro.tcp.runtime import TcpConfig, TcpReplicaServer


# ----------------------------------------------------------------------
# Config file
# ----------------------------------------------------------------------
def write_cluster_config(
    path: str,
    placements: Dict[str, List[str]],
    ports: Dict[str, int],
    wal_dir: str,
    host: str = "127.0.0.1",
    config: Optional[TcpConfig] = None,
) -> None:
    doc = {
        "placements": {r: sorted(regs) for r, regs in placements.items()},
        "ports": ports,
        "wal_dir": wal_dir,
        "host": host,
        "config": dataclasses.asdict(config or TcpConfig()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def read_cluster_config(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("placements", "ports", "wal_dir", "host"):
        if key not in doc:
            raise ConfigurationError(f"cluster config missing {key!r}")
    # The file may come from another version: name a setting this one
    # lacks instead of dying in ``TcpConfig(**...)`` with a TypeError.
    known = {f.name for f in dataclasses.fields(TcpConfig)}
    unknown = sorted(set(doc.get("config", {})) - known)
    if unknown:
        raise ConfigurationError(
            f"cluster config {path!r} has unknown settings {unknown}; "
            f"TcpConfig accepts {sorted(known)}"
        )
    return doc


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` currently free TCP ports (best effort)."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


# ----------------------------------------------------------------------
# One replica process (the `cluster serve` entry point)
# ----------------------------------------------------------------------
async def serve_replica(config_path: str, replica: str) -> int:
    doc = read_cluster_config(config_path)
    placements = {r: set(regs) for r, regs in doc["placements"].items()}
    if replica not in placements:
        raise ConfigurationError(f"replica {replica!r} not in config")
    addresses = {
        r: (doc["host"], int(port)) for r, port in doc["ports"].items()
    }
    cfg = TcpConfig(**doc.get("config", {}))
    server = TcpReplicaServer(
        replica,
        placements,
        addresses,
        wal_path=os.path.join(doc["wal_dir"], f"replica-{replica}.wal"),
        config=cfg,
        host=doc["host"],
        port=int(doc["ports"][replica]),
    )
    await server.start()
    try:
        while server.running:
            await asyncio.sleep(0.05)
    finally:
        if server.running:
            await server.shutdown()
    return 0


# ----------------------------------------------------------------------
# Subprocess supervisor
# ----------------------------------------------------------------------
class ProcessCluster:
    """Spawn and supervise one OS process per replica.

    Not an asyncio transport itself -- process control is synchronous
    (spawn/kill/poll); talking to the replicas goes through
    :class:`~repro.tcp.client.ClusterClient` as for any other client.
    """

    def __init__(
        self,
        placements: Dict[str, List[str]],
        workdir: str,
        config: Optional[TcpConfig] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.placements = placements
        self.workdir = workdir
        self.host = host
        self.config = config or TcpConfig()
        os.makedirs(workdir, exist_ok=True)
        self.wal_dir = os.path.join(workdir, "wal")
        os.makedirs(self.wal_dir, exist_ok=True)
        names = sorted(placements)
        self.ports = dict(zip(names, free_ports(len(names), host)))
        self.config_path = os.path.join(workdir, "cluster.json")
        write_cluster_config(
            self.config_path,
            placements,
            self.ports,
            self.wal_dir,
            host,
            self.config,
        )
        self.addresses: Dict[str, Tuple[str, int]] = {
            r: (host, p) for r, p in self.ports.items()
        }
        self.processes: Dict[str, subprocess.Popen] = {}

    # -- process control -------------------------------------------------
    def spawn(self, replica: str) -> None:
        if replica in self.processes and self.processes[replica].poll() is None:
            raise ConfigurationError(f"replica {replica!r} already running")
        log = open(
            os.path.join(self.workdir, f"replica-{replica}.log"), "a"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.processes[replica] = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "cluster",
                "serve",
                "--config",
                self.config_path,
                "--replica",
                replica,
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        log.close()  # the child holds its own handle

    def start_all(self) -> None:
        for replica in sorted(self.placements):
            self.spawn(replica)

    def sigkill(self, replica: str) -> None:
        """The real thing: no handlers run, no flush, no goodbye."""
        proc = self.processes.get(replica)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

    def restart(self, replica: str) -> None:
        self.sigkill(replica)
        self.spawn(replica)

    def sigstop(self, replica: str) -> None:
        """Freeze the process: established sockets stay open but go
        silent, which is exactly what a link partition or a GC/IO stall
        looks like to the peers' heartbeat failure detectors."""
        proc = self.processes.get(replica)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGSTOP)

    def sigcont(self, replica: str) -> None:
        """Thaw a SIGSTOPped process (heals a partition/stall window)."""
        proc = self.processes.get(replica)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGCONT)

    def alive(self, replica: str) -> bool:
        proc = self.processes.get(replica)
        return proc is not None and proc.poll() is None

    def terminate_all(self) -> None:
        for proc in self.processes.values():
            if proc.poll() is None:
                proc.kill()
        for proc in self.processes.values():
            if proc.poll() is None:
                proc.wait()

    # -- readiness / convergence ----------------------------------------
    async def wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every spawned replica answers a ping."""
        client = ClusterClient("boot-probe", self.addresses, op_timeout=1.0)
        deadline = time.monotonic() + timeout
        pending = set(self.processes)
        try:
            while pending:
                if time.monotonic() > deadline:
                    raise ConfigurationError(
                        f"replicas never became ready: {sorted(pending)}"
                    )
                for replica in sorted(pending):
                    try:
                        reply = await client.admin(replica, {"op": "ping"})
                    except Exception:
                        continue
                    if reply.get("ok"):
                        pending.discard(replica)
                await asyncio.sleep(0.1)
        finally:
            await client.close()

    async def statuses(
        self, op_timeout: float = 1.0
    ) -> Dict[str, Dict[str, Any]]:
        """The ``status`` of every live replica that answers within
        ``op_timeout`` (a SIGSTOPped one costs exactly that long)."""
        client = ClusterClient(
            "status-probe", self.addresses, op_timeout=op_timeout
        )
        out: Dict[str, Dict[str, Any]] = {}
        try:
            for replica in sorted(self.placements):
                if not self.alive(replica):
                    continue
                try:
                    out[replica] = await client.status(replica)
                except Exception:
                    continue
        finally:
            await client.close()
        return out

    def converged(self, statuses: Dict[str, Dict[str, Any]]) -> bool:
        """Cursor-equality convergence over the status snapshots.

        Mirrors :meth:`repro.tcp.runtime.TcpCluster.converged`, computed
        from each replica's reported timestamp: for every directed edge
        between two reporting replicas, the sender's counter must equal
        the receiver's, and nobody may hold pending updates.
        """
        if not statuses:
            return False
        counters: Dict[Tuple[str, str, str], int] = {}
        for replica, status in statuses.items():
            if status.get("pending"):
                return False
            for a, b, n in status.get("timestamp", ()):
                counters[(replica, a, b)] = n
        for a in statuses:
            for b in statuses:
                if (a, a, b) in counters and counters[(a, a, b)] != counters.get(
                    (b, a, b), -1
                ):
                    return False
        return True

    async def settle(self, timeout: float = 30.0) -> Dict[str, Dict[str, Any]]:
        deadline = time.monotonic() + timeout
        while True:
            statuses = await self.statuses()
            if len(statuses) == len(self.placements) and self.converged(
                statuses
            ):
                return statuses
            if time.monotonic() > deadline:
                raise ConfigurationError(
                    f"process cluster failed to settle: {statuses}"
                )
            await asyncio.sleep(0.2)

    async def shutdown_all(self, timeout: float = 15.0) -> None:
        client = ClusterClient("shutdown-probe", self.addresses, op_timeout=1.0)
        try:
            for replica in sorted(self.placements):
                if self.alive(replica):
                    try:
                        await client.admin(replica, {"op": "shutdown"})
                    except Exception:
                        pass
        finally:
            await client.close()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(
            self.alive(r) for r in self.processes
        ):
            await asyncio.sleep(0.1)
        self.terminate_all()

    def wal_path(self, replica: str) -> str:
        return os.path.join(self.wal_dir, f"replica-{replica}.wal")
