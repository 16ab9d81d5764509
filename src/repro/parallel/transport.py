"""Pluggable boundary-flit transports for the space-partitioned fabric.

:mod:`repro.parallel.space_shard`'s token-window protocol only ever
touches its peers through two per-peer callables -- ``recv()`` (block
until the peer's next window batch) and ``send(batch)`` (ship one) --
so *how* the batches move is a free choice.  This module provides that
choice behind one interface:

``pipe`` (the default)
    One simplex :func:`multiprocessing.Pipe` per ordered partition
    pair, with explicit pickle framing so the bytes crossing each pipe
    are counted.

``socket``
    The same message protocol over TCP via
    :class:`multiprocessing.connection.Listener`/``Client``: the
    coordinator listens, ``P`` workers connect (either auto-spawned
    local processes, or ``python -m repro serve HOST:PORT`` processes
    on other machines), and boundary batches are relayed hub-and-spoke
    through the coordinator over each worker's single command
    connection.  ``"socket"`` spawns loopback workers;
    ``"socket:HOST:PORT"`` listens there and waits for external
    ``repro serve`` workers instead -- the only multi-machine path.

Both backends count the bytes they move (pickled frame sizes); the
counters ride back with each worker's result and surface as
``bytes_moved`` in ``RunResult.extra["space_shard"]`` and the telemetry
summary.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Callable, Dict, List, Optional

#: Transport names accepted by :func:`create` (``"socket:HOST:PORT"``
#: selects the socket backend in listen-for-external-workers mode).
TRANSPORTS = ("pipe", "socket")

_PICKLE = pickle.HIGHEST_PROTOCOL


def transport_name(transport: str) -> str:
    """The backend family of a transport spec string."""
    base = transport.split(":", 1)[0]
    if base not in TRANSPORTS:
        raise ValueError(
            f"unknown space transport {transport!r}; expected one of "
            f"{TRANSPORTS} (or 'socket:HOST:PORT')"
        )
    return base


# ---------------------------------------------------------------------------
# The worker-side view: per-peer callables plus byte counters.
# ---------------------------------------------------------------------------
class LinkPorts:
    """What a worker sees of its transport once opened: per-peer
    ``recv``/``send`` callables and the bytes moved so far."""

    def __init__(
        self,
        recv_fns: Dict[int, Callable[[], Any]],
        send_fns: Dict[int, Callable[[Any], None]],
        bytes_box: List[int],
    ):
        self.recv_fns = recv_fns
        self.send_fns = send_fns
        self._bytes = bytes_box  # [sent, received]

    def bytes_sent(self) -> int:
        return self._bytes[0]

    def bytes_received(self) -> int:
        return self._bytes[1]

    def reset_counters(self) -> None:
        self._bytes[0] = self._bytes[1] = 0


class PipeWorkerLink:
    """Per-worker bundle of simplex pipe connections (picklable through
    ``multiprocessing.Process`` args)."""

    def __init__(self, recv_conns: Dict[int, Any], send_conns: Dict[int, Any]):
        self.recv_conns = recv_conns
        self.send_conns = send_conns

    def open(self) -> LinkPorts:
        counters = [0, 0]

        def make_send(conn):
            def _send(batch):
                payload = pickle.dumps(batch, _PICKLE)
                counters[0] += len(payload)
                conn.send_bytes(payload)

            return _send

        def make_recv(conn):
            def _recv():
                payload = conn.recv_bytes()
                counters[1] += len(payload)
                return pickle.loads(payload)

            return _recv

        return LinkPorts(
            recv_fns={p: make_recv(c) for p, c in self.recv_conns.items()},
            send_fns={p: make_send(c) for p, c in self.send_conns.items()},
            bytes_box=counters,
        )


# ---------------------------------------------------------------------------
# The socket hub: command + data share one connection per worker.
# ---------------------------------------------------------------------------
class HubEndpoint:
    """Worker-side view of the coordinator socket.

    The connection carries both command messages (``("run", ...)`` /
    ``None``) and relayed boundary data (``("data", peer, payload)``);
    :meth:`recv_cmd` and the per-peer ``recv`` callables demultiplex by
    buffering whatever the other is waiting behind.  Data payloads stay
    pickled through the relay, so the coordinator routes without
    deserializing the hot path.
    """

    def __init__(self, conn):
        self.conn = conn
        self.pending: Dict[int, deque] = {}
        self._counters = [0, 0]

    def recv_cmd(self):
        while True:
            msg = self.conn.recv()
            if isinstance(msg, tuple) and msg and msg[0] == "data":
                self.pending.setdefault(msg[1], deque()).append(msg[2])
                continue
            return msg

    def send(self, msg) -> None:
        self.conn.send(msg)

    def open(self) -> LinkPorts:
        counters = self._counters
        pending = self.pending
        conn = self.conn

        def _pump_until(peer):
            box = pending.setdefault(peer, deque())
            while not box:
                msg = conn.recv()
                if not (isinstance(msg, tuple) and msg and msg[0] == "data"):
                    raise RuntimeError(
                        f"unexpected {msg!r} on the hub connection while "
                        f"waiting for peer {peer}'s window batch"
                    )
                pending.setdefault(msg[1], deque()).append(msg[2])
            return box

        def make_recv(peer):
            def _recv():
                payload = _pump_until(peer).popleft()
                counters[1] += len(payload)
                return pickle.loads(payload)

            return _recv

        def make_send(peer):
            def _send(batch):
                payload = pickle.dumps(batch, _PICKLE)
                counters[0] += len(payload)
                conn.send(("data", peer, payload))

            return _send

        # The hub is a full mesh: any peer id may appear.
        class _PeerMap(dict):
            def __init__(self, factory):
                super().__init__()
                self._factory = factory

            def __missing__(self, peer):
                fn = self._factory(peer)
                self[peer] = fn
                return fn

        return LinkPorts(
            recv_fns=_PeerMap(make_recv),
            send_fns=_PeerMap(make_send),
            bytes_box=counters,
        )


#: Default authentication key for socket transports / ``repro serve``.
DEFAULT_AUTHKEY = b"repro-space"


# ---------------------------------------------------------------------------
# Coordinator-side backends.
# ---------------------------------------------------------------------------
def _shutdown(cmd_conns: List[Any], procs: List[Any]) -> None:
    """Tell every worker to exit, reap (or terminate) its process, and
    close the coordinator's command connections."""
    for conn in cmd_conns:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    for conn in cmd_conns:
        conn.close()


class PipeBackend:
    """The default: local worker processes, each with one duplex command
    pipe to the coordinator, plus one simplex data pipe per ordered
    partition pair."""

    name = "pipe"

    def __init__(self, partitions: int):
        self.partitions = partitions
        self._procs: List[Any] = []
        self.cmd_conns: List[Any] = []

    def launch(self, worker_main) -> None:
        import multiprocessing as mp

        ctx = mp.get_context()
        P = self.partitions
        recv_ends: List[Dict[int, Any]] = [{} for _ in range(P)]
        send_ends: List[Dict[int, Any]] = [{} for _ in range(P)]
        child_ends: List[Any] = []
        for src in range(P):
            for dst in range(P):
                if src == dst:
                    continue
                r_end, s_end = ctx.Pipe(duplex=False)
                recv_ends[dst][src] = r_end
                send_ends[src][dst] = s_end
                child_ends.extend((r_end, s_end))
        cmd_children = []
        for _ in range(P):
            parent_end, child_end = ctx.Pipe(duplex=True)
            self.cmd_conns.append(parent_end)
            cmd_children.append(child_end)
        for p in range(P):
            proc = ctx.Process(
                target=worker_main,
                args=(p, cmd_children[p],
                      PipeWorkerLink(recv_ends[p], send_ends[p])),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        # Workers inherited their pipe ends; dropping the parent's copies
        # lets worker exit close them cleanly.
        for end in cmd_children + child_ends:
            end.close()

    def route_data(self, src: int, msg) -> None:
        raise RuntimeError(
            "pipe transport does not relay data through the coordinator"
        )

    def close(self) -> None:
        _shutdown(self.cmd_conns, self._procs)
        self.cmd_conns = []
        self._procs = []


class SocketBackend:
    """TCP hub: the coordinator listens, workers connect, boundary
    batches relay through the coordinator connection of each worker.

    ``listen=None`` binds a loopback ephemeral port and spawns local
    worker processes (so the socket path is testable on one machine);
    ``listen="HOST:PORT"`` binds there and waits for ``partitions``
    external ``python -m repro serve`` workers instead.
    """

    name = "socket"

    def __init__(
        self,
        partitions: int,
        listen: Optional[str] = None,
        authkey: bytes = DEFAULT_AUTHKEY,
    ):
        self.partitions = partitions
        self.listen = listen
        self.authkey = authkey
        self.cmd_conns: List[Any] = []
        self._procs: List[Any] = []
        self._listener = None

    def launch(self, worker_main) -> None:
        from multiprocessing.connection import Listener

        if self.listen:
            host, _, port = self.listen.rpartition(":")
            address = (host or "0.0.0.0", int(port))
        else:
            address = ("127.0.0.1", 0)
        # backlog must cover every worker connecting at once: the
        # default of 1 drops simultaneous SYNs and leaves stragglers in
        # multi-second kernel retry backoff.
        self._listener = Listener(
            address, backlog=self.partitions, authkey=self.authkey
        )
        if not self.listen:
            import multiprocessing as mp

            ctx = mp.get_context()
            addr = self._listener.address
            for _ in range(self.partitions):
                proc = ctx.Process(
                    target=_serve_client,
                    args=(addr, self.authkey, worker_main),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        else:  # pragma: no cover - exercised by multi-machine runs
            print(
                f"space coordinator: waiting for {self.partitions} "
                f"`repro serve` worker(s) on {self._listener.address}",
                flush=True,
            )
        for part_id in range(self.partitions):
            conn = self._listener.accept()
            conn.send(("init", part_id, self.partitions))
            self.cmd_conns.append(conn)

    def route_data(self, src: int, msg) -> None:
        # msg = ("data", dst, payload): re-address with the sender and
        # forward; the payload bytes pass through un-unpickled.
        self.cmd_conns[msg[1]].send(("data", src, msg[2]))

    def close(self) -> None:
        _shutdown(self.cmd_conns, self._procs)
        self.cmd_conns = []
        self._procs = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None


def _serve_client(address, authkey: bytes, worker_main) -> int:
    """Connect to a coordinator and serve runs until it hangs up: the
    body of ``python -m repro serve`` and of the local socket workers.
    """
    from multiprocessing.connection import Client

    conn = Client(address, authkey=authkey)
    try:
        hub = HubEndpoint(conn)
        msg = hub.recv_cmd()
        if not (isinstance(msg, tuple) and msg and msg[0] == "init"):
            raise RuntimeError(f"expected coordinator init, got {msg!r}")
        _, part_id, _partitions = msg
        worker_main(part_id, hub, hub)
        return 0
    finally:
        conn.close()


def create(
    transport: str,
    partitions: int,
    authkey: bytes = DEFAULT_AUTHKEY,
):
    """Instantiate the backend for a transport spec string."""
    base = transport_name(transport)
    if base == "pipe":
        return PipeBackend(partitions)
    listen = transport.split(":", 1)[1] if ":" in transport else None
    return SocketBackend(partitions, listen=listen, authkey=authkey)
