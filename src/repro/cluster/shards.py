"""Deterministic sharding: hosts partitioned across worker processes.

Hosts are assigned to shards by **name-sorted round-robin**
(:func:`partition_hosts`), so the bucket layout is a pure function of
``(host names, shard count)``.  A :class:`DirectiveRouter` hands each
barrier directive to the one shard that owns its host, so a shard never
receives (or, in a worker, unpickles) another shard's traffic.  Every
shard — whether it runs inline
(:class:`SerialShards`) or in a persistent worker process
(:class:`ProcessShards`) — executes the *same* :class:`ShardState` code
path: apply barrier directives, advance each host to the barrier in
name order, and hand back a sort-key-merged outbox.  The parent merges
shard outboxes with the validating k-way merge, so the epoch log is
byte-identical for ``--shards 1`` and ``--shards N`` by construction.

Worker processes are rebuilt from pickled *specs* (plain slotted data
objects) — a live simulator never crosses a process boundary.  The pipe
protocol is strictly request/reply in shard-index order, so no result
ordering ever depends on OS scheduling (the faultlab/parjobs pool
discipline, adapted to persistent workers).

Failures are structured the same way for every shard count.  An
exception raised while a host applies, advances, reports or finalizes
is caught inside its shard and answered as a failure record (host key,
epoch, exception, formatted traceback); the parent raises it as
:class:`~repro.errors.ClusterError` (``host h1 failed at epoch 2:
RuntimeError: ...``).  When several hosts fail at one barrier, the
smallest host name is reported — the host a serial run reaches first.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.control import DIRECTIVE_KINDS
from repro.cluster.host import HostSim
from repro.cluster.messages import Message, merge_outboxes
from repro.cluster.spec import ClusterSpec
from repro.errors import ClusterError

#: a shard's answer to one request: ("ok", value) or ("failed", record)
Reply = Tuple[str, object]

#: a failure record: (sort key, summary line, formatted traceback)
Failure = Tuple[Tuple[int, str], str, str]


def partition_hosts(names: List[str], shards: int) -> List[List[str]]:
    """Name-sorted round-robin buckets; every shard gets a stable slice.

    ``partition_hosts(names, 1)`` is the whole fleet in name order —
    the serial layout every other layout must agree with byte-for-byte.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1, got %d" % shards)
    buckets: List[List[str]] = [[] for _ in range(shards)]
    for index, name in enumerate(sorted(names)):
        buckets[index % shards].append(name)
    return [bucket for bucket in buckets if bucket]


def host_base(directive: Message) -> str:
    """The base host name a directive targets (``h1+2`` -> ``h1``)."""
    return str(directive["host"]).split("+", 1)[0]


class DirectiveRouter:
    """Splits a barrier's directives by the shard that owns each host.

    The single place directives are checked: the kind must be one of
    :data:`~repro.cluster.control.DIRECTIVE_KINDS` and the host must be
    in some bucket, so a bad directive raises the same
    :class:`ClusterError` whatever the shard count.
    """

    def __init__(self, buckets: List[List[str]]) -> None:
        self._owner: Dict[str, int] = {
            name: index for index, bucket in enumerate(buckets)
            for name in bucket}
        self._shards = len(buckets)

    def route(self, directives: List[Message]) -> List[List[Message]]:
        """Per-shard directive lists, in shard order, each in log order."""
        routed: List[List[Message]] = [[] for _ in range(self._shards)]
        for directive in directives:
            kind = directive["kind"]
            if kind not in DIRECTIVE_KINDS:
                raise ClusterError("not a directive: %r" % (kind,))
            owner = self._owner.get(host_base(directive))
            if owner is None:
                raise ClusterError("%s directive for unknown host %r"
                                   % (kind, directive["host"]))
            routed[owner].append(directive)
        return routed


class _HostFailed(Exception):
    """Carries one host's failure record out of its shard's epoch loop."""

    def __init__(self, record: Failure) -> None:
        super().__init__(record[1])
        self.record = record


class ShardState:
    """One shard's hosts and their epoch loop (shared serial/process path)."""

    def __init__(self, spec: ClusterSpec, bucket: List[str],
                 trace_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.trace_dir = trace_dir
        self.hosts: Dict[str, HostSim] = {
            name: HostSim(spec.host(name), incarnation=0, start_ns=0,
                          trace_path=self._trace_path(name))
            for name in bucket}
        #: finalized summaries of replaced (downed) incarnations
        self.retired: List[Dict[str, object]] = []

    def _trace_path(self, key: str) -> Optional[str]:
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir, "host-%s.binlog" % key)

    @contextlib.contextmanager
    def _blame(self, name: str, epoch: Optional[int]) -> Iterator[None]:
        """Turn any exception raised inside into host ``name``'s failure."""
        try:
            yield
        except Exception as exc:
            raise _HostFailed(_failure(
                name, self.hosts[name].key, epoch, exc)) from exc

    def epoch(self, epoch: int, barrier_ns: int,
              directives: List[Message]) -> List[Message]:
        """Apply directives, run every host to the barrier, merge reports.

        ``directives`` are this shard's, already checked by the
        :class:`DirectiveRouter`.  Hosts run in name order, each one's
        directives in log order.
        """
        routed: Dict[str, List[Message]] = {name: [] for name in self.hosts}
        for directive in directives:
            routed[host_base(directive)].append(directive)
        outboxes = []
        for name in sorted(self.hosts):
            with self._blame(name, epoch):
                outboxes.append(self._host_epoch(
                    name, epoch, barrier_ns, routed[name]))
        return merge_outboxes(outboxes)

    def _host_epoch(self, name: str, epoch: int, barrier_ns: int,
                    directives: List[Message]) -> List[Message]:
        """One host's barrier: restart, apply, advance, report."""
        work: List[Message] = []
        for directive in directives:
            kind = directive["kind"]
            if kind == "host-start":
                incarnation = int(directive["incarnation"])  # type: ignore[arg-type]
                self.retired.append(self.hosts[name].finalize())
                self.hosts[name] = HostSim(
                    self.spec.host(name), incarnation=incarnation,
                    start_ns=int(directive["start_ns"]),  # type: ignore[arg-type]
                    trace_path=self._trace_path(
                        "%s+%d" % (name, incarnation)))
            elif kind == "place":
                spawn = dict(directive)
                spawn["kind"] = "spawn"
                work.append(spawn)
            elif kind == "migrate-req":
                work.append({"kind": "migrate",
                             "thread": directive["thread"]})
            elif kind == "host-stop":
                work.append({"kind": "prepare-down"})
        host = self.hosts[name]
        host.apply(work)
        host.advance(barrier_ns)
        return host.barrier_report(epoch, barrier_ns)

    def finalize(self) -> List[Dict[str, object]]:
        """Summaries of every incarnation this shard ran, key-sorted."""
        summaries = list(self.retired)
        for name in sorted(self.hosts):
            with self._blame(name, None):
                summaries.append(self.hosts[name].finalize())
        return sorted(summaries, key=lambda summary: str(summary["key"]))


def _failure(name: Optional[str], key: Optional[str], epoch: Optional[int],
             exc: BaseException) -> Failure:
    """The failure record for ``exc`` (``name`` None: not a host's fault)."""
    # imported here: only a failing run pays its ~4 ms import, not the
    # start-up of every program that imports the cluster package
    import traceback

    where = "at finalize" if epoch is None else "at epoch %d" % epoch
    who = "shard" if key is None else "host %s" % key
    cause = traceback.format_exception_only(type(exc), exc)[-1].strip()
    trace = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))
    order = (1, "") if name is None else (0, name)
    return (order, "%s failed %s: %s" % (who, where, cause), trace)


def _serve(state: ShardState, request: tuple) -> Reply:
    """Answer one ``epoch``/``finalize`` request; never raises.

    Both pools call this, so an inline shard and a worker process turn
    the same exception into the same failure record.
    """
    verb = request[0]
    epoch = request[1] if verb == "epoch" else None
    try:
        if verb == "epoch":
            return ("ok", state.epoch(*request[1:]))
        if verb == "finalize":
            return ("ok", state.finalize())
        raise ClusterError("unknown shard request %r" % (verb,))
    except _HostFailed as failed:
        return ("failed", failed.record)
    except Exception as exc:
        return ("failed", _failure(None, None, epoch, exc))


def _results(replies: List[Reply]) -> List[object]:
    """Every shard's value, in shard order, or raise the first failure.

    "First" is by host name, so the error a sharded run raises is the
    one the serial run, which visits hosts in name order, stops at.
    """
    failures = [reply[1] for reply in replies if reply[0] == "failed"]
    if failures:
        __, summary, trace = min(failures)  # type: ignore[type-var]
        raise ClusterError("%s\n\n%s" % (summary, trace))
    return [reply[1] for reply in replies]


def _key_sorted(per_shard: List[object]) -> List[Dict[str, object]]:
    """Every shard's host summaries in one list, sorted by host key."""
    summaries: List[Dict[str, object]] = []
    for shard_summaries in per_shard:
        summaries.extend(shard_summaries)  # type: ignore[call-overload]
    return sorted(summaries, key=lambda summary: str(summary["key"]))


class SerialShards:
    """All shards run inline, in shard order — the reference execution."""

    def __init__(self, spec: ClusterSpec, buckets: List[List[str]],
                 trace_dir: Optional[str] = None) -> None:
        self._router = DirectiveRouter(buckets)
        self._shards = [ShardState(spec, bucket, trace_dir)
                        for bucket in buckets]
        self._request: Tuple[int, int, List[List[Message]]] = (0, 0, [])

    def send(self, epoch: int, barrier_ns: int,
             directives: List[Message]) -> None:
        """Route one epoch's directives; the shards run in :meth:`gather`."""
        self._request = (epoch, barrier_ns, self._router.route(directives))

    def gather(self) -> List[List[Message]]:
        """Per-shard outboxes for the sent epoch, in shard order."""
        epoch, barrier_ns, routed = self._request
        return _results([  # type: ignore[return-value]
            _serve(shard, ("epoch", epoch, barrier_ns, mine))
            for shard, mine in zip(self._shards, routed)])

    def finalize(self) -> List[Dict[str, object]]:
        """All host summaries across shards, key-sorted."""
        return _key_sorted(_results([_serve(shard, ("finalize",))
                                     for shard in self._shards]))

    def close(self) -> None:
        """Nothing to tear down for inline shards."""


def _shard_worker(conn, spec: ClusterSpec, bucket: List[str],
                  trace_dir: Optional[str]) -> None:
    """Worker entry point: serve epoch/finalize requests over the pipe.

    Builds its bucket's hosts from the pickled spec, then loops on a
    strict request/reply protocol until told to stop.  A failing request
    is answered with its failure record, so the parent can name the host
    and the worker stays up to be stopped and joined.  Top-level by
    design (picklable under spawn, visible to the SF4xx checker).
    """
    state = ShardState(spec, bucket, trace_dir)
    while True:
        request = conn.recv()
        if request[0] == "stop":
            conn.close()
            return
        conn.send(_serve(state, request))


class ProcessShards:
    """Shards as persistent worker processes, one per bucket.

    Replies are collected in shard-index order — workers may *compute*
    epochs concurrently, but every observable sequence is fixed.
    """

    def __init__(self, spec: ClusterSpec, buckets: List[List[str]],
                 trace_dir: Optional[str] = None) -> None:
        self._router = DirectiveRouter(buckets)
        self._pipes = []
        self._procs = []
        for bucket in buckets:
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_shard_worker, args=(child, spec, bucket, trace_dir))
            proc.daemon = True
            proc.start()
            child.close()
            self._pipes.append(parent)
            self._procs.append(proc)

    def send(self, epoch: int, barrier_ns: int,
             directives: List[Message]) -> None:
        """Send each worker its own directives; the workers start at once."""
        routed = self._router.route(directives)
        for pipe, mine in zip(self._pipes, routed):
            pipe.send(("epoch", epoch, barrier_ns, mine))

    def gather(self) -> List[List[Message]]:
        """Every worker's outbox for the sent epoch, in shard order."""
        return _results(  # type: ignore[return-value]
            [pipe.recv() for pipe in self._pipes])

    def finalize(self) -> List[Dict[str, object]]:
        """Gather summaries from every worker, key-sorted."""
        for pipe in self._pipes:
            pipe.send(("finalize",))
        return _key_sorted(_results([pipe.recv() for pipe in self._pipes]))

    def close(self) -> None:
        """Stop and join every worker."""
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=5)
        for pipe in self._pipes:
            pipe.close()


def make_shards(spec: ClusterSpec, shards: int,
                trace_dir: Optional[str] = None):
    """Build the right shard pool for ``shards`` (1 = inline serial)."""
    buckets = partition_hosts(spec.host_names(), shards)
    if shards == 1:
        return SerialShards(spec, buckets, trace_dir)
    return ProcessShards(spec, buckets, trace_dir)
