"""The control tier: admission, placement, migration, and churn handling.

:class:`ControlTier` is the cluster's top-level scheduler.  It runs once
per epoch barrier, entirely outside the per-host simulators, and sees
the fleet only through the merged message log — never a live simulator
object — so its decisions depend exclusively on message content that is
itself shard-invariant.

Its output is a list of control messages (``src`` ``"~ctl"``; the tilde
sorts the control tier after every host key at the shared barrier
timestamp) which serve double duty: they are appended to the epoch log
*and* broadcast back to the shard workers as directives —

``place``
    Spawn one tenant attempt on the named host next epoch.
``migrate-req``
    Ask a host to drain one tenant at its next segment boundary.
``host-stop``
    Tell a host to drain everything and freeze at the next barrier.
``host-start``
    Bring up a fresh incarnation of a downed host at the barrier.

The tier is also the protocol's auditor: it keeps its own model of what
lives where, and every ``host-load`` report is checked against that
model — any disagreement (a lost message, a double spawn, an unsynced
shard) raises :class:`~repro.errors.ClusterError` instead of silently
diverging.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.cluster.messages import Message, message
from repro.cluster.placement import HostView, PlacementView, build_placement
from repro.cluster.spec import ClusterSpec, HostSpec, TenantSpec
from repro.errors import ClusterError

#: the control tier's message source key (sorts after every host key)
CTL_SRC = "~ctl"

#: control message kinds that shard workers execute as directives
DIRECTIVE_KINDS = ("place", "migrate-req", "host-stop", "host-start")

#: a scheduled churn action: (epoch, "down"|"up", host name)
ChurnEvent = Tuple[int, str, str]


class _HostModel:
    """The control tier's belief about one host."""

    __slots__ = ("spec", "incarnation", "status", "tenants", "migrating")

    def __init__(self, spec: HostSpec) -> None:
        self.spec = spec
        self.incarnation = 0
        #: "up" | "draining" | "down"
        self.status = "up"
        #: thread name -> the TenantSpec placed there
        self.tenants: Dict[str, TenantSpec] = {}
        #: thread names with an outstanding migrate-req
        self.migrating: Set[str] = set()

    @property
    def key(self) -> str:
        """Cluster-wide key of the current incarnation."""
        if self.incarnation == 0:
            return self.spec.name
        return "%s+%d" % (self.spec.name, self.incarnation)

    def load(self) -> int:
        """Total weight of tenants believed resident."""
        return sum(spec.weight for spec in self.tenants.values())

    def group_counts(self) -> Dict[str, int]:
        """Live tenant count per affinity group."""
        counts: Dict[str, int] = {}
        for spec in self.tenants.values():
            counts[spec.group] = counts.get(spec.group, 0) + 1
        return counts


class ControlTier:
    """Barrier-driven placement scheduler over the merged message log."""

    def __init__(self, spec: ClusterSpec, seed: int,
                 churn: Optional[Iterable[ChurnEvent]] = None) -> None:
        self.spec = spec
        self.policy = build_placement(spec.policy)
        self._hosts: Dict[str, _HostModel] = {
            host.name: _HostModel(host) for host in spec.hosts}
        #: the arrival schedule, drawn lazily by :meth:`draw_arrivals`
        self._arrivals: Optional[Iterator[TenantSpec]] = spec.arrivals(seed)
        #: drawn arrivals not yet admitted, in arrival order
        self._drawn: Deque[TenantSpec] = collections.deque()
        self._pending: List[TenantSpec] = []
        self._churn = sorted(churn or (),
                             key=lambda event: (event[0], event[1], event[2]))
        self._seq = 0
        self._expect: Set[str] = {model.key for model in self._hosts.values()}
        self.counters: Dict[str, int] = {
            "admitted": 0, "placements": 0, "completions": 0,
            "migrations": 0, "drains": 0, "deferred": 0,
            "hosts_down": 0, "hosts_up": 0,
        }

    # --- message helpers --------------------------------------------------

    def _emit(self, epoch: int, barrier_ns: int, kind: str,
              **fields: object) -> Message:
        msg = message(epoch, barrier_ns, CTL_SRC, self._seq, kind, **fields)
        self._seq += 1
        return msg

    def _model_for(self, src: str) -> _HostModel:
        base = src.split("+", 1)[0]
        model = self._hosts.get(base)
        if model is None or model.key != src:
            raise ClusterError("message from unknown host incarnation %r"
                               % (src,))
        return model

    # --- the barrier ------------------------------------------------------

    def barrier(self, epoch: int, inbox: List[Message]) -> List[Message]:
        """Run one barrier: fold reports, decide, return control messages.

        ``inbox`` is the merged host outbox for ``epoch``; the return
        value is both the log tail for the epoch and the directive
        broadcast for the next one.
        """
        barrier_ns = (epoch + 1) * self.spec.epoch_ns
        out: List[Message] = []
        self._process_inbox(epoch, inbox)
        out.extend(self._apply_churn(epoch, barrier_ns))
        self._admit(barrier_ns)
        out.extend(self._place(epoch, barrier_ns))
        out.extend(self._rebalance(epoch, barrier_ns))
        self._expect = {model.key for model in self._hosts.values()
                        if model.status == "up"}
        return out

    def _process_inbox(self, epoch: int, inbox: List[Message]) -> None:
        """Fold the epoch's host reports into the model, auditing each."""
        reported: Set[str] = set()
        for msg in inbox:
            src = str(msg["src"])
            model = self._model_for(src)
            kind = msg["kind"]
            if kind in ("tenant-exit", "migrate-out", "tenant-drain"):
                self._tenant_left(model, msg)
            elif kind == "host-down":
                if model.status != "draining":
                    raise ClusterError("host %s reported down without a "
                                       "host-stop" % src)
                if model.tenants:
                    raise ClusterError(
                        "host %s went down still holding %d tenants"
                        % (src, len(model.tenants)))
                model.status = "down"
            elif kind == "host-load":
                expected_load = model.load()
                expected_alive = len(model.tenants)
                if (int(msg["load"]) != expected_load  # type: ignore[arg-type]
                        or int(msg["alive"]) != expected_alive):  # type: ignore[arg-type]
                    raise ClusterError(
                        "host %s load report (load=%s alive=%s) disagrees "
                        "with the control model (load=%d alive=%d)"
                        % (src, msg["load"], msg["alive"],
                           expected_load, expected_alive))
                reported.add(src)
            else:
                raise ClusterError("unknown host message kind %r from %s"
                                   % (kind, src))
        missing = self._expect - reported
        if missing:
            raise ClusterError(
                "no load report at barrier %d from: %s"
                % (epoch, ", ".join(sorted(missing))))

    def _tenant_left(self, model: _HostModel, msg: Message) -> None:
        """One tenant exit / migrate-out / drain report."""
        thread = str(msg["thread"])
        placed = model.tenants.pop(thread, None)
        if placed is None:
            raise ClusterError("host %s reported unknown tenant %r"
                               % (model.key, thread))
        model.migrating.discard(thread)
        work_done = int(msg["work_done"])  # type: ignore[arg-type]
        remaining = max(0, placed.total_work - work_done)
        if remaining != int(msg["remaining"]):  # type: ignore[arg-type]
            raise ClusterError(
                "host %s reported remaining=%s for %r; model says %d"
                % (model.key, msg["remaining"], thread, remaining))
        kind = msg["kind"]
        if kind == "tenant-exit":
            self.counters["completions"] += 1
            return
        self.counters["migrations" if kind == "migrate-out"
                      else "drains"] += 1
        if remaining > 0:
            barrier_ns = (int(msg["epoch"]) + 1) * self.spec.epoch_ns  # type: ignore[arg-type]
            self._pending.append(TenantSpec(
                name=placed.name, weight=placed.weight,
                total_work=remaining, burst_work=placed.burst_work,
                sleep_ns=placed.sleep_ns, group=placed.group,
                arrival_ns=barrier_ns, attempt=placed.attempt + 1))
        else:
            self.counters["completions"] += 1

    def _apply_churn(self, epoch: int, barrier_ns: int) -> List[Message]:
        """Turn this barrier's scheduled churn into stop/start messages."""
        out: List[Message] = []
        for event_epoch, action, name in self._churn:
            if event_epoch != epoch:
                continue
            model = self._hosts[name]
            if action == "down" and model.status == "up":
                model.status = "draining"
                self.counters["hosts_down"] += 1
                out.append(self._emit(epoch, barrier_ns, "host-stop",
                                      host=model.key))
            elif action == "up" and model.status == "down":
                model.incarnation += 1
                model.status = "up"
                model.tenants = {}
                model.migrating = set()
                self.counters["hosts_up"] += 1
                out.append(self._emit(
                    epoch, barrier_ns, "host-start", host=name,
                    incarnation=model.incarnation, start_ns=barrier_ns))
        return out

    def draw_arrivals(self, barrier_ns: int) -> None:
        """Draw every tenant that arrives before ``barrier_ns``.

        Drawing is admission's expensive part (one generator reseed per
        tenant).  The run loop calls this while the shards simulate the
        epoch, and :meth:`barrier` calls it again, so nothing depends on
        whether the early call was made.
        """
        drawn = self._drawn
        while self._arrivals is not None and (
                not drawn or drawn[-1].arrival_ns < barrier_ns):
            tenant = next(self._arrivals, None)
            if tenant is None:
                self._arrivals = None
            else:
                drawn.append(tenant)

    def _admit(self, barrier_ns: int) -> None:
        """Move tenants whose arrival time has passed into the pending queue."""
        self.draw_arrivals(barrier_ns)
        drawn = self._drawn
        while drawn and drawn[0].arrival_ns < barrier_ns:
            self._pending.append(drawn.popleft())
            self.counters["admitted"] += 1

    def _place(self, epoch: int, barrier_ns: int) -> List[Message]:
        """Place every pending tenant (FIFO) through the policy."""
        if not self._pending:
            return []
        up = sorted((model for model in self._hosts.values()
                     if model.status == "up"),
                    key=lambda model: model.key)
        if not up:
            self.counters["deferred"] += len(self._pending)
            return []  # everything stays pending until a host returns
        views = {model.key: HostView(model.key, model.spec.capacity_weight,
                                     model.load(), model.group_counts())
                 for model in up}
        view = PlacementView(list(views.values()))
        by_key = {model.key: model for model in up}
        out: List[Message] = []
        for spec in self._pending:
            chosen = self.policy.choose(spec.group, spec.weight, view)
            model = by_key[chosen]
            model.tenants[spec.thread_name] = spec
            # keep the shared view current without rebuilding it per tenant
            views[chosen].load += spec.weight
            views[chosen].group_counts[spec.group] = (
                views[chosen].group_counts.get(spec.group, 0) + 1)
            self.counters["placements"] += 1
            fields = spec.to_fields()
            fields["host"] = chosen
            fields["spawn_ns"] = spec.arrival_ns + self.spec.epoch_ns
            out.append(self._emit(epoch, barrier_ns, "place", **fields))
        self._pending = []
        return out

    def _rebalance(self, epoch: int, barrier_ns: int) -> List[Message]:
        """One migrate request per barrier when the load spread is too wide."""
        threshold = self.spec.rebalance_threshold
        if threshold <= 0:
            return []
        up = sorted((model for model in self._hosts.values()
                     if model.status == "up"),
                    key=lambda model: model.key)
        if len(up) < 2:
            return []
        hottest = max(up, key=lambda model: (model.load(), model.key))
        coldest = min(up, key=lambda model: (model.load(), model.key))
        if hottest.load() - coldest.load() <= threshold:
            return []
        movable = sorted(name for name in hottest.tenants
                         if name not in hottest.migrating)
        if not movable:
            return []
        victim = movable[0]
        hottest.migrating.add(victim)
        return [self._emit(epoch, barrier_ns, "migrate-req",
                           host=hottest.key, thread=victim)]

    # --- reporting --------------------------------------------------------

    def live_tenants(self) -> int:
        """Tenants still resident somewhere (unfinished at the horizon)."""
        return sum(len(model.tenants) for model in self._hosts.values())

    def summary(self) -> Dict[str, object]:
        """JSON-able end-of-run view of the control tier."""
        return {
            "counters": dict(self.counters),
            "pending": len(self._pending),
            "live_tenants": self.live_tenants(),
            "hosts": {name: {"key": model.key, "status": model.status,
                             "tenants": len(model.tenants)}
                      for name, model in sorted(self._hosts.items())},
        }
