"""The indexed ``HostSim.barrier_report`` against a full-scan oracle.

``barrier_report`` scans only the tenants not yet reported out.  The
oracle below is written from the protocol's definition instead: it scans
*every* tenant the incarnation admitted, each time, and never mutates the
host.  Random histories of spawn, migrate, prepare-down and advance on
``cpu`` and ``smp`` hosts must make both produce exactly the same
messages, and leave exactly the oracle's tenants marked reported.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.host import HostSim
from repro.cluster.messages import check_sorted, message
from repro.cluster.spec import HostSpec, TenantSpec
from repro.units import MS

EPOCH_NS = 10 * MS


def oracle_report(host, epoch, barrier_ns):
    """``(messages, newly reported names)`` by scanning every tenant."""
    if host.frozen:
        return [], set()
    out = []
    seq = [host._seq]

    def emit(time, kind, **fields):
        out.append(message(epoch, time, host.key, seq[0], kind, **fields))
        seq[0] += 1

    def tenant_fields(name, tenant):
        done = tenant.thread.stats.work_done
        return dict(tenant=tenant.spec.name, thread=name,
                    attempt=tenant.spec.attempt, work_done=done,
                    remaining=max(0, tenant.spec.total_work - done))

    reported = set()
    exited = sorted((tenant.thread.stats.exited_at or 0, name)
                    for name, tenant in host.tenants.items()
                    if not tenant.reported and not tenant.thread.alive)
    for exited_at, name in exited:
        tenant = host.tenants[name]
        reported.add(name)
        emit(exited_at, "migrate-out" if tenant.migrating else "tenant-exit",
             **tenant_fields(name, tenant))
    if host.draining:
        for name in sorted(host.tenants):
            tenant = host.tenants[name]
            if tenant.reported or name in reported or not tenant.thread.alive:
                continue
            reported.add(name)
            emit(barrier_ns, "tenant-drain", **tenant_fields(name, tenant))
        emit(barrier_ns, "host-down")
        return out, reported
    alive = [tenant for tenant in host.tenants.values()
             if tenant.thread.alive]
    emit(barrier_ns, "host-load",
         load=sum(tenant.spec.weight for tenant in alive), alive=len(alive))
    return out, reported


tenant_params = st.tuples(
    st.integers(min_value=1, max_value=3),              # weight
    st.integers(min_value=1, max_value=120_000),        # total work
    st.integers(min_value=1, max_value=40_000),         # burst work
    st.sampled_from([0, 1 * MS, 3 * MS]),               # sleep
    st.sampled_from(["g000", "g001", "g002", "g003"]),  # affinity group
    st.integers(min_value=0, max_value=EPOCH_NS - 1),   # spawn offset
)

epoch_steps = st.lists(
    st.tuples(
        st.lists(tenant_params, max_size=4),            # spawns
        st.lists(st.integers(min_value=0, max_value=12), max_size=2),
        st.integers(min_value=0, max_value=9),          # 0 = prepare-down
    ),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["cpu", "smp"]), steps=epoch_steps)
def test_indexed_report_matches_full_scan(kind, steps):
    host = HostSim(HostSpec("h", kind=kind, cpus=2 if kind == "smp" else 1))
    names = []
    for epoch, (spawns, migrates, stop) in enumerate(steps):
        start_ns = epoch * EPOCH_NS
        barrier_ns = start_ns + EPOCH_NS
        directives = []
        if not host.frozen and not host.draining:
            for weight, total, burst, sleep, group, offset in spawns:
                # admitted in descending name order, so the index's
                # insertion order is never the report's name order
                spec = TenantSpec("t%03d" % (999 - len(names)), weight,
                                  total, burst, sleep, group, start_ns,
                                  attempt=len(names) % 2)
                names.append(spec.thread_name)
                fields = spec.to_fields()
                fields.update(kind="spawn", host=host.key,
                              spawn_ns=start_ns + offset)
                directives.append(fields)
            # indexes past the admitted tenants name unknown threads
            directives.extend(
                {"kind": "migrate",
                 "thread": names[index] if index < len(names) else "ghost"}
                for index in migrates)
            if stop == 0:
                directives.append({"kind": "prepare-down"})
        host.apply(directives)
        host.advance(barrier_ns)
        before = {name for name, tenant in host.tenants.items()
                  if tenant.reported}
        expected, newly = oracle_report(host, epoch, barrier_ns)
        actual = host.barrier_report(epoch, barrier_ns)
        assert actual == expected
        check_sorted(actual, "host outbox")
        after = {name for name, tenant in host.tenants.items()
                 if tenant.reported}
        assert after == before | newly
