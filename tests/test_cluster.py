"""Unit tests for the repro.cluster subsystem (specs through CLI)."""

import json
import os

import pytest

from repro.cluster.churn import ClusterFaultContext, build_churn
from repro.cluster.control import CTL_SRC, ControlTier
from repro.cluster.host import HostSim
from repro.cluster.messages import (
    check_sorted,
    log_digest,
    merge_outboxes,
    message,
    render_lines,
)
from repro.cluster.placement import (
    PLACEMENTS,
    HostView,
    PlacementView,
    build_placement,
)
from repro.cluster.runner import run_cluster
from repro.cluster.scenario import (
    CLUSTER_SCENARIOS,
    cluster_scenarios,
    mini_spec,
)
from repro.cluster.shards import (
    DirectiveRouter,
    SerialShards,
    ShardState,
    host_base,
    make_shards,
    partition_hosts,
)
from repro.cluster.spec import (
    ClusterSpec,
    HostSpec,
    TenantSpec,
    TenantWorkload,
    tenant_leaf,
)
from repro.errors import ClusterError
from repro.faultlab.campaign import default_fault_kinds
from repro.faultlab.faults import FAULTS, FaultContext
from repro.obs.schedstat import SchedStat, merge_schedstats
from repro.sim.rng import Stream
from repro.threads.segments import Compute, Exit, SleepFor
from repro.units import MS


def small_spec(**overrides):
    """A tiny 3-host cluster that runs in well under a second."""
    params = dict(
        name="unit",
        hosts=[HostSpec("b", kind="smp", cpus=2), HostSpec("a"),
               HostSpec("c")],
        tenants=8,
        epoch_ns=10 * MS,
        epochs=6,
        arrival_window_epochs=3,
        tenant_total_work=30_000,
        tenant_burst_work=15_000,
        tenant_sleep_ns=2 * MS,
        tenant_groups=4,
    )
    params.update(overrides)
    return ClusterSpec(**params)


# --- specs -------------------------------------------------------------------


class TestSpecs:
    def test_hosts_are_name_sorted_regardless_of_registration(self):
        spec = small_spec()
        assert spec.host_names() == ["a", "b", "c"]

    def test_duplicate_host_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate host names"):
            small_spec(hosts=[HostSpec("a"), HostSpec("a")])

    def test_cpu_host_must_be_uniprocessor(self):
        with pytest.raises(ValueError, match="exactly one CPU"):
            HostSpec("x", kind="cpu", cpus=4)

    def test_unknown_host_kind_rejected(self):
        with pytest.raises(ValueError, match="must be 'cpu' or 'smp'"):
            HostSpec("x", kind="gpu")

    def test_thread_name_carries_attempt(self):
        spec = TenantSpec("t1", 2, 100, 50, 0, "g", 0)
        assert spec.thread_name == "t1"
        retry = TenantSpec("t1", 2, 100, 50, 0, "g", 0, attempt=2)
        assert retry.thread_name == "t1+2"

    def test_tenant_fields_roundtrip(self):
        spec = TenantSpec("t9", 3, 1000, 400, 5 * MS, "g007", 123, attempt=1)
        again = TenantSpec.from_fields(spec.to_fields())
        for slot in TenantSpec.__slots__:
            assert getattr(again, slot) == getattr(spec, slot)

    def test_tenant_workload_segment_stream(self):
        workload = TenantWorkload(total_work=30_000, burst_work=20_000,
                                  sleep_ns=1 * MS)
        first = workload.next_segment(0, None)
        assert isinstance(first, Compute) and first.work == 20_000
        second = workload.next_segment(0, None)
        assert isinstance(second, SleepFor)
        third = workload.next_segment(0, None)
        assert isinstance(third, Compute) and third.work == 10_000
        assert isinstance(workload.next_segment(0, None), Exit)

    def test_tenant_leaf_is_group_stable_across_hosts(self):
        host_a = HostSpec("a", groups=2, leaves=4)
        host_b = HostSpec("b", groups=2, leaves=4)
        assert tenant_leaf(host_a, "g1") == tenant_leaf(host_b, "g1")
        assert tenant_leaf(host_a, "g1") in host_a.leaf_paths()

    def test_arrivals_draw_what_a_fresh_stream_generator_draws(self):
        """Reseeding one generator per tenant keeps the per-name draws."""
        spec = small_spec(tenants=40, tenant_groups=7)
        stream = Stream(3, "cluster/unit").substream("arrivals")
        for tenant in spec.arrivals(3):
            rng = stream.rng(tenant.name)
            assert tenant.weight == rng.choice(spec.tenant_weights)
            assert tenant.group == "g%03d" % rng.randrange(7)

    def test_arrivals_deterministic_and_windowed(self):
        spec = small_spec()
        first = list(spec.arrivals(7))
        second = list(spec.arrivals(7))
        assert [t.to_fields() for t in first] == [
            t.to_fields() for t in second]
        window = spec.arrival_window_epochs * spec.epoch_ns
        assert all(t.arrival_ns < window for t in first)


# --- placement ---------------------------------------------------------------


class TestPlacement:
    def view(self, loads, caps=None, groups=None):
        caps = caps or [1] * len(loads)
        groups = groups or [{} for __ in loads]
        return PlacementView([
            HostView("h%d" % index, caps[index], loads[index], groups[index])
            for index in range(len(loads))])

    def test_least_loaded_is_capacity_weighted(self):
        # load 3 over capacity 4 (0.75) beats load 1 over capacity 1 (1.0)
        view = self.view([1, 3], caps=[1, 4])
        assert build_placement("least-loaded").choose("g", 1, view) == "h1"

    def test_least_loaded_ties_break_by_name(self):
        view = self.view([2, 2, 2])
        assert build_placement("least-loaded").choose("g", 1, view) == "h0"

    def test_affinity_consolidates_on_group_peers(self):
        # preferred load 5 vs coldest 3: within 2x, so no spill
        view = self.view([5, 3], groups=[{"g": 3}, {}])
        assert build_placement("affinity").choose("g", 1, view) == "h0"

    def test_affinity_spills_when_preferred_is_overloaded(self):
        view = self.view([50, 1], groups=[{"g": 3}, {}])
        assert build_placement("affinity").choose("g", 1, view) == "h1"

    def test_affinity_without_peers_goes_least_loaded(self):
        view = self.view([4, 2])
        assert build_placement("affinity").choose("g", 1, view) == "h1"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            build_placement("round-robin")

    def test_registry_contains_both_policies(self):
        assert set(PLACEMENTS) >= {"least-loaded", "affinity"}

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError, match="no live hosts"):
            PlacementView([]).least_loaded()


# --- messages ----------------------------------------------------------------


class TestMessages:
    def test_payload_cannot_shadow_routing_fields(self):
        with pytest.raises((TypeError, ValueError)):
            message(0, 0, "h", 0, "kind", **{"src": "evil", "x": 1})

    def test_check_sorted_rejects_disorder(self):
        msgs = [message(0, 5, "h", 1, "a"), message(0, 4, "h", 2, "a")]
        with pytest.raises(ClusterError, match="out-of-order"):
            check_sorted(msgs, "test")

    def test_check_sorted_rejects_duplicates(self):
        msg = message(0, 5, "h", 1, "a")
        with pytest.raises(ClusterError, match="out-of-order"):
            check_sorted([msg, dict(msg)], "test")

    def test_merge_interleaves_by_sort_key(self):
        left = [message(0, 1, "a", 0, "x"), message(0, 9, "a", 1, "x")]
        right = [message(0, 5, "b", 0, "x")]
        merged = merge_outboxes([left, right])
        assert [m["time"] for m in merged] == [1, 5, 9]

    def test_merge_validates_inputs(self):
        bad = [message(0, 9, "a", 1, "x"), message(0, 1, "a", 2, "x")]
        with pytest.raises(ClusterError, match="shard 0 outbox"):
            merge_outboxes([bad])

    def test_render_and_digest_are_stable(self):
        msgs = [message(0, 1, "a", 0, "x", value=3)]
        assert render_lines(msgs) == (
            '{"epoch":0,"kind":"x","seq":0,"src":"a","time":1,"value":3}\n')
        assert log_digest(msgs) == log_digest(list(msgs))


# --- shards ------------------------------------------------------------------


class TestPartition:
    def test_round_robin_over_sorted_names(self):
        assert partition_hosts(["c", "a", "b", "d"], 2) == [
            ["a", "c"], ["b", "d"]]

    def test_single_shard_is_sorted_fleet(self):
        assert partition_hosts(["c", "a"], 1) == [["a", "c"]]

    def test_excess_shards_drop_empty_buckets(self):
        assert partition_hosts(["a"], 4) == [["a"]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            partition_hosts(["a"], 0)


class TestDirectiveRouting:
    def test_router_keeps_log_order_per_owner(self):
        router = DirectiveRouter([["a", "c"], ["b"]])
        directives = [{"kind": "place", "host": "b", "n": 0},
                      {"kind": "host-stop", "host": "c+1"},
                      {"kind": "migrate-req", "host": "a", "thread": "t"},
                      {"kind": "place", "host": "b", "n": 1}]
        assert router.route(directives) == [
            [directives[1], directives[2]], [directives[0], directives[3]]]

    def test_each_shard_receives_only_its_hosts(self, monkeypatch):
        """Every directive kind, one run, three shards: no shard sees
        another shard's directive and none is lost."""
        spec = small_spec(
            hosts=[HostSpec("b", kind="smp", cpus=2), HostSpec("a"),
                   HostSpec("c"), HostSpec("d"), HostSpec("e")],
            tenants=24, epochs=10, policy="affinity", rebalance_threshold=2,
            faults=[{"kind": "host-churn", "params": {"downs": 2}}])
        received = []
        original = ShardState.epoch

        def recording(self, epoch, barrier_ns, directives):
            received.append((set(self.hosts), list(directives)))
            return original(self, epoch, barrier_ns, directives)

        monkeypatch.setattr(ShardState, "epoch", recording)
        pool = SerialShards(spec, partition_hosts(spec.host_names(), 3))
        control = ControlTier(spec, 0, churn=build_churn(spec, 0).churn)
        sent = []
        directives = []
        for epoch in range(spec.epochs):
            del received[:]
            pool.send(epoch, (epoch + 1) * spec.epoch_ns, directives)
            merged = merge_outboxes(pool.gather())
            for hosts, mine in received:
                assert all(host_base(d) in hosts for d in mine)
            assert sorted(map(id, directives)) == sorted(
                id(d) for __, mine in received for d in mine)
            sent.extend(directives)
            directives = control.barrier(epoch, merged)
        assert {d["kind"] for d in sent} == {
            "place", "migrate-req", "host-stop", "host-start"}

    @pytest.mark.parametrize("bad, match", [
        ({"kind": "host-load", "host": "a"}, "not a directive: 'host-load'"),
        ({"kind": "place", "host": "zz+1"},
         "place directive for unknown host 'zz\\+1'"),
    ])
    def test_bad_directive_same_error_for_any_shard_count(self, bad, match):
        spec = small_spec(tenants=0)
        errors = []
        for shards in (1, 2):
            pool = make_shards(spec, shards)
            try:
                with pytest.raises(ClusterError, match=match) as caught:
                    pool.send(0, spec.epoch_ns, [bad])
            finally:
                pool.close()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


class TestShardFailures:
    def test_host_failure_names_host_epoch_and_cause(self, monkeypatch):
        def broken(self, to_ns):
            if self.key == "b" and to_ns == 2 * 10 * MS:
                raise RuntimeError("injected")
            return original(self, to_ns)

        original = HostSim.advance
        monkeypatch.setattr(HostSim, "advance", broken)
        with pytest.raises(ClusterError) as caught:
            run_cluster(small_spec(), seed=3)
        summary, __, trace = str(caught.value).partition("\n\n")
        assert summary == "host b failed at epoch 1: RuntimeError: injected"
        assert "Traceback" in trace and "in broken" in trace

    def test_finalize_failure_is_wrapped(self, monkeypatch):
        def broken(self):
            raise ValueError("seal failed")

        monkeypatch.setattr(HostSim, "finalize", broken)
        pool = SerialShards(small_spec(), [["a", "b", "c"]])
        with pytest.raises(ClusterError,
                           match="^host a failed at finalize: "
                                 "ValueError: seal failed\n"):
            pool.finalize()


# --- host simulation ---------------------------------------------------------


def spawn_directive(spec, tenant, host_key, spawn_ns):
    fields = tenant.to_fields()
    fields.update(kind="spawn", host=host_key, spawn_ns=spawn_ns)
    return fields


class TestHostSim:
    def test_spawn_run_exit_reports(self):
        host = HostSim(HostSpec("h"))
        tenant = TenantSpec("t0", 1, 20_000, 20_000, 0, "g0", 0)
        host.apply([spawn_directive(None, tenant, "h", 0)])
        host.advance(10 * MS)
        out = host.barrier_report(0, 10 * MS)
        kinds = [m["kind"] for m in out]
        assert kinds == ["tenant-exit", "host-load"]
        assert out[0]["remaining"] == 0
        assert out[1]["load"] == 0
        check_sorted(out, "host outbox")

    def test_migrate_reports_remaining_work(self):
        host = HostSim(HostSpec("h"))
        tenant = TenantSpec("t0", 2, 100_000, 10_000, 5 * MS, "g0", 0)
        host.apply([spawn_directive(None, tenant, "h", 0)])
        host.advance(10 * MS)
        host.apply([{"kind": "migrate", "thread": "t0"}])
        host.advance(20 * MS)
        out = host.barrier_report(1, 20 * MS)
        migrate = [m for m in out if m["kind"] == "migrate-out"]
        assert len(migrate) == 1
        assert 0 < migrate[0]["remaining"] < 100_000
        assert migrate[0]["work_done"] + migrate[0]["remaining"] == 100_000

    def test_prepare_down_drains_and_freezes(self):
        host = HostSim(HostSpec("h"))
        tenant = TenantSpec("t0", 1, 500_000, 10_000, 5 * MS, "g0", 0)
        host.apply([spawn_directive(None, tenant, "h", 0)])
        host.advance(10 * MS)
        host.barrier_report(0, 10 * MS)
        host.apply([{"kind": "prepare-down"}])
        host.advance(20 * MS)  # must be a no-op while draining
        out = host.barrier_report(1, 20 * MS)
        assert [m["kind"] for m in out] == ["tenant-drain", "host-down"]
        assert host.frozen
        assert host.barrier_report(2, 30 * MS) == []
        assert host.engine.now == 10 * MS

    def test_incarnation_key_and_clock_alignment(self):
        host = HostSim(HostSpec("h"), incarnation=2, start_ns=40 * MS)
        assert host.key == "h+2"
        assert host.engine.now == 40 * MS

    def test_unknown_directive_rejected(self):
        host = HostSim(HostSpec("h"))
        with pytest.raises(ClusterError, match="unknown directive"):
            host.apply([{"kind": "explode"}])

    def test_duplicate_tenant_rejected(self):
        host = HostSim(HostSpec("h"))
        tenant = TenantSpec("t0", 1, 10_000, 10_000, 0, "g0", 0)
        host.apply([spawn_directive(None, tenant, "h", 0)])
        with pytest.raises(ClusterError, match="duplicate tenant"):
            host.apply([spawn_directive(None, tenant, "h", 0)])


# --- control tier ------------------------------------------------------------


class TestControlTier:
    def test_audit_catches_forged_load_report(self):
        spec = small_spec(tenants=0)
        control = ControlTier(spec, seed=1)
        inbox = [message(0, spec.epoch_ns, name, index, "host-load",
                         load=0, alive=0)
                 for index, name in enumerate(spec.host_names())]
        inbox[0]["load"] = 7  # a tenant the control tier never placed
        with pytest.raises(ClusterError, match="disagrees"):
            control.barrier(0, inbox)

    def test_audit_catches_missing_report(self):
        spec = small_spec(tenants=0)
        control = ControlTier(spec, seed=1)
        with pytest.raises(ClusterError, match="no load report"):
            control.barrier(0, [])

    def test_placements_update_model_and_emit_ctl_messages(self):
        spec = small_spec(tenants=4)
        control = ControlTier(spec, seed=1)
        inbox = [message(0, spec.epoch_ns, name, index, "host-load",
                         load=0, alive=0)
                 for index, name in enumerate(spec.host_names())]
        out = control.barrier(0, inbox)
        places = [m for m in out if m["kind"] == "place"]
        assert places and all(m["src"] == CTL_SRC for m in places)
        assert control.counters["placements"] == len(places)
        check_sorted(inbox + out, "epoch log")

    def test_drawing_arrivals_early_changes_nothing(self):
        """The run loop draws arrivals while shards run; drawing them all
        up front or only at each barrier must place the same tenants."""
        spec = small_spec(tenants=12)

        def reports(control, epoch):
            return [message(epoch, (epoch + 1) * spec.epoch_ns, name, epoch,
                            "host-load", load=model.load(),
                            alive=len(model.tenants))
                    for name, model in sorted(control._hosts.items())]

        lazy, eager = ControlTier(spec, seed=1), ControlTier(spec, seed=1)
        eager.draw_arrivals(spec.horizon_ns)
        for epoch in range(spec.epochs):
            out = lazy.barrier(epoch, reports(lazy, epoch))
            assert eager.barrier(epoch, reports(eager, epoch)) == out
        assert lazy.counters == eager.counters
        assert lazy.counters["admitted"] == spec.tenants


# --- host churn injector -----------------------------------------------------


class TestHostChurn:
    def test_registered_but_not_in_default_grid(self):
        assert "host-churn" in FAULTS
        assert "host-churn" not in default_fault_kinds()

    def test_skips_without_cluster_context(self):
        from repro.sim.engine import Simulator
        ctx = FaultContext(machine=None, engine=Simulator(), structure=None,
                           stream=Stream(1, "t"), horizon=0)
        FAULTS["host-churn"]().arm(ctx)
        assert [entry["action"] for entry in ctx.log] == ["skipped"]

    def test_schedule_is_seed_deterministic(self):
        spec = mini_spec(quick=True)
        first = build_churn(spec, 5)
        second = build_churn(spec, 5)
        assert first.churn and first.churn == second.churn
        downs = [h for __, action, h in first.churn if action == "down"]
        assert len(set(downs)) == len(downs) < len(spec.hosts)

    def test_context_record_and_for_fault_share_log(self):
        spec = mini_spec(quick=True)
        ctx = ClusterFaultContext(spec, Stream(1, "x"))
        child = ctx.for_fault(0, "host-churn")
        child.record("host-churn", "test", host="a")
        assert ctx.log[0]["action"] == "test"
        assert child.churn is ctx.churn


# --- schedstat merge ---------------------------------------------------------


class TestSchedstatMerge:
    def collector(self, dispatches):
        stats = SchedStat()
        node = stats.node("/")
        node.dispatches = dispatches
        leaf = stats.node("/g0/l0")
        leaf.dispatches = dispatches
        leaf.vtime = float(dispatches)
        stats.events_seen = dispatches
        return stats

    def test_paths_gain_host_prefix(self):
        merged = merge_schedstats({"h0": self.collector(3),
                                   "h1": self.collector(5)})
        assert merged.nodes["/host/h0/g0/l0"].dispatches == 3
        assert merged.nodes["/host/h1/g0/l0"].dispatches == 5

    def test_roots_roll_up(self):
        merged = merge_schedstats({"h0": self.collector(3),
                                   "h1": self.collector(5)})
        assert merged.nodes["/"].dispatches == 8
        assert merged.nodes["/host"].dispatches == 8
        assert merged.nodes["/host/h0"].dispatches == 3
        assert merged.events_seen == 8

    def test_roundtrip_through_dict(self):
        stats = self.collector(4)
        again = SchedStat.from_dict(stats.to_dict())
        assert again.to_dict() == stats.to_dict()


# --- end-to-end runner + CLI -------------------------------------------------


class TestRunnerEndToEnd:
    def test_mini_run_completes_all_tenants(self):
        result = run_cluster(small_spec(), seed=3)
        counters = result.control["counters"]
        assert counters["admitted"] == 8
        assert counters["completions"] == 8
        assert result.control["live_tenants"] == 0
        assert result.digests() == run_cluster(small_spec(), seed=3).digests()

    def test_seed_changes_every_artifact(self):
        first = run_cluster(small_spec(), seed=3).digests()
        second = run_cluster(small_spec(), seed=4).digests()
        assert first["trace"] != second["trace"]
        assert first["placement"] != second["placement"]

    def test_artifacts_written(self, tmp_path):
        result = run_cluster(small_spec(), seed=3)
        paths = result.write(str(tmp_path))
        for path in paths.values():
            assert os.path.exists(path)
        report = json.loads(
            (tmp_path / "report.json").read_text())
        assert report["digests"] == result.digests()
        lines = (tmp_path / "cluster-trace.jsonl").read_text().splitlines()
        assert len(lines) == len(result.log)

    def test_scenarios_registry(self):
        assert set(cluster_scenarios()) == {
            "cluster_mini", "cluster_storm", "tenant_rebalance"}
        spec = CLUSTER_SCENARIOS["cluster_storm"].build(True)
        assert len(spec.hosts) >= 16 and spec.tenants >= 50_000

    def test_cli_run_and_report(self, tmp_path, capsys):
        from repro.cluster.cli import main
        out = str(tmp_path / "run")
        assert main(["run", "--scenario", "cluster_mini", "--quick",
                     "--seed", "9", "--out", out]) == 0
        assert main(["report", out]) == 0
        captured = capsys.readouterr().out
        assert "cluster cluster_mini" in captured
        assert "merged cluster schedstat" in captured

    def test_cli_report_missing_dir(self, tmp_path, capsys):
        from repro.cluster.cli import main
        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_schedstat_text_has_host_lanes(self):
        result = run_cluster(small_spec(), seed=3)
        assert "/host/a" in result.schedstat_text
        assert "/host/b" in result.schedstat_text
