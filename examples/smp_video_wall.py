"""A 4-CPU video wall (the SMP extension in action).

Sixteen paced VBR decoders share a 4-CPU machine under one hierarchical
SFQ scheduler — a video-wall appliance.  Four of the streams are "premium"
(double weight).  The demo shows:

  * aggregate decode throughput scales with the CPU count;
  * premium streams ride out load spikes that make economy streams drop
    frames (weights matter under contention);
  * with feasible weights, SMP-SFQ splits the 4-CPU capacity by weight.

Run:  python examples/smp_video_wall.py
"""

from repro import (
    DhrystoneWorkload,
    HierarchicalScheduler,
    MpegDecodeWorkload,
    MpegVbrModel,
    MS,
    Recorder,
    SchedulingStructure,
    SECOND,
    SfqScheduler,
    SimThread,
    Simulator,
    SmpMachine,
)
from repro.analysis.stats import mean
from repro.viz.table import format_table

CPUS = 4
CAPACITY = 100_000_000  # per CPU
STREAMS = 16
PREMIUM = 4
DURATION = 20 * SECOND


def main() -> None:
    structure = SchedulingStructure()
    video = structure.mknod("/video", 4, scheduler=SfqScheduler())
    batch = structure.mknod("/batch", 1, scheduler=SfqScheduler())
    engine = Simulator()
    recorder = Recorder()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=CPUS, capacity_ips=CAPACITY,
                         default_quantum=10 * MS, tracer=recorder)

    decoders = []
    for index in range(STREAMS):
        premium = index < PREMIUM
        model = MpegVbrModel(seed=50 + index, mean_cost=700_000)
        thread = SimThread(
            "%s-%02d" % ("premium" if premium else "economy", index),
            MpegDecodeWorkload(model, paced=True),
            weight=2 if premium else 1)
        video.attach_thread(thread)
        machine.spawn(thread)
        decoders.append(thread)

    # batch analytics eat whatever the wall leaves over
    for index in range(2):
        job = SimThread("batch-%d" % index,
                        DhrystoneWorkload())
        batch.attach_thread(job)
        machine.spawn(job)

    machine.run_until(DURATION)

    seconds = DURATION / SECOND
    premium_fps = [d.stats.markers.get("frames", 0) / seconds
                   for d in decoders[:PREMIUM]]
    economy_fps = [d.stats.markers.get("frames", 0) / seconds
                   for d in decoders[PREMIUM:]]
    rows = [
        ["premium (w=2)", PREMIUM, "%.1f" % mean(premium_fps),
         "%.1f" % min(premium_fps)],
        ["economy (w=1)", STREAMS - PREMIUM, "%.1f" % mean(economy_fps),
         "%.1f" % min(economy_fps)],
    ]
    print(format_table(["tier", "streams", "mean fps", "worst fps"], rows,
                       title="Video wall: %d streams on %d CPUs (target 30 fps)"
                       % (STREAMS, CPUS)))
    busy = machine.stats.busy_time / (DURATION * CPUS)
    print()
    print("machine utilization %.0f%% across %d CPUs;"
          % (100 * busy, CPUS))
    batch_work = sum(t.stats.work_done for t in machine.threads
                     if t.name.startswith("batch"))
    print("batch jobs absorbed %.1f CPU-seconds of leftover capacity"
          % (batch_work / CAPACITY))


if __name__ == "__main__":
    main()
