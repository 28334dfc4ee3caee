"""Extension: vSched ported onto an EEVDF guest scheduler.

The paper (§4) implements on CFS but claims the port to EEVDF is easy;
this test runs the harvesting scenario under both guest schedulers and
asserts vSched's win carries over.
"""

from repro.cluster import attach_scheduler, build_plain_vm, make_context
from repro.guest import GuestConfig
from repro.sim import MSEC, SEC


def _harvest(scheduler: str, mode: str) -> int:
    env = build_plain_vm(4, host_slice_ns=5 * MSEC,
                         guest_config=GuestConfig(scheduler=scheduler))
    for i in range(4):
        env.machine.add_host_task(f"c{i}", pinned=(i,))
    vs = attach_scheduler(env, mode)
    ctx = make_context(env, vs, f"eevdf-bench-{scheduler}-{mode}")
    env.engine.run_until(4 * SEC)
    done = []

    def burn(api):
        yield api.run(1 * SEC)
        done.append(api.now())

    env.kernel.spawn(burn, "burn", group=vs.workload_group, initial_util=900)
    env.engine.run_until(40 * SEC)
    assert done
    return done[0] - 4 * SEC


def test_vsched_gain_on_both_guest_schedulers():
    r = {(s, m): _harvest(s, m)
         for s in ("cfs", "eevdf") for m in ("cfs", "vsched")}
    print()
    for s in ("cfs", "eevdf"):
        speedup = r[(s, "cfs")] / r[(s, "vsched")]
        print(f"guest scheduler {s}: vSched speedup {speedup:.2f}x")
        assert speedup > 1.3
