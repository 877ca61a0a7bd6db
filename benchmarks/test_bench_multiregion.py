"""Multi-region fleet at scale: 3 regions × 334 sites × 10k objects.

The topology milestone, made a CI smoke job: a 1002-site fleet sharded
over 10 000 objects at replication 3, three regions joined by slow 1%-
loss interconnects, epidemic gossip plus the deterministic closing
sweep — and every replica group converges.  This is the fleet the
historical every-site-hosts-everything layout cannot touch (1000 sites
× 10k objects would mean 10M replicas; sharding keeps it at 30k), so
the run certifies the whole topology stack end to end: consistent-hash
assignment, shard-scoped sessions, region-aware peer selection, ARQ
recovery on the lossy inter-region links, and the sweep's structural
convergence argument at a scale the unit suite never exercises.

Unlike the bench grid's always-paired cells, this run skips the
sequential replay (it would double an already fleet-sized run for an
invariant the grid checks on every commit at n=48) — the assertions
here are convergence, shard scoping, and the wall budget.
"""

import time

from repro.analysis.report import format_table
from repro.net.cluster import launch_cluster
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.workload.epidemic import (closing_sweep, epidemic_schedule,
                                     sharded_update_schedule)

N_REGIONS = 3
SITES_PER_REGION = 334
N_OBJECTS = 10_000
N_UPDATES = 2_000

#: CI-smoke wall budget, with generous headroom over the ~15 s typical
#: run so loaded runners never flake; the point is catching the order-
#: of-magnitude collapse losing a fast path causes, not small drift.
WALL_BUDGET_SECONDS = 120.0

SPEC = TopologySpec.grid(
    N_REGIONS, SITES_PER_REGION,
    intra=LinkProfile(latency=0.002, bandwidth=1_000_000.0),
    inter=LinkProfile(latency=0.04, bandwidth=250_000.0, loss=0.01),
    replication=3, chaos_seed=11)


def test_multiregion_fleet_converges_under_loss(report_writer):
    """1002 sites, 10k objects, 1% inter-region loss, full convergence."""
    runner = launch_cluster(
        SPEC, protocol="srv", n_objects=N_OBJECTS, batch_size=16,
        encoding=Encoding.for_system(SPEC.n_sites, 64))
    shards = runner.shards
    sessions = epidemic_schedule(SPEC, shards, rounds=2)
    updates = sharded_update_schedule(SPEC, shards, n_updates=N_UPDATES)
    last = max([r.at for r in sessions] + [u.at for u in updates])
    sessions = sessions + closing_sweep(shards, start=last + 500.0)

    start = time.perf_counter()
    result = runner.run(sessions, updates)
    wall = time.perf_counter() - start
    print(f"\nwall {wall:.1f} s (budget {WALL_BUDGET_SECONDS:.0f} s)")

    # The headline claim: every replica group agrees on every object.
    assert result.consistent()
    assert result.skipped_sessions == 0
    assert result.updates_applied == N_UPDATES
    # Sharding actually bounded the state: each site hosts its ring
    # share, not the full 10k objects.
    load = shards.load_summary()
    assert load["max"] < N_OBJECTS / 10
    # The lossy interconnects really engaged the transport.
    assert result.totals.total_retransmitted_bits > 0
    assert wall < WALL_BUDGET_SECONDS

    body = format_table(
        ["sites", "objects", "repl", "sessions", "total bits",
         "retransmitted", "converged"],
        [[str(SPEC.n_sites), str(N_OBJECTS), "3", str(result.sessions),
          str(result.total_bits),
          str(result.totals.total_retransmitted_bits), "yes"]])
    body += (f"\n\nPer-site hosted objects: min {load['min']:.0f} / "
             f"mean {load['mean']:.1f} / max {load['max']:.0f} — the "
             "consistent-hash ring keeps 30k\nreplica slots spread over "
             "1002 sites.  Convergence is closed by the two-phase\n"
             "leader sweep, so it is structural, not a gossip "
             f"coin-flip.\nWall budget {WALL_BUDGET_SECONDS:.0f} s; the "
             "run prints its wall time and does not commit it.")
    report_writer(
        "multiregion_fleet",
        f"multi-region fleet — {N_REGIONS}×{SITES_PER_REGION} sites, "
        f"{N_OBJECTS} objects, 1% inter-region loss (CI smoke)", body)
