"""n=1000 single-shot converge sweep — the flat fast path at fleet scale.

The ROADMAP's 1000-site goal, made a CI smoke job: a 1000-site fleet, a
sparse set of writers (32 sites record one update each), then one ring
sweep out and one sweep back converges every replica.  Pre-optimization
the pointer-chasing vectors, per-event simulator allocations, and
bit-at-a-time codec capped cluster benches at n=128; the array backend
plus the one-pass stream codec runs this sweep in under a second, so the
sweep itself (not a scaled-down proxy) gates regressions.

The sparse write set is the paper's own argument (§1, §4): incremental
schemes price a synchronization by the *divergence* between the pair,
not the fleet size, so converging 32 updates across 1000 sites costs
O(n·|Δ|) element transfers — a fleet-scale run that stays smoke-fast.
Single-shot means exactly one chance per link: 2(n−1) sessions, no
anti-entropy retries, so convergence also re-checks SYNCS end to end at
a scale the unit suite never touches.
"""

import time

from repro.analysis.report import format_table
from repro.net.cluster import ClusterConfig, ClusterRunner
from repro.net.wire import Encoding
from repro.workload.cluster import SessionRequest, UpdateRequest, site_names

N_SITES = 1000
N_WRITERS = 32

#: CI-smoke wall budget, with generous headroom over the ~0.8 s typical
#: run so loaded runners never flake; the point is catching the >10×
#: collapse that losing any one fast path causes, not small drift
#: (the bench/ harness tracks that).
WALL_BUDGET_SECONDS = 10.0


def _ring_sweep(sites):
    """Out-and-back ring schedule: 2(n−1) pulls, each link used once.

    Hops are spaced 1 simulated second apart — far longer than any one
    session — so hop *i+1* always starts after hop *i* completed and
    knowledge genuinely chains down the ring.  (The runner starts a
    requested session as soon as both endpoints are free; spacing by
    less than a session's duration would run the "chain" as concurrent
    independent pairs.)  Simulated spacing costs no wall time.
    """
    sessions = []
    at = 1.0
    for i in range(1, len(sites)):
        sessions.append(SessionRequest(at=at, src=sites[i - 1],
                                       dst=sites[i]))
        at += 1.0
    for i in range(len(sites) - 2, -1, -1):
        sessions.append(SessionRequest(at=at, src=sites[i + 1],
                                       dst=sites[i]))
        at += 1.0
    return sessions


def test_n1000_single_shot_converge(report_writer):
    """32 writers, one sweep, full 1000-site convergence, bounded wall."""
    sites = site_names(N_SITES)
    writers = sites[::N_SITES // N_WRITERS][:N_WRITERS]
    updates = [UpdateRequest(at=0.0, site=site) for site in writers]
    sessions = _ring_sweep(sites)
    config = ClusterConfig(protocol="srv",
                           encoding=Encoding(site_bits=10, value_bits=8))
    start = time.perf_counter()
    result = ClusterRunner(sites, config).run(sessions, updates)
    wall = time.perf_counter() - start

    assert result.sessions == 2 * (N_SITES - 1)
    reference = result.objects[sites[0]][0]
    assert len(reference) == N_WRITERS
    assert all(result.objects[site][0].same_values(reference)
               for site in sites)
    assert wall < WALL_BUDGET_SECONDS

    body = format_table(
        ["sites", "writers", "sessions", "total bits", "sim time", "wall",
         "converged"],
        [[str(N_SITES), str(N_WRITERS), str(result.sessions),
          str(result.total_bits), f"{result.completion_time:.2f} s",
          f"{wall:.2f} s", "yes"]])
    body += ("\n\nSingle-shot: each ring link is used exactly once per "
             "direction, so convergence\nhere certifies SYNCS itself at "
             "n=1000 — no anti-entropy round can paper over a\nmissed "
             f"element.  Wall budget {WALL_BUDGET_SECONDS:.0f} s "
             "(typical ~0.8 s on the array backend).")
    report_writer("n1000_converge",
                  "n=1000 single-shot converge sweep (CI smoke)", body)
