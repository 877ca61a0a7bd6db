"""E11 — synchronization over a faulted channel (the chaos scenario).

The paper's cost model assumes a reliable wire; a deployed anti-entropy
fleet does not get one.  E11 measures what reliability costs each
scheme: the 8-site × 32-object batched fleet re-runs per protocol over a
channel that drops, duplicates, and reorders (the standard
``chaos_faults`` mix at nominal loss 1% and 10%), with the stop-and-wait
ARQ transport recovering transparently.  All three protocols must still
converge, and the wire accounting must split exactly into goodput (the
fault-free payload) plus retransmitted-class overhead — so the table
reports robustness overhead per scheme the same way every other
benchmark reports traffic.
"""

from repro.analysis.report import format_table
from repro.perf.bench import BenchConfig, run_cluster_bench

#: The chaos grid plus the store cell: every protocol × loss ∈ {1%, 10%}
#: on the batched fleet, with the default store workload riding along
#: (the chaos assertions below select the chaos-loss records by
#: scenario, so the grids coexist).  ``rounds`` is raised above the
#: standing sweep's default so the random gossip schedule covers the
#: fleet even though every reconciliation spawns a fresh self-increment
#: that itself needs propagating — making convergence a hard assertion,
#: not a coin flip.  ``topology=None`` keeps E11 focused on the
#: single-region chaos question; the multi-region fleet has its own
#: benchmark.
CONFIG = BenchConfig(
    site_counts=(), batched_sizes=(), rounds=10, updates_per_site=1.0,
    chaos_loss_rates=(0.01, 0.1), chaos_seed=11, topology=None)


def run_grid():
    return run_cluster_bench(CONFIG)["runs"]


def test_e11_all_protocols_converge_under_loss(benchmark, report_writer):
    all_runs = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    runs = [run for run in all_runs if run["scenario"] == "chaos-loss"]
    assert len(runs) == 6  # 3 protocols × 2 loss rates
    # The store cell runs alongside the chaos grid (the PR-8 era pinned
    # store_ops=0 to dodge a store/chaos grid clash; the grids are
    # independent cells now and must both emerge).
    assert sum(run["scenario"] == "store-workload"
               for run in all_runs) == 1

    rows = []
    for run in runs:
        assert run["scenario"] == "chaos-loss"
        # The headline claim: loss does not break convergence.
        assert run["consistent"], (run["protocol"], run["loss_rate"])
        # The accounting identity, exact at document level too.
        assert run["goodput_bits"] + run["retransmitted_bits"] \
            == run["total_bits"]
        rows.append([
            run["protocol"], f"{run['loss_rate']:g}", run["total_bits"],
            run["goodput_bits"], run["retransmitted_bits"],
            f"{run['goodput_overhead_pct']:.1f}%", run["retries"],
            run["timeouts"], run["resumes"]])

    by_key = {(r["protocol"], r["loss_rate"]): r for r in runs}
    for protocol in ("brv", "crv", "srv"):
        low = by_key[(protocol, 0.01)]
        high = by_key[(protocol, 0.1)]
        # 10% loss must actually engage the transport...
        assert high["retransmitted_bits"] > 0
        assert high["retries"] > 0
        # ...and cost more overhead than 1% loss does.
        assert high["goodput_overhead_pct"] \
            > low["goodput_overhead_pct"]

    body = format_table(
        ["protocol", "loss", "total bits", "goodput", "retransmitted",
         "overhead", "retries", "timeouts", "resumes"],
        rows)
    body += ("\n\nGoodput is what a perfect channel would have carried; "
             "the overhead column is\nretransmitted/goodput — the "
             "price of reliability per scheme, exact by the\n"
             "accounting identity retransmitted == total − goodput.")
    report_writer(
        "e11_chaos",
        f"E11 — chaos grid, {CONFIG.batched_site_count} sites × "
        f"{CONFIG.batched_objects} objects, batch "
        f"{CONFIG.chaos_batch_size}",
        body)
