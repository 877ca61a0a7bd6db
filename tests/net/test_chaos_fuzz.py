"""Property tests for the fault-tolerant transport (satellite of E11).

The contract, fuzzed over histories and fault schedules: a session that
*completes* over a faulted channel — retries, resumes and all — leaves
exactly the state a fault-free run produces, and its wire accounting
splits exactly into goodput plus retransmitted bits.  At cluster scale
the oracle is :func:`replay_sequential`: the sequential replay of a
chaotic concurrent run must reproduce its per-session bits, its
retry/resume behavior, and its end-state vectors.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.skip import SkipRotatingVector
from repro.errors import SessionError
from repro.net.channel import ChannelSpec
from repro.net.cluster import ClusterConfig, ClusterRunner, replay_sequential
from repro.net.faults import FaultSpec, RetryPolicy
from repro.net.runner import SessionOptions, run_timed
from repro.net.wire import Encoding
from repro.protocols.session import run_session
from repro.protocols.syncs import syncs_receiver, syncs_sender
from repro.net.faults import chaos_faults
from repro.workload.cluster import (gossip_schedule, site_names,
                                    update_schedule)
from tests.helpers import (ShadowAttempts, build_history, same_objects,
                           session_timing)

ENC = Encoding(site_bits=8, value_bits=16)

N_SITES = 4
update_command = st.tuples(st.just("update"), st.integers(0, N_SITES - 1))
sync_command = st.tuples(st.just("sync"), st.integers(0, N_SITES - 1),
                         st.integers(0, N_SITES - 1))
commands = st.lists(st.one_of(update_command, sync_command), max_size=25)

fault_specs = st.builds(
    FaultSpec,
    drop=st.floats(0.0, 0.4),
    duplicate=st.floats(0.0, 0.3),
    reorder=st.floats(0.0, 0.4),
    reorder_window=st.floats(0.01, 0.2),
    seed=st.integers(0, 2**16),
)


def resumable_session(a, b, faults):
    """One resumable SYNCS session pulling ``b`` into copies of ``a``."""
    def make_pairs(copies):
        (current,) = copies
        reconcile = current.compare(b).is_concurrent
        return ((syncs_sender(b),
                 syncs_receiver(current, reconcile=reconcile)),)

    attempts = ShadowAttempts([a], make_pairs)
    options = SessionOptions(
        rebuild=attempts,
        channel=ChannelSpec(latency=0.01, bandwidth=1e6, faults=faults),
        encoding=ENC,
        retry=RetryPolicy(max_retries=4, initial_rto=0.1,
                          max_session_attempts=8))
    return attempts, options


@settings(max_examples=40, deadline=None)
@given(commands=commands,
       pair=st.tuples(st.integers(0, N_SITES - 1),
                      st.integers(0, N_SITES - 1)),
       faults=fault_specs)
def test_completed_faulted_session_equals_fault_free_run(commands, pair,
                                                         faults):
    vectors = build_history(SkipRotatingVector, commands, N_SITES)
    b = vectors[pair[1] if pair[1] != pair[0] else (pair[1] + 1) % N_SITES]

    oracle = vectors[pair[0]].copy()
    run_session(syncs_sender(b),
                syncs_receiver(oracle,
                               reconcile=oracle.compare(b).is_concurrent),
                encoding=ENC)

    attempts, options = resumable_session(vectors[pair[0]], b, faults)
    try:
        result = run_timed(options)
    except SessionError:
        # Budget exhausted before completion — the property quantifies
        # over *completed* sessions only; an abort is a loud non-result.
        return
    (installed,) = attempts.latest
    assert installed.same_values(oracle)
    stats = result.stats
    assert stats.total_retransmitted_bits \
        == stats.total_bits - stats.total_goodput_bits
    assert stats.total_goodput_bits >= 0
    if not faults.enabled:
        assert stats.total_retransmitted_bits == 0
        assert stats.retries == 0


@settings(max_examples=12, deadline=None)
@given(loss=st.floats(0.0, 0.25),
       chaos_seed=st.integers(0, 2**16),
       workload_seed=st.integers(0, 2**16),
       n_sites=st.integers(3, 5),
       rounds=st.integers(2, 6))
# Two of session 4's events tie in exact arithmetic.  A float clock broke
# that tie differently in the cluster and in the replay, and the session's
# fault draws with it (89 vs 97 bits); on integer nanoseconds the events
# tie in both runs and break FIFO by sequence number in both.
@example(loss=0.25, chaos_seed=0, workload_seed=1, n_sites=3, rounds=2)
def test_chaotic_cluster_run_matches_sequential_replay(loss, chaos_seed,
                                                       workload_seed,
                                                       n_sites, rounds):
    config = ClusterConfig(
        protocol="srv",
        channel=ChannelSpec(latency=0.01, bandwidth=1e6,
                            faults=chaos_faults(loss, latency=0.01,
                                                seed=chaos_seed)),
        encoding=ENC,
        retry=RetryPolicy(max_retries=8, initial_rto=0.05,
                          max_session_attempts=12))
    sites = site_names(n_sites)
    updates = update_schedule(sites, n_updates=2 * n_sites, interval=0.05,
                              seed=workload_seed)
    sessions = gossip_schedule(sites, rounds=rounds,
                               seed=workload_seed + 1)
    result = ClusterRunner(sites, config).run(sessions, updates)

    totals = result.totals
    assert totals.total_retransmitted_bits \
        == totals.total_bits - totals.total_goodput_bits
    for record in result.records:
        stats = record.result.stats
        assert stats.total_retransmitted_bits \
            == stats.total_bits - stats.total_goodput_bits

    sequential, objects = replay_sequential(sites, config, result.log)
    assert result.per_session_bits() \
        == [r.stats.total_bits for r in sequential]
    assert [r.result.stats.retries for r in result.records] \
        == [r.stats.retries for r in sequential]
    assert [r.result.stats.resumes for r in result.records] \
        == [r.stats.resumes for r in sequential]
    assert [session_timing(r.result) for r in result.records] \
        == [session_timing(r) for r in sequential]
    assert same_objects(result.objects, objects)
