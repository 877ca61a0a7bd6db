"""Property test: the store converges under chaos (satellite of PR 7).

The contract, fuzzed over workload shapes and fault schedules: after a
client workload with background anti-entropy, read-repair traffic, and
a closing sweep — all over a channel injecting the standard chaos mix —
every site holds the identical sibling set and vector for every key.
The sweep runs on the same faulted channel, so resumes (and the
attempts over fresh copies behind them) are in the loop, not idealized
away.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.clients import StoreWorkloadConfig, run_store_workload

workloads = st.builds(
    StoreWorkloadConfig,
    n_sites=st.integers(2, 5),
    n_keys=st.integers(1, 6),
    n_clients=st.integers(1, 8),
    ops=st.integers(0, 120),
    read_ratio=st.floats(0.0, 0.9),
    delete_ratio=st.floats(0.0, 0.1),
    zipf=st.floats(0.0, 2.0),
    op_interval=st.just(0.002),
    sync_period=st.just(0.25),
    loss_rate=st.floats(0.0, 0.25),
    chaos_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=25, deadline=None)
@given(config=workloads)
def test_store_converges_to_identical_sibling_sets(config):
    result = run_store_workload(config)
    assert result.converged, (
        f"sites diverged for {config!r}: {result.store.sibling_sets()}")
    # Every client op landed exactly once.
    assert result.ops == config.ops


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), chaos_seed=st.integers(0, 2**16))
def test_chaos_runs_are_deterministic(seed, chaos_seed):
    config = StoreWorkloadConfig(n_sites=3, n_keys=4, n_clients=4, ops=60,
                                 sync_period=0.25, loss_rate=0.15,
                                 chaos_seed=chaos_seed, seed=seed)
    assert (run_store_workload(config).digest()
            == run_store_workload(config).digest())
