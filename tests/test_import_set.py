"""A run imports what it runs.

Package ``__init__``s resolve their names lazily and the hot modules
import observers only for type checking, so the fleet and store run paths
load none of the optional machinery below, and a run imports nothing
once its timed region has begun.  Each check starts a fresh interpreter:
inside the test process every module is already loaded.
"""

import re

from tests.helpers import run_fresh

#: Modules no fleet or store run executes.  CI's "A run imports what it
#: runs" guard greps the same pattern.
OPTIONAL = re.compile(
    r"repro\.(obs\.(dashboard|waterfall|causal|export|exporters|otlp_schema"
    r"|monitor|consistency|observer)|net\.codec|graphs|replication|analysis"
    r"|baselines|protocols\.(syncg|comparep|fullsync))($|\.)")

RUN_PATH = ("repro.net.cluster", "repro.store.cluster",
            "repro.workload.clients", "repro.workload.epidemic")


def test_run_path_skips_optional_machinery():
    loaded = run_fresh(
        "import json, sys\n"
        f"for name in {RUN_PATH!r}: __import__(name)\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if OPTIONAL.match(name)] == []


def test_runs_import_nothing_once_started():
    gained = run_fresh("""
import json, sys
from repro.net.cluster import launch_cluster
from repro.net.topology import LinkProfile, TopologySpec
from repro.workload import clients, epidemic

def repro_modules():
    return {name for name in sys.modules if name.startswith("repro")}

spec = TopologySpec.grid(2, 4, intra=LinkProfile(0.002, 1e6),
                         inter=LinkProfile(0.04, 250e3, loss=0.2),
                         replication=2, chaos_seed=11)
runner = launch_cluster(spec, protocol="srv", n_objects=8, batch_size=4)
sessions = epidemic.epidemic_schedule(spec, runner.shards, rounds=2, seed=0)
updates = epidemic.sharded_update_schedule(spec, runner.shards,
                                           n_updates=16, seed=1)
config = clients.StoreWorkloadConfig(n_sites=4, n_keys=8, n_clients=8,
                                     ops=300, seed=3)
before = repro_modules()
fleet = runner.run(sessions, updates)
after_fleet = repro_modules()
store = clients.run_store_workload(config)
after_store = repro_modules()
print(json.dumps({
    "fleet": sorted(after_fleet - before),
    "store": sorted(after_store - after_fleet),
    "retries": fleet.totals.retries,
    "ops": store.ops,
}))
""")
    assert gained["fleet"] == [] and gained["store"] == []
    # The fleet really ran lossy (ARQ retried) and the store really ran.
    assert gained["retries"] > 0 and gained["ops"] == 300
