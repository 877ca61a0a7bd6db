"""Simulated network substrate: wire pricing, statistics, and timing.

* :mod:`repro.net.wire` — bit-exact message pricing matching Table 2.
* :mod:`repro.net.stats` — per-session traffic counters.
* :mod:`repro.net.simulator` — a small discrete-event simulation kernel.
* :mod:`repro.net.channel` — duplex channels with latency and bandwidth.
* :mod:`repro.net.runner` — runs protocol coroutines on simulated time to
  measure completion time (pipelined vs stop-and-wait) and the β excess.
* :mod:`repro.net.codec` — real bit-level serialization of every message;
  the serialized session driver proves priced bits == wire bits.
* :mod:`repro.net.topology` — declarative multi-region fleet shapes
  (:class:`TopologySpec`) with per-region-pair link profiles, and the
  peer and pair samplers every schedule draws through.
* :mod:`repro.net.sharding` — consistent-hash object→site-group
  assignment for fleets too large to replicate everything everywhere.
* :func:`repro.net.cluster.launch_cluster` — the unified keyword-only
  entry point turning one :class:`TopologySpec` into a ready
  :class:`~repro.net.cluster.ClusterRunner`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "cluster": ("launch_cluster",),
    "codec": ("BitReader", "BitWriter", "Codec", "NodeInterner",
              "run_session_serialized"),
    "sharding": ("HashRing", "ShardMap", "build_shard_map"),
    "stats": ("DirectionStats", "TransferStats"),
    "topology": ("GossipSpec", "LinkProfile", "RegionLink", "RegionSpec",
                 "TopologySpec", "select_peer", "uniform_peer_rounds"),
    "wire": ("DEFAULT_ENCODING", "Encoding", "bits_for"),
})

__all__ = [
    "BitReader",
    "BitWriter",
    "Codec",
    "DEFAULT_ENCODING",
    "DirectionStats",
    "NodeInterner",
    "Encoding",
    "GossipSpec",
    "HashRing",
    "LinkProfile",
    "RegionLink",
    "RegionSpec",
    "ShardMap",
    "TopologySpec",
    "TransferStats",
    "build_shard_map",
    "launch_cluster",
    "run_session_serialized",
    "select_peer",
    "uniform_peer_rounds",
    "bits_for",
]
