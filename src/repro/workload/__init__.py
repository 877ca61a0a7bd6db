"""Workload generation, scripted scenarios, and trace replay.

The pair samplers that decide who syncs with whom (``RingTopology`` and
friends) live with the rest of the fleet vocabulary in
:mod:`repro.net.topology`.
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(__name__, {
    "events": ("CloneEvent", "CreateEvent", "SyncEvent", "TraceEvent",
               "UpdateEvent"),
    "generator": ("WorkloadConfig", "default_value_factory", "generate_trace"),
    "replay": ("ReplaySummary", "replay_ops", "replay_state"),
    "scenarios": ("FIGURE1_ORDERS", "FIGURE1_VECTORS", "figure1_graph",
                  "figure1_vectors", "figure3_graphs"),
})

__all__ = [
    "CloneEvent",
    "CreateEvent",
    "FIGURE1_ORDERS",
    "FIGURE1_VECTORS",
    "ReplaySummary",
    "SyncEvent",
    "TraceEvent",
    "UpdateEvent",
    "WorkloadConfig",
    "default_value_factory",
    "figure1_graph",
    "figure1_vectors",
    "figure3_graphs",
    "generate_trace",
    "replay_ops",
    "replay_state",
]
