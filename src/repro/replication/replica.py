"""Replica records for the state-transfer system."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.core.rotating import BasicRotatingVector
from repro.core.versionvector import VersionVector
from repro.protocols import registry

Metadata = Union[VersionVector, BasicRotatingVector]

#: Metadata kind tags accepted by the replication systems.
METADATA_KINDS = ("vv", *registry.names())


def make_metadata(kind: str) -> Metadata:
    """A fresh, empty metadata instance of the requested kind.

    ``vv`` is the traditional whole-vector baseline; every other kind is
    a scheme of :mod:`repro.protocols.registry`.
    """
    if kind == "vv":
        return VersionVector()
    if kind not in METADATA_KINDS:
        raise ValueError(f"unknown metadata kind {kind!r}; expected one of "
                         f"{METADATA_KINDS}")
    return registry.get(kind).vector_cls()


@dataclass
class StateReplica:
    """One site's replica of one object, with its conflict-detection metadata.

    ``node_id`` tracks the version node in the analytic replication graph
    (when the system records one); ``conflicted`` marks a replica excluded
    by manual conflict resolution until :meth:`.StateTransferSystem.resolve_manually`
    readmits it.
    """

    site: str
    object_id: str
    value: Any
    meta: Metadata
    node_id: Optional[int] = None
    conflicted: bool = False
    updates: int = field(default=0)

    def values_snapshot(self) -> dict:
        """The plain version-vector view of the metadata."""
        if isinstance(self.meta, VersionVector):
            return self.meta.as_dict()
        return self.meta.to_version_vector().as_dict()
