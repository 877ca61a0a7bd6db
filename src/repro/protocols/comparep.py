"""Distributed COMPARE: the 2·log(mn)-bit vector comparison exchange.

Algorithm 1 compares two rotating vectors from their least (front) elements
alone.  Distributed across two sites it costs one element record each way
(§3.3: "(2·log mn) bits are transferred, which is the minimum amount of
information required for the vector comparison problem"), plus one verdict
bit each way so both sites end up knowing the relation:

* site B, holding *b* and receiving ``⌊a⌋ = (l_a, u_a)``, can evaluate
  ``x := u_a ≤ b[l_a]`` — true iff *b* already knows *a*'s latest update,
  i.e. ``a ⪯ b``;
* site A symmetrically evaluates ``y := u_b ≤ a[l_b]`` (``b ⪯ a``);
* ``x ∧ y`` ⇔ equal, ``x`` alone ⇔ ``a ≺ b``, ``y`` alone ⇔ ``b ≺ a``,
  neither ⇔ concurrent.

The same fresh-front precondition as :meth:`BasicRotatingVector.compare`
applies (see that docstring).  Empty vectors are announced with a null
least element and trivially precede everything.
"""

from __future__ import annotations

from typing import Any, Generator, Tuple

from repro.core.order import Ordering
from repro.core.rotating import BasicRotatingVector
from repro.net.wire import DEFAULT_ENCODING, Encoding
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.protocols.effects import RECV, Send
from repro.protocols.messages import CompareLeast, VerdictBit
from repro.protocols.session import SessionResult, run_session


def _least(vector: BasicRotatingVector) -> CompareLeast:
    front = vector.order.front()
    return CompareLeast(None) if front is None else CompareLeast(*front)


def _knows(vector: BasicRotatingVector, peer_least: CompareLeast) -> bool:
    """True iff ``vector`` already covers the peer's latest update."""
    if peer_least.site is None:
        return True  # an empty peer precedes everything
    return peer_least.value <= vector[peer_least.site]


def _verdict(i_know_peer: bool, peer_knows_me: bool) -> Ordering:
    if i_know_peer and peer_knows_me:
        return Ordering.EQUAL
    if peer_knows_me:
        return Ordering.BEFORE
    if i_know_peer:
        return Ordering.AFTER
    return Ordering.CONCURRENT


def compare_party(vector: BasicRotatingVector, *,
                  tracer: Tracer | None = None,
                  name: str = "party") -> Generator[Any, Any, Ordering]:
    """One symmetric side of the COMPARE exchange.

    Both parties run this coroutine; each returns the verdict *from its own
    vector's perspective* (so the two results are mutual
    :meth:`~repro.core.order.Ordering.flipped` images).
    """
    yield Send(_least(vector))
    peer_least = yield RECV
    assert isinstance(peer_least, CompareLeast)
    i_know_peer = _knows(vector, peer_least)
    yield Send(VerdictBit(i_know_peer))
    peer_bit = yield RECV
    assert isinstance(peer_bit, VerdictBit)
    verdict = _verdict(i_know_peer, peer_bit.dominated)
    if tracer is not None:
        tracer.event("verdict", party=name, ordering=verdict.name)
    return verdict


def compare_remote(a: BasicRotatingVector, b: BasicRotatingVector, *,
                   encoding: Encoding = DEFAULT_ENCODING,
                   tracer: Tracer | None = None
                   ) -> Tuple[Ordering, SessionResult]:
    """Run the distributed COMPARE; returns (verdict from *a*'s side, session).

    The session's traffic is 2·log(mn) + 2 bits regardless of n — the O(1)
    communication claim of §3.3.
    """
    result = run_session(compare_party(a, tracer=tracer, name="a"),
                         compare_party(b, tracer=tracer, name="b"),
                         encoding=encoding, tracer=tracer,
                         span_name="COMPARE")
    return result.sender_result, result


def relationship(a: BasicRotatingVector, b: BasicRotatingVector,
                 *, remote: bool = False,
                 encoding: Encoding = DEFAULT_ENCODING,
                 tracer: Tracer | None = None) -> Ordering:
    """Convenience: Algorithm 1 locally, or the distributed protocol.

    Args:
        a: left vector.
        b: right vector.
        remote: when true, run the wire protocol (and discard its stats).
        tracer: optional trace sink for the remote exchange.
    """
    if not remote:
        return a.compare(b)
    verdict, _ = compare_remote(a, b, encoding=encoding, tracer=tracer)
    return verdict
