"""Tests for the causal analyzer: graph, convergence, critical path."""

import json
import os

from repro.net.channel import ChannelSpec, serialization_ns
from repro.net.cluster import ClusterConfig, ClusterRunner, launch_cluster
from repro.net.faults import RetryPolicy, chaos_faults
from repro.net.simulator import to_ns, to_seconds
from repro.net.topology import LinkProfile, TopologySpec
from repro.net.wire import Encoding
from repro.obs import trace as obs
from repro.obs.causal import (CATEGORIES, CAUSAL_SCHEMA, analyze_events,
                              analyze_tracer, validate_analysis)
from repro.obs.trace import SamplingPolicy, Tracer
from repro.workload.cluster import (SessionRequest, UpdateRequest,
                                    gossip_schedule, site_names,
                                    update_schedule)

ENC = Encoding(site_bits=8, value_bits=16)
#: Round numbers so the star oracle below is hand-checkable.
LATENCY, BANDWIDTH = 0.05, 1e5
CHANNEL = ChannelSpec(latency=LATENCY, bandwidth=BANDWIDTH)


def star_trace():
    """The acceptance scenario: a star, single writer, 2 spokes.

    One update lands on the hub ``A`` at t=0; ``B`` pulls at t=0.1 and
    ``C`` at t=0.15 — but the hub is busy, so session 1 queues behind
    session 0 and convergence is the strictly serial chain
    request(B) → session 0 → session 1 → session_end(C).
    """
    tracer = Tracer()
    runner = ClusterRunner(
        ["A", "B", "C"],
        ClusterConfig(protocol="brv", channel=CHANNEL, encoding=ENC),
        tracer=tracer)
    result = runner.run(
        [SessionRequest(0.1, "A", "B"), SessionRequest(0.15, "A", "C")],
        [UpdateRequest(0.0, "A")])
    return tracer, result


def chaos_cluster(seed=2, loss=0.2, retry=None):
    """A seeded faulted fleet (drops + duplicates + reorders, ARQ on)."""
    sites = site_names(4)
    config_kwargs = {} if retry is None else {"retry": retry}
    config = ClusterConfig(
        protocol="srv",
        channel=ChannelSpec(latency=LATENCY, bandwidth=BANDWIDTH,
                            faults=chaos_faults(loss, latency=LATENCY,
                                                seed=seed)),
        encoding=ENC, **config_kwargs)
    sessions = gossip_schedule(sites, rounds=5, period=1.0, jitter=0.2,
                               seed=seed)
    updates = update_schedule(sites, n_updates=6, interval=0.1,
                              seed=seed + 1)
    tracer = Tracer()
    ClusterRunner(sites, config, tracer=tracer).run(sessions, updates)
    return tracer


class TestStarExactness:
    """ISSUE acceptance: the critical path is bit-exact and zero-residual."""

    def test_converges_at_last_session_end(self):
        tracer, _ = star_trace()
        analysis = analyze_tracer(tracer)
        assert analysis.mode == "cluster"
        assert analysis.converged
        # The last session's commit, which on a perfect link falls at
        # the instant it ends.
        assert analysis.convergence.kind == obs.SESSION_COMMIT
        assert analysis.convergence.party == "C"
        assert analysis.graph.is_acyclic()
        assert analysis.graph.dropped_links == 0

    def test_forward_only_so_the_oracle_is_sound(self):
        # The hand model below serializes forward messages back to back;
        # a backward message would invalidate it.
        tracer, _ = star_trace()
        assert all(event.fields.get("direction") != "backward"
                   for event in tracer.events
                   if event.kind == obs.MESSAGE)

    def test_critical_path_matches_hand_computed_time_bit_exactly(self):
        tracer, _ = star_trace()
        analysis = analyze_tracer(tracer)
        path = analysis.critical_path

        # Hand model in the timed driver's integer nanoseconds: each
        # forward message appends its serialization, its delivery lands
        # one latency later, and the session ends at the last delivery.
        # Message sizes are data (not timing), read off the trace.
        def session_end(start, session):
            t = start
            last = t
            for event in tracer.select(obs.MESSAGE, session=session):
                t += serialization_ns(event.bits, CHANNEL.bandwidth)
                last = t + CHANNEL.latency_ns
            return last

        end0 = session_end(to_ns(0.1), 0)
        end1 = session_end(end0, 1)
        assert analysis.convergence.time == to_seconds(end1)
        # The path anchors at the first spoke's request (the latest
        # binding cause of session 0's start — the update at t=0 was
        # long done) and ends at the convergence event.
        assert path["start"]["kind"] == obs.SESSION_REQUEST
        assert path["start"]["time"] == 0.1
        assert path["end"]["seq"] == analysis.convergence.seq
        assert path["elapsed"] == to_seconds(end1 - to_ns(0.1))
        assert path["rounds"] == 2

    def test_attribution_sums_to_elapsed_with_zero_residual(self):
        tracer, _ = star_trace()
        path = analyze_tracer(tracer).critical_path
        # Every value is whole ns, so the sum is taken in integers.
        total = sum(to_ns(path["attribution"][category])
                    for category in CATEGORIES)
        assert total == to_ns(path["elapsed"])

    def test_attribution_is_mostly_latency(self):
        # Two serialized 50ms-latency rounds dominate two ~0.27ms
        # serializations; nothing is faulted, retried, or queued long.
        tracer, _ = star_trace()
        attribution = analyze_tracer(tracer).critical_path["attribution"]
        assert attribution["latency"] == 2 * LATENCY
        assert 0 < attribution["serialization"] < 0.001
        assert attribution["fault_delay"] == 0.0
        assert attribution["arq"] == 0.0

    def test_hop_categories_sum_to_hop_elapsed(self):
        tracer, _ = star_trace()
        path = analyze_tracer(tracer).critical_path
        for hop in path["hops"]:
            assert sum(map(to_ns, hop["categories"].values())) \
                == to_ns(hop["elapsed"])


class TestGraphStructure:
    def test_origin_is_the_first_update(self):
        tracer, _ = star_trace()
        analysis = analyze_tracer(tracer)
        assert analysis.origin.kind == obs.UPDATE
        assert analysis.origin.party == "A"
        assert analysis.origin.time == 0.0

    def test_queue_edge_links_request_to_start(self):
        tracer, _ = star_trace()
        graph = analyze_tracer(tracer).graph
        starts = [node for node in graph.nodes.values()
                  if node.kind == obs.SESSION_START]
        assert len(starts) == 2
        for start in starts:
            kinds = {graph.nodes[source].kind: edge
                     for source, edge in start.preds}
            assert kinds[obs.SESSION_REQUEST] == "queue"

    def test_transmit_edges_link_deliver_to_send(self):
        tracer, _ = star_trace()
        graph = analyze_tracer(tracer).graph
        delivers = [node for node in graph.nodes.values()
                    if node.kind == obs.DELIVER]
        assert delivers
        for deliver in delivers:
            transmit = [source for source, edge in deliver.preds
                        if edge == "transmit"]
            assert len(transmit) == 1
            assert graph.nodes[transmit[0]].kind == obs.MESSAGE

    def test_channel_constants_recovered_from_span(self):
        tracer, _ = star_trace()
        graph = analyze_tracer(tracer).graph
        assert graph.channels
        for info in graph.channels.values():
            assert info.latency == LATENCY
            assert info.bandwidth == BANDWIDTH
            assert info.protocol == "brv"

    def test_wire_mode_for_sessionless_traces(self):
        tracer = Tracer()
        tracer.event(obs.MESSAGE, time=0.0, party="s", message="M", bits=8)
        tracer.event(obs.DELIVER, time=0.5, party="r", message="M",
                     sent_seq=0)
        analysis = analyze_events(tracer.events)
        assert analysis.mode == "wire"
        assert not analysis.converged
        assert analysis.critical_path["elapsed"] == 0.5

    def test_missing_sent_seq_counts_dropped_link(self):
        tracer = Tracer()
        tracer.event(obs.DELIVER, time=0.5, party="r", message="M")
        analysis = analyze_events(tracer.events)
        assert analysis.graph.dropped_links == 1
        assert analysis.graph.is_acyclic()


class TestEdgeCases:
    """ISSUE satellite: duplicates, torn sessions, batch frames."""

    def test_duplicated_deliveries_keep_graph_acyclic(self):
        tracer = chaos_cluster(seed=2, loss=0.2)
        duplicated = tracer.count(obs.FAULT, fault="duplicate")
        assert duplicated > 0, "seed must exercise the duplicate path"
        analysis = analyze_tracer(tracer)
        assert analysis.graph.is_acyclic()
        assert analysis.converged

    def test_torn_session_that_resumes_stays_analyzable(self):
        # A one-retry budget tears a session before it commits at this
        # seed (an aborted attempt that resumes); the analyzer must
        # thread the resume back into the session's wire order and still
        # converge.
        tracer = chaos_cluster(
            seed=6, loss=0.15,
            retry=RetryPolicy(max_retries=1, max_session_attempts=8))
        assert tracer.count(obs.SESSION_ABORT) > 0
        analysis = analyze_tracer(tracer)
        assert analysis.graph.is_acyclic()
        assert analysis.converged
        resumed = [summary for summary in analysis.sessions
                   if summary["resumes"] > 0]
        assert resumed
        assert all(summary["attribution"]["arq"] > 0.0
                   for summary in resumed)

    def test_batched_session_one_frame_many_objects(self):
        sites = ["A", "B"]
        config = ClusterConfig(protocol="srv", channel=CHANNEL,
                               encoding=ENC, n_objects=4, batch_size=4)
        tracer = Tracer()
        ClusterRunner(sites, config, tracer=tracer).run(
            [SessionRequest(0.5, "A", "B")],
            [UpdateRequest(0.0, "A", obj=index) for index in range(4)])
        analysis = analyze_tracer(tracer)
        assert analysis.graph.is_acyclic()
        assert analysis.converged
        # One reconcile item per object flowed through a single session.
        reconciles = [node for node in analysis.graph.nodes.values()
                      if node.kind == obs.RECONCILE]
        assert len(reconciles) == 0 or len(reconciles) <= 4
        assert len(analysis.sessions) == 1

    def test_critical_path_is_deterministic_across_runs(self):
        first = analyze_tracer(chaos_cluster(seed=5)).to_dict()
        second = analyze_tracer(chaos_cluster(seed=5)).to_dict()
        assert first["critical_path"] == second["critical_path"]
        assert first["sessions"] == second["sessions"]


class TestSampling:
    def test_sampled_trace_still_analyzes_with_coverage(self):
        sites = site_names(4)
        config = ClusterConfig(protocol="srv", channel=CHANNEL,
                               encoding=ENC)
        sessions = gossip_schedule(sites, rounds=3, period=1.0,
                                   jitter=0.2, seed=2)
        updates = update_schedule(sites, n_updates=6, interval=0.25,
                                  seed=3)
        tracer = Tracer(sampling=SamplingPolicy(head=2, tail=1, rate=0.0))
        ClusterRunner(sites, config, tracer=tracer).run(sessions, updates)
        analysis = analyze_tracer(tracer)
        document = analysis.to_dict()
        assert document["coverage"]["sampled"]
        assert 0.0 < document["coverage"]["fraction"] < 1.0
        assert analysis.graph.is_acyclic()
        assert all(0.0 < summary["coverage"] <= 1.0
                   for summary in analysis.sessions)

    def test_sampling_does_not_change_run_results(self):
        """ISSUE acceptance: sampling must not perturb the simulation."""
        def run(tracer):
            runner = ClusterRunner(
                ["A", "B", "C"],
                ClusterConfig(protocol="brv", channel=CHANNEL,
                              encoding=ENC),
                tracer=tracer)
            return runner.run(
                [SessionRequest(0.1, "A", "B"),
                 SessionRequest(0.15, "A", "C")],
                [UpdateRequest(0.0, "A")])

        untraced = run(None)
        sampled = run(Tracer(sampling=SamplingPolicy(head=1, tail=1)))
        assert untraced.total_bits == sampled.total_bits
        assert untraced.per_session_bits() == sampled.per_session_bits()
        assert untraced.completion_time == sampled.completion_time


class TestDocumentContract:
    def test_analysis_document_validates_and_serializes(self):
        tracer, _ = star_trace()
        document = analyze_tracer(tracer).to_dict()
        assert validate_analysis(document) == []
        assert json.loads(json.dumps(document)) == document
        assert document["schema"] == "repro.obs.causal/1"
        assert document["acyclic"] is True

    def test_invalid_document_is_rejected(self):
        assert validate_analysis({"schema": "bogus"}) != []
        assert validate_analysis([]) != []

    def test_checked_in_schema_file_matches_embedded_dict(self):
        """ISSUE: the committed schema file is the embedded schema."""
        here = os.path.dirname(__file__)
        path = os.path.join(here, os.pardir, os.pardir, "schemas",
                            "repro.obs.causal.schema.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == CAUSAL_SCHEMA
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = handle.read()
        assert on_disk == json.dumps(CAUSAL_SCHEMA, indent=2,
                                     sort_keys=False) + "\n"


class TestFaultAttribution:
    def test_reorder_delay_lands_in_fault_delay(self):
        # A reordered copy is held back beyond latency + bits/bandwidth;
        # the excess must be attributed to fault_delay, not latency.
        tracer = Tracer()
        with tracer.span("wire:brv", latency=0.05, bandwidth=1e5):
            tracer.event(obs.MESSAGE, time=0.0, party="s", message="M",
                         bits=100, session=0, direction="forward")
            tracer.event(obs.DELIVER, time=0.2, party="r", message="M",
                         sent_seq=1, session=0)
        analysis = analyze_events(tracer.events)
        path = analysis.critical_path
        transmit = [hop for hop in path["hops"]
                    if hop["edge"] == "transmit"]
        assert len(transmit) == 1
        categories = transmit[0]["categories"]
        assert categories["latency"] == 0.05
        assert categories["fault_delay"] > 0.1


class TestTopologyChannels:
    """A topology fleet prices each session over its region pair's link;
    the analyzer must bill each hop with that link, not the run span's
    default channel."""

    SPEC = TopologySpec.grid(2, 3, intra=LinkProfile(0.002, 1e6),
                             inter=LinkProfile(0.04, 250e3))

    def analyzed(self):
        tracer = Tracer()
        runner = launch_cluster(self.SPEC, n_objects=2, encoding=ENC,
                                tracer=tracer)
        sites = runner.sites
        runner.run(gossip_schedule(sites, rounds=3, seed=1),
                   update_schedule(sites, n_updates=8, n_objects=2, seed=2))
        return tracer, analyze_tracer(tracer)

    def test_every_hop_is_billed_with_its_own_link(self):
        tracer, analysis = self.analyzed()
        graph = analysis.graph
        sessions = {summary["session"]: summary
                    for summary in analysis.sessions}
        links = set()
        for session, start in graph.session_start.items():
            link = self.SPEC.channel_for(start.peer, start.party)
            links.add(link.latency)
            sent = [graph.nodes[source]
                    for node in graph.nodes.values()
                    if node.session == session
                    for source, edge in node.preds if edge == "transmit"]
            assert sent
            attribution = sessions[session]["attribution"]
            assert to_ns(attribution["latency"]) \
                == len(sent) * to_ns(link.latency)
            assert to_ns(attribution["serialization"]) == sum(
                serialization_ns(message.bits, link.bandwidth)
                for message in sent)
            assert attribution["fault_delay"] == 0.0
        # Both link classes were exercised.
        assert links == {0.002, 0.04}

    def test_each_hop_reads_its_session_link_before_the_span(self):
        _, analysis = self.analyzed()
        graph = analysis.graph
        (span,) = graph.channels.values()
        hops = 0
        for node in graph.nodes.values():
            if not any(edge == "transmit" for _, edge in node.preds):
                continue
            start = graph.session_start[node.session]
            link = self.SPEC.channel_for(start.peer, start.party)
            channel = graph.channel_for(node)
            assert (channel.latency, channel.bandwidth) \
                == (link.latency, link.bandwidth)
            assert channel.protocol == span.protocol == "srv"
            hops += 1
        assert hops
