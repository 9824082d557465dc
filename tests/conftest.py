"""Shared fixtures.

The scenario, ground-truth capture and wild runs are expensive, so they
are built once per session at a reduced scale and shared read-only
across tests.  Tests that mutate state build their own objects.
"""

from __future__ import annotations

import pytest

from repro.core.detector import FlowDetector
from repro.core.serialization import hitlist_to_json, rules_to_json
from repro.experiments.context import ExperimentContext
from repro.netflow.flowfile import write_flow_file


def triples(items):
    """``(subscriber, class, detected_at)`` of events or detections."""
    return {(i.subscriber, i.class_name, i.detected_at) for i in items}


def write_artifacts(directory, rules, hitlist):
    """``rules.json`` + ``hitlist.json`` as ``--artifacts`` reads them."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "hitlist.json").write_text(hitlist_to_json(hitlist))
    (directory / "rules.json").write_text(rules_to_json(rules))
    return directory


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    """A fully initialised experiment context at test scale."""
    return ExperimentContext(seed=7, wild_subscribers=20_000, wild_days=3)


@pytest.fixture(scope="session")
def scenario(context):
    return context.scenario


@pytest.fixture(scope="session")
def catalog(scenario):
    return scenario.catalog


@pytest.fixture(scope="session")
def library(scenario):
    return scenario.library


@pytest.fixture(scope="session")
def hitlist(context):
    return context.hitlist


@pytest.fixture(scope="session")
def rules(context):
    return context.rules


@pytest.fixture(scope="session")
def capture(context):
    return context.capture


@pytest.fixture(scope="session")
def wild(context):
    return context.wild


@pytest.fixture(scope="session")
def ixp_result(context):
    return context.ixp


@pytest.fixture(scope="session")
def schedule(context):
    return context.schedule


@pytest.fixture(scope="session")
def gt_flows(capture):
    """Ground-truth ISP flows, one subscriber line per device, in
    arrival order (the shape a collector hands the stream engine)."""
    flows = [
        event.to_flow_record(
            0x0A000000 + event.device_id, capture.sampling_interval
        )
        for event in capture.isp_events
    ]
    flows.sort(key=lambda flow: flow.first_switched)
    return flows


@pytest.fixture(scope="session")
def gt_flowfile(gt_flows, tmp_path_factory):
    """``gt_flows`` as a flow file (read-only: tests write elsewhere)."""
    path = tmp_path_factory.mktemp("ground-truth") / "flows.csv"
    write_flow_file(path, gt_flows)
    return path


@pytest.fixture(scope="session")
def batch_oracle(rules, hitlist, gt_flows):
    """(subscriber, class, detected_at) triples from the batch path."""
    detector = FlowDetector(rules, hitlist, threshold=0.4)
    for flow in gt_flows:
        detector.observe_flow(flow.src_ip, flow)
    return {
        (d.subscriber, d.class_name, d.detected_at)
        for d in detector.detections()
    }
