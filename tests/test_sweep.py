"""Scenario-matrix sweep: axes, grids, CGNAT/adversary hooks, the
cell runner, and the scorecard's degradation story.

Every quick-grid cell (including the CGNAT pool and mimicry cells)
synthesises adversarial ground-truth traffic and must detect in it.
Cell-runner tests are marked ``sweep`` so tier-1 can stay lean once
they move to their own CI lane.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cloud.addressing import Prefix
from repro.isp.adversary import assign_hidden, assign_mimics
from repro.isp.cgnat import AddressPlan, CgnatPool, build_address_plan
from repro.isp.subscribers import SubscriberPopulation
from repro.pipeline import StreamConfig
from repro.sweep import (
    GRID_PRESETS,
    SweepCell,
    SweepGrid,
    TrafficModel,
    class_pattern_domains,
    leaf_classes,
    load_grid,
    run_sweep,
    synthesize_cell,
)
from repro.sweep.axes import cell_seed, endpoint_directory
from repro.sweep.runner import CELL_SCHEMA, run_cell
from repro.sweep.scorecard import (
    SCORECARD_SCHEMA,
    build_scorecard,
    render_markdown,
)

#: Shared cell scale for the matrix: small enough for CI, dense enough
#: that every quick cell detects something.
MODEL = TrafficModel(lines=120, days=2)

QUICK_CELL_IDS = [cell.cell_id for cell in GRID_PRESETS["quick"].cells()]


@pytest.fixture(scope="session")
def quick_sweep(rules, hitlist, scenario, tmp_path_factory):
    """One quick-grid run shared by the matrix and scorecard tests."""
    out_dir = tmp_path_factory.mktemp("sweep-quick")
    return run_sweep(
        rules,
        hitlist,
        load_grid("quick"),
        model=MODEL,
        seed=7,
        out_dir=out_dir,
        address_space=scenario.isp_topology().subscriber_space,
    )


def _row(sweep, **axes):
    matches = [
        row
        for row in sweep.scorecard["rows"]
        if all(row["cell"][axis] == value for axis, value in axes.items())
    ]
    assert len(matches) == 1, (axes, [r["cell_id"] for r in matches])
    return matches[0]


# ----------------------------------------------------------------------
# axes + grids (fast, unmarked)


class TestSweepCell:
    def test_cell_id_is_stable_and_axis_ordered(self):
        cell = SweepCell(cgnat_pool=16, sampling=1000, mimicry=0.1)
        assert cell.cell_id == (
            "cgnat016-churn0.000-samp01000-mim0.10-hide0.00"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepCell(cgnat_pool=0)
        with pytest.raises(ValueError):
            SweepCell(sampling=0)
        with pytest.raises(ValueError):
            SweepCell(mimicry=1.5)
        with pytest.raises(ValueError):
            SweepCell(hiding=-0.1)

    def test_seed_mixes_cell_identity(self):
        base = SweepCell()
        other = SweepCell(sampling=1000)
        assert cell_seed(base, 7) != cell_seed(other, 7)
        assert cell_seed(base, 7) != cell_seed(base, 8)


class TestGrids:
    def test_quick_preset_covers_the_acceptance_axes(self):
        cells = GRID_PRESETS["quick"].cells()
        assert len(cells) == 8
        assert any(cell.cgnat_pool > 1 for cell in cells)
        assert any(cell.mimicry > 0 for cell in cells)
        assert any(cell.sampling >= 1000 for cell in cells)

    def test_presets_expand_to_products(self):
        for grid in GRID_PRESETS.values():
            cells = grid.cells()
            assert len(cells) == grid.cell_count
            assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axes"):
            SweepGrid(name="bad", axes={"latency": (1,)})

    def test_load_grid_from_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {"name": "custom", "axes": {"sampling": [100, 10000]}}
            )
        )
        grid = load_grid(path)
        assert grid.name == "custom"
        assert [cell.sampling for cell in grid.cells()] == [100, 10000]

    def test_load_grid_unknown_name(self):
        with pytest.raises(ValueError, match="unknown grid"):
            load_grid("nope")


# ----------------------------------------------------------------------
# ISP hooks: CGNAT pools, address plans, adversary assignments


class TestCgnat:
    def test_pool_translation_round_trips(self):
        pool = CgnatPool(pool_size=8, base_address=0x0A800000)
        lines = np.arange(100, dtype=np.int64)
        public = pool.public_addresses(lines)
        assert len(np.unique(public)) == 13  # ceil(100 / 8)
        for address in np.unique(public):
            behind = pool.lines_behind(int(address), 100)
            assert np.array_equal(
                public[behind], np.full(len(behind), address)
            )
        assert pool.lines_behind(0x0A7FFFFF, 100).size == 0
        assert pool.lines_behind(0x0A800000 + 13, 100).size == 0

    def test_pool_size_validated(self):
        with pytest.raises(ValueError):
            CgnatPool(pool_size=1, base_address=0)

    def test_plan_without_pool_inverts_churned_addresses(self):
        prefix = Prefix(0x0A000000, 12)
        plan = build_address_plan(
            prefix, 300, churn_probability=0.5, seed=3
        )
        assert plan.pool is None
        for day in (0, 1, 2):
            addresses = plan.addresses_for_day(day)
            for line in (0, 150, 299):
                behind = plan.lines_for_address(
                    int(addresses[line]), day
                )
                # churn collisions may map several lines to one
                # address; the owning line must always be among them
                assert line in behind

    def test_plan_with_pool_is_churn_stable(self):
        prefix = Prefix(0x0A000000, 12)
        plan = build_address_plan(
            prefix, 64, churn_probability=0.9, cgnat_pool_size=16, seed=3
        )
        day0 = plan.addresses_for_day(0)
        day5 = plan.addresses_for_day(5)
        assert np.array_equal(day0, day5)
        behind = plan.lines_for_address(int(day0[0]), 0)
        assert len(behind) == 16

    def test_scenario_hook_builds_from_subscriber_space(self, scenario):
        plan = scenario.sweep_address_plan(
            48, cgnat_pool_size=4, seed=11
        )
        space = scenario.isp_topology().subscriber_space
        addresses = plan.addresses_for_day(0)
        assert isinstance(plan, AddressPlan)
        assert all(
            space.first <= int(a) <= space.last for a in addresses
        )


class TestAdversary:
    def test_mimics_rotate_patterns_deterministically(self):
        rng = lambda: np.random.default_rng(5)
        lines = list(range(100, 160))
        first = assign_mimics(rng(), lines, ["b", "a"], 0.25)
        second = assign_mimics(rng(), lines, ["a", "b"], 0.25)
        assert first == second
        assert len(first) == 15
        assert set(first.values()) == {"a", "b"}
        assert set(first) <= set(lines)

    def test_zero_fraction_yields_nothing(self):
        rng = np.random.default_rng(5)
        assert assign_mimics(rng, range(50), ["a"], 0.0) == {}
        assert assign_hidden(rng, range(50), 0.0) == frozenset()

    def test_hidden_subset_of_owners(self):
        rng = np.random.default_rng(5)
        owners = list(range(0, 40, 2))
        hidden = assign_hidden(rng, owners, 0.5)
        assert len(hidden) == 10
        assert hidden <= set(owners)

    def test_fraction_bounds_checked(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            assign_mimics(rng, range(10), ["a"], 1.1)
        with pytest.raises(ValueError):
            assign_hidden(rng, range(10), -0.5)


# ----------------------------------------------------------------------
# pattern derivation + synthesis (session-world backed, still fast)


class TestPatterns:
    def test_leaves_are_no_rules_parent(self, rules):
        leaves = leaf_classes(rules)
        parents = {
            rule.parent for rule in rules if rule.parent is not None
        }
        assert leaves
        assert not set(leaves) & parents

    def test_pattern_spans_the_ancestor_chain(self, rules):
        patterns = class_pattern_domains(rules)
        for leaf, domains in patterns.items():
            assert set(rules.rule(leaf).domains) <= set(domains)
            for ancestor in rules.ancestors(leaf):
                assert set(rules.rule(ancestor).domains) <= set(domains)

    def test_endpoint_directory_mirrors_hitlist(self, hitlist):
        directory = endpoint_directory(hitlist)
        day = min(directory)
        total = sum(len(pairs) for pairs in directory[day].values())
        assert total == len(hitlist.daily_endpoints[day])

    def test_synthesis_is_deterministic(self, rules, hitlist):
        cell = SweepCell(cgnat_pool=4, mimicry=0.1, hiding=0.2)
        plan = build_address_plan(
            Prefix(0x0A000000, 12), MODEL.lines, cgnat_pool_size=4
        )
        first = synthesize_cell(rules, hitlist, cell, MODEL, plan, 7)
        second = synthesize_cell(rules, hitlist, cell, MODEL, plan, 7)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_hidden_owners_stay_in_truth(self, rules, hitlist):
        cell = SweepCell(hiding=0.5)
        plan = build_address_plan(Prefix(0x0A000000, 12), MODEL.lines)
        _, truth = synthesize_cell(
            rules, hitlist, cell, MODEL, plan, 7
        )
        assert truth.hidden
        assert truth.hidden <= set(truth.owners)
        truth_lines = truth.truth_lines(rules)
        for line in truth.hidden:
            leaf = truth.owners[line]
            assert line in truth_lines[leaf]


# ----------------------------------------------------------------------
# the cell matrix + scorecard (cell runners; marked sweep)


@pytest.mark.sweep
class TestCellMatrix:
    @pytest.mark.parametrize("cell_id", QUICK_CELL_IDS)
    def test_cell_detects(self, quick_sweep, cell_id):
        document = next(
            doc
            for doc in quick_sweep.cells
            if doc["cell_id"] == cell_id
        )
        assert document["schema"] == CELL_SCHEMA
        assert document["flows"] > 0
        assert document["detections"] > 0

    def test_threshold_reaches_the_detector(
        self, rules, hitlist, scenario
    ):
        """At 1/1000 sampling devices only surface ~70% of their
        domains, so demanding 90% must lose detections — the cell
        runner re-derives results from its knobs."""
        space = scenario.isp_topology().subscriber_space
        cell = SweepCell(sampling=1000)
        document = run_cell(
            rules, hitlist, cell, model=MODEL, seed=7,
            address_space=space,
        )
        skewed = run_cell(
            rules, hitlist, cell, model=MODEL, seed=7,
            config=StreamConfig(threshold=0.9),
            address_space=space,
        )
        assert skewed["detections"] < document["detections"]


@pytest.mark.sweep
class TestScorecard:
    def test_outputs_written(self, quick_sweep):
        out_dir = quick_sweep.out_dir
        cell_files = sorted(out_dir.glob("cell-*.json"))
        assert len(cell_files) >= 8
        scorecard = json.loads(
            (out_dir / "scorecard.json").read_text()
        )
        assert scorecard["schema"] == SCORECARD_SCHEMA
        assert scorecard["cells"] == len(quick_sweep.cells)
        markdown = (out_dir / "scorecard.md").read_text()
        assert "baseline" in markdown
        for row in scorecard["rows"]:
            assert row["precision"] is not None
            assert row["recall"] is not None
            assert row["f1"] is not None
            assert row["median_ttd_seconds"] is not None

    def test_baseline_is_least_adversarial_cell(self, quick_sweep):
        assert quick_sweep.scorecard["baseline_cell_id"] == (
            "cgnat001-churn0.000-samp00100-mim0.00-hide0.00"
        )

    def test_cgnat_degrades_precision(self, quick_sweep):
        baseline = _row(
            quick_sweep, cgnat_pool=1, sampling=100, mimicry=0.0
        )
        pooled = _row(
            quick_sweep, cgnat_pool=16, sampling=100, mimicry=0.0
        )
        assert baseline["precision"] == 1.0
        assert pooled["precision"] < 0.5 * baseline["precision"]
        assert pooled["f1"] < baseline["f1"]

    def test_mimicry_degrades_precision(self, quick_sweep):
        baseline = _row(
            quick_sweep, cgnat_pool=1, sampling=100, mimicry=0.0
        )
        mimicked = _row(
            quick_sweep, cgnat_pool=1, sampling=100, mimicry=0.10
        )
        assert mimicked["precision"] < baseline["precision"]
        assert mimicked["fp"] > 0

    def test_sparser_sampling_slows_detection(self, quick_sweep):
        baseline = _row(
            quick_sweep, cgnat_pool=1, sampling=100, mimicry=0.0
        )
        sparse = _row(
            quick_sweep, cgnat_pool=1, sampling=1000, mimicry=0.0
        )
        assert (
            sparse["median_ttd_seconds"]
            > baseline["median_ttd_seconds"]
        )
        assert sparse["recall"] <= baseline["recall"]


@pytest.mark.sweep
class TestRunnerDeterminism:
    def test_worker_count_does_not_change_results(
        self, rules, hitlist, scenario
    ):
        grid = SweepGrid(
            name="mini",
            axes={"cgnat_pool": (1, 8), "mimicry": (0.0, 0.1)},
        )
        space = scenario.isp_topology().subscriber_space
        small = TrafficModel(lines=48, days=2)
        serial = run_sweep(
            rules, hitlist, grid, model=small, address_space=space
        )
        parallel = run_sweep(
            rules,
            hitlist,
            grid,
            model=small,
            workers=2,
            address_space=space,
        )

        def stable(documents):
            trimmed = []
            for document in documents:
                document = dict(document)
                document.pop("throughput")
                trimmed.append(document)
            return trimmed

        assert stable(serial.cells) == stable(parallel.cells)


# ----------------------------------------------------------------------
# scorecard unit coverage (synthetic documents, fast)


def _fake_document(cell, **score):
    base = {
        "tp": 5,
        "fp": 0,
        "fn": 0,
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0,
        "median_ttd_seconds": 100.0,
    }
    base.update(score)
    return {
        "schema": CELL_SCHEMA,
        "cell_id": cell.cell_id,
        "cell": cell.as_dict(),
        "flows": 10,
        "detections": 5,
        "score": base,
        "throughput": {"records_per_second": 2000.0},
    }


class TestScorecardUnit:
    def test_baseline_prefers_no_cgnat_over_dense_sampling(self):
        documents = [
            _fake_document(SweepCell(cgnat_pool=16, sampling=100)),
            _fake_document(SweepCell(cgnat_pool=1, sampling=1000)),
        ]
        scorecard = build_scorecard(documents, "unit")
        assert scorecard["baseline_cell_id"] == (
            SweepCell(cgnat_pool=1, sampling=1000).cell_id
        )

    def test_markdown_renders_missing_scores(self):
        documents = [
            _fake_document(
                SweepCell(),
                precision=None,
                recall=0.0,
                f1=None,
                median_ttd_seconds=None,
            )
        ]
        markdown = render_markdown(build_scorecard(documents, "unit"))
        assert "—" in markdown
        assert "| 0.000 |" in markdown

    def test_empty_scorecard_rejected(self):
        with pytest.raises(ValueError):
            build_scorecard([], "unit")
