"""The JSON key tree and CSV header of one report per mode, pinned in
``report_shapes.json``.

A key path names every node of ``Report.to_json_dict()`` in document
order: ``meta.counters.chunks`` is a dict key under dict keys, and
``statistics.ks.entries[].coordinate`` a key of the dicts in a list.  An
empty list shows as its own path with no ``[]`` child, and a null as a
leaf, so a section that turns from null into a table moves the pin.  Any
change to a report's shape changes this file, and so shows in a diff.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from auctionlab import AdversaryPlan, Scenario, estimate

SHAPES = json.loads((Path(__file__).parent / "report_shapes.json").read_text(encoding="utf-8"))

SCENARIOS = {
    "two_bidder_5_ks": Scenario("two-bidder", 5, samples=2_000, seed=7, ks_stats=True),
    "k_bidder_6_3_fixed": Scenario(
        "k-bidder", 6, 3, adversary=AdversaryPlan.fixed([Fraction(1, 6)] * 6), samples=2_000, seed=7
    ),
    "position_5_2_undercut": Scenario(
        "position-randomized", 5, 2, adversary=AdversaryPlan("undercut"), samples=2_000, seed=7
    ),
    "sequential_6_3_steady": Scenario("sequential", 6, 3, samples=2_000, seed=7),
    "group_3_2": Scenario(
        "group", 3, 2, adversary=AdversaryPlan.fixed([Fraction(3, 10)] * 2), group_sizes=(1, 2), seed=7
    ),
}


def key_paths(node, path: str = "") -> list[str]:
    """Every node's path below ``node``, parents first, each path once."""
    paths: list[str] = []
    if isinstance(node, dict):
        children = [(f"{path}.{key}" if path else key, value) for key, value in node.items()]
    elif isinstance(node, list):
        children = [(f"{path}[]", value) for value in node]
    else:
        children = []
    for child_path, value in children:
        for found in [child_path] + key_paths(value, child_path):
            if found not in paths:
                paths.append(found)
    return paths


def test_every_pinned_shape_has_a_scenario():
    assert set(SHAPES) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_shape_matches_pin(name):
    report = estimate(SCENARIOS[name])
    assert key_paths(report.to_json_dict()) == SHAPES[name]["json_keys"]
    assert report.to_csv_rows()[0] == SHAPES[name]["csv_header"]


def test_key_paths_walk_lists_and_nulls():
    tree = {"a": [{"b": 1}, {"b": 2, "c": None}], "d": [], "e": {"f": None}}
    assert key_paths(tree) == ["a", "a[]", "a[].b", "a[].c", "d", "e", "e.f"]
