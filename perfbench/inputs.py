"""Seeded benchmark inputs built from the bundled fixtures.

``write_inputs`` writes a fixture's network, zones and cost config with
``fixtures.write_fixture_files`` and then replaces its OD file with one
drawn from the benchmark seed.  The draw keeps the fixture's zones, pair
count, demand range and draw rule, so at the fixture's own seed the OD
file is byte-identical to the bundled one; any other seed gives a
held-out instance of the same size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mueflow import fixtures


@dataclass(frozen=True)
class DrawRule:
    """How a fixture's OD matrix is drawn.

    ``fixture_seed`` is the seed the bundled fixture uses.  With
    ``interleaved`` each accepted pair draws its demand at once
    (``mini_city``); otherwise all pairs are drawn first and then the
    demands (``grid10x10``).  ``n_pairs=None`` keeps the fixture's own
    pairs and redraws only their demands: ``grid3x3`` is directed, so
    most zone pairs there have no route.
    """

    fixture_seed: int | None
    n_pairs: int | None
    low: float
    high: float
    interleaved: bool = False


DRAW_RULES = {
    "grid3x3": DrawRule(None, None, 4.0, 8.0),
    "grid10x10": DrawRule(11, 50, 100.0, 600.0),
    "mini_city": DrawRule(23, 250, 40.0, 160.0, interleaved=True),
}


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def draw_od(fixture: str, zone_ids: list[str], fixture_pairs, seed: int):
    """OD entries ``(origin, dest, demand)`` drawn from ``seed``."""
    rule = DRAW_RULES[fixture]
    rng = np.random.default_rng(seed)

    def demand() -> float:
        return float(np.round(rng.uniform(rule.low, rule.high), 1))

    if rule.n_pairs is None:
        return [(o, d, demand()) for o, d in fixture_pairs]
    pairs: list[tuple[str, str]] = []
    entries = []
    seen = set()
    while len(pairs) < rule.n_pairs:
        a, b = rng.choice(len(zone_ids), size=2, replace=False)
        pair = (zone_ids[int(a)], zone_ids[int(b)])
        if pair in seen:
            continue
        seen.add(pair)
        pairs.append(pair)
        if rule.interleaved:
            entries.append((*pair, demand()))
    if not rule.interleaved:
        entries = [(o, d, demand()) for o, d in pairs]
    return entries


def write_inputs(fixture: str, seed: int, outdir) -> dict:
    """Write the fixture's input files with an OD matrix drawn from ``seed``.

    Returns ``{kind: path}`` as ``fixtures.write_fixture_files`` does.
    """
    paths = fixtures.write_fixture_files(fixture, outdir)
    zone_ids = [row[0] for row in _read_rows(paths["zones"])]
    fixture_pairs = [(row[0], row[1]) for row in _read_rows(paths["od"])]
    entries = draw_od(fixture, zone_ids, fixture_pairs, seed)
    with open(paths["od"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin_zone", "destination_zone", "demand"])
        for origin, dest, demand in entries:
            writer.writerow([origin, dest, repr(demand)])
    return {kind: Path(p) for kind, p in paths.items()}
