"""Benchmark datasets: laptop-scale surrogates of the paper's networks.

The paper evaluates on Flickr, LiveJournal, Orkut (SNAP social networks) and
USA-road (DIMACS).  Those graphs have 10^6-10^7 nodes and ground truth that
took a supercomputer weeks to compute; this reproduction ships *synthetic
surrogates from the same structural families* (documented in DESIGN.md)
whose scale is controlled by a single ``scale`` knob, plus loaders
(:mod:`repro.graphs.io`) so the real SNAP / DIMACS files can be dropped in
when available.
"""

from __future__ import annotations

from repro.datasets.ground_truth import GroundTruthCache, exact_betweenness
from repro.datasets.registry import Dataset, available_datasets, load
from repro.datasets.subsets import (
    geographic_subset,
    l_hop_subset,
    random_subset,
    random_subsets,
    road_areas,
)
from repro.datasets.synthetic import (
    karate_club_graph,
    road_surrogate,
    social_surrogate,
)

__all__ = [
    "Dataset",
    "load",
    "available_datasets",
    "social_surrogate",
    "road_surrogate",
    "karate_club_graph",
    "random_subset",
    "random_subsets",
    "l_hop_subset",
    "geographic_subset",
    "road_areas",
    "exact_betweenness",
    "GroundTruthCache",
]
