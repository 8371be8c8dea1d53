"""Named dataset registry.

``load("flickr", scale=0.5)`` returns a :class:`Dataset` whose graph is the
Flickr surrogate at half the default size.  The default sizes are chosen so
that exact ground truth (Brandes) completes in seconds on a laptop; crank
``scale`` up for larger runs.  Every call builds the graph afresh from its
generator: the same ``(name, scale, seed)`` always yields the same graph,
node order and adjacency order included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.datasets.synthetic import (
    karate_club_graph,
    road_surrogate,
    social_surrogate,
    weighted_road_surrogate,
)
from repro.errors import DatasetError
from repro.graphs.generators import weighted_barabasi_albert_graph
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike

Coordinates = Dict[int, Tuple[float, float]]


@dataclass
class Dataset:
    """A named benchmark graph plus optional node coordinates.

    Attributes
    ----------
    name:
        Registry name.
    graph:
        The graph (always connected).
    coordinates:
        ``{node: (x, y)}`` for road-like datasets, ``None`` otherwise.
    description:
        What the dataset is a surrogate of.
    """

    name: str
    graph: Graph
    coordinates: Optional[Coordinates] = None
    description: str = ""
    paper_reference: Dict[str, float] = field(default_factory=dict)


def _build_karate(scale: float, seed: SeedLike) -> Dataset:
    del scale, seed  # fixed graph
    return Dataset(
        name="karate",
        graph=karate_club_graph(),
        description="Zachary's karate club (34 nodes) — tiny sanity-check graph",
    )


def _build_flickr(scale: float, seed: SeedLike) -> Dataset:
    num_nodes = max(200, int(1500 * scale))
    graph = social_surrogate(
        num_nodes,
        pendant_fraction=0.55,
        edges_per_node=4,
        triangle_probability=0.25,
        seed=seed,
    )
    return Dataset(
        name="flickr",
        graph=graph,
        description=(
            "Flickr surrogate: heavy-tailed core with a large pendant fringe "
            "(~55% degree-1 nodes -> many true zeros)"
        ),
        paper_reference={"nodes": 1.6e6, "edges": 15.5e6, "diameter": 24},
    )


def _build_livejournal(scale: float, seed: SeedLike) -> Dataset:
    num_nodes = max(200, int(2000 * scale))
    graph = social_surrogate(
        num_nodes,
        pendant_fraction=0.3,
        edges_per_node=5,
        triangle_probability=0.3,
        seed=seed,
    )
    return Dataset(
        name="livejournal",
        graph=graph,
        description=(
            "LiveJournal surrogate: moderately dense social core with a "
            "moderate pendant fringe"
        ),
        paper_reference={"nodes": 5.2e6, "edges": 49.2e6, "diameter": 23},
    )


def _build_orkut(scale: float, seed: SeedLike) -> Dataset:
    num_nodes = max(200, int(1800 * scale))
    graph = social_surrogate(
        num_nodes,
        pendant_fraction=0.05,
        edges_per_node=8,
        triangle_probability=0.4,
        seed=seed,
    )
    return Dataset(
        name="orkut",
        graph=graph,
        description=(
            "Orkut surrogate: dense social graph, almost no pendant nodes "
            "(few true zeros, hardest ranking instance)"
        ),
        paper_reference={"nodes": 3.1e6, "edges": 117.2e6, "diameter": 10},
    )


def _build_usa_road(scale: float, seed: SeedLike) -> Dataset:
    rows = max(12, int(40 * scale))
    cols = max(15, int(50 * scale))
    graph, coordinates = road_surrogate(rows, cols, seed=seed)
    return Dataset(
        name="usa-road",
        graph=graph,
        coordinates=coordinates,
        description=(
            "USA-road surrogate: perturbed planar grid, huge diameter, many "
            "bridges and cutpoints, with geographic coordinates"
        ),
        paper_reference={"nodes": 23.9e6, "edges": 58.3e6, "diameter": 1524},
    )


def _build_usa_road_weighted(scale: float, seed: SeedLike) -> Dataset:
    rows = max(12, int(40 * scale))
    cols = max(15, int(50 * scale))
    graph, coordinates = weighted_road_surrogate(rows, cols, seed=seed)
    return Dataset(
        name="usa-road-weighted",
        graph=graph,
        coordinates=coordinates,
        description=(
            "Weighted USA-road surrogate: the usa-road grid with Euclidean "
            "road-length edge weights, exercising the Dijkstra SSSP engine "
            "(weighted betweenness/closeness, real-length rankings)"
        ),
        paper_reference={"nodes": 23.9e6, "edges": 58.3e6, "diameter": 1524},
    )


def _build_ba_weighted(scale: float, seed: SeedLike) -> Dataset:
    num_nodes = max(200, int(1500 * scale))
    graph = weighted_barabasi_albert_graph(num_nodes, 4, seed=seed)
    return Dataset(
        name="ba-weighted",
        graph=graph,
        description=(
            "Weighted Barabási–Albert graph: heavy-tailed social topology "
            "with uniform random edge weights in [1, 10] — the social-side "
            "workload for the weighted SSSP engine"
        ),
    )


_BUILDERS: Dict[str, Callable[[float, SeedLike], Dataset]] = {
    "karate": _build_karate,
    "flickr": _build_flickr,
    "livejournal": _build_livejournal,
    "orkut": _build_orkut,
    "usa-road": _build_usa_road,
    "usa-road-weighted": _build_usa_road_weighted,
    "ba-weighted": _build_ba_weighted,
}

#: The four evaluation networks of the paper (Table II order).
PAPER_NETWORKS = ("flickr", "livejournal", "usa-road", "orkut")


def available_datasets() -> Tuple[str, ...]:
    """Return the names accepted by :func:`load`."""
    return tuple(_BUILDERS)


def load(name: str, *, scale: float = 1.0, seed: SeedLike = 0) -> Dataset:
    """Build the named dataset.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    scale:
        Size multiplier applied to the default node counts (> 0).
    seed:
        Seed used by the synthetic generators; the same ``(name, scale,
        seed)`` always yields the same graph.

    Raises
    ------
    DatasetError
        For unknown names or non-positive scales.
    """
    if scale <= 0:
        raise DatasetError(f"scale must be > 0, got {scale}")
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(_BUILDERS))}"
        ) from None
    return builder(scale, seed)
