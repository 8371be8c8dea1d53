"""Experiment configuration.

The paper's full-size settings (1000 random subsets on million-node graphs,
epsilon down to 0.01) are out of reach for pure Python; the default
configuration keeps the same *structure* — the same epsilon grid, the same
subset sizes, the same four networks — at a scale where the whole suite runs
in minutes.  Every knob can be turned up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro import knobs
from repro.utils.validation import check_probability_pair, check_sample_cap


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    Attributes
    ----------
    datasets:
        Dataset registry names to evaluate on.
    scale:
        Size multiplier passed to :func:`repro.datasets.load`.
    seed:
        Master seed; every driver derives per-run seeds from it.
    epsilons:
        The epsilon grid of Figs. 3-4.
    delta:
        Failure probability (0.01 in the paper).
    subset_size:
        Target-subset size for the epsilon sweep (100 in the paper).
    num_subsets:
        Number of random subsets per configuration (1000 in the paper; the
        default here keeps the confidence-interval structure with far fewer).
    subset_sizes:
        The subset-size grid of Fig. 5.
    algorithms:
        Algorithms to include: any of ``"abra"``, ``"kadabra"``,
        ``"saphyra_full"``, ``"saphyra"``.
    max_samples_cap:
        Hard cap on per-run sample counts, keeping worst-case bench times
        bounded (``None`` disables the cap).
    backend, weighted, workers, start_method, snapshot_dir:
        The runtime knobs, one per row of :data:`repro.knobs.KNOBS`.
        ``None`` (the default) leaves the knob's ``REPRO_*`` variable (or
        its built-in default) in charge; a value is validated by its row
        here and installed as the process-wide, sticky, env-mirrored
        override when :class:`~repro.experiments.runner.ExperimentRunner`
        first does real work.  ``workers`` is the exception: it is
        forwarded to every estimator call instead.  The knobs never change
        results — except ``weighted``, which selects the workload.
    """

    datasets: Sequence[str] = ("flickr", "livejournal", "usa-road", "orkut")
    scale: float = 0.25
    seed: int = 7
    epsilons: Sequence[float] = (0.2, 0.1, 0.05)
    delta: float = 0.01
    subset_size: int = 50
    num_subsets: int = 3
    subset_sizes: Sequence[int] = (10, 25, 50, 75, 100)
    algorithms: Sequence[str] = ("abra", "kadabra", "saphyra_full", "saphyra")
    max_samples_cap: int = 20_000
    backend: Optional[str] = None
    workers: Optional[int] = None
    start_method: Optional[str] = None
    weighted: Optional[str] = None
    snapshot_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.subset_size < 2:
            raise ValueError(f"subset_size must be >= 2, got {self.subset_size}")
        for size in self.subset_sizes:
            if size < 2:
                raise ValueError(f"subset_sizes entries must be >= 2, got {size}")
        if self.num_subsets < 1:
            raise ValueError(f"num_subsets must be >= 1, got {self.num_subsets}")
        if not self.epsilons:
            raise ValueError("epsilons must not be empty")
        for epsilon in self.epsilons:
            check_probability_pair(epsilon, self.delta)
        check_sample_cap(self.max_samples_cap)
        unknown = set(self.algorithms) - {"abra", "kadabra", "saphyra_full", "saphyra"}
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        knobs.check(vars(self))

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Seconds-scale configuration used by the test suite."""
        return cls(
            datasets=("flickr",),
            scale=0.1,
            epsilons=(0.2, 0.1),
            subset_size=20,
            num_subsets=2,
            subset_sizes=(10, 20),
            max_samples_cap=2_000,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The minutes-scale configuration the benchmarks use."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's parameter grid (hours-scale in pure Python).

        Same epsilon grid, subset size and delta as Section V; the graphs are
        still surrogates and the number of random subsets is 100 rather than
        1000 to stay within a single-machine budget.
        """
        return cls(
            scale=1.0,
            epsilons=(0.2, 0.1, 0.05, 0.02, 0.01),
            subset_size=100,
            num_subsets=100,
            subset_sizes=tuple(range(10, 101, 10)),
            max_samples_cap=None,
        )

    def epsilon_grid(self) -> Tuple[float, ...]:
        """The epsilon values, largest first (cheapest runs first)."""
        return tuple(sorted(self.epsilons, reverse=True))
