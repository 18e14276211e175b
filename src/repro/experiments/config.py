"""Scale presets for the experiment harness.

The paper's datasets (167 k–272 k dnodes, 5000 update pairs) take minutes
per experiment in pure Python, so every experiment is parameterised by an
:class:`ExperimentScale`:

* ``smoke``  — seconds; used by the test-suite to exercise the harness;
* ``small``  — the default for ``pytest benchmarks/``; tens of seconds
  per experiment, large enough for every qualitative trend to show;
* ``paper``  — approaches the paper's dataset sizes; for an unattended
  full run via ``python -m repro.experiments --scale paper``.

All randomness is seeded through the configs, so a scale fully determines
the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.maintenance.reconstruction import DEFAULT_THRESHOLD
from repro.workload.imdb import IMDBConfig
from repro.workload.xmark import XMarkConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Everything an experiment needs to size itself."""

    name: str
    xmark: XMarkConfig
    imdb: IMDBConfig
    #: insert/delete pairs for the 1-index experiments (paper: 5000)
    pairs_1index: int
    #: insert/delete pairs for the A(k) experiments (paper: 1000)
    pairs_ak: int
    #: quality is sampled every this many update operations
    sample_every: int
    #: subgraphs for the Figure 12 experiment (paper: 500)
    num_subgraphs: int
    #: k values for the A(k) experiments (paper: 2..5)
    ks: tuple[int, ...] = (2, 3, 4, 5)
    #: cyclicities for the XMark experiments (paper: 1, 0.5, 0.2, 0)
    cyclicities: tuple[float, ...] = (1.0, 0.5, 0.2, 0.0)
    #: growth fraction that triggers reconstruction in the baseline
    #: experiments (``--reconstruct-threshold`` on the CLI; the paper
    #: hard-codes 5 %)
    reconstruct_threshold: float = DEFAULT_THRESHOLD

    def xmark_at(self, cyclicity: float) -> XMarkConfig:
        """The scale's XMark config with the given cyclicity."""
        return replace(self.xmark, cyclicity=cyclicity)


SMOKE = ExperimentScale(
    name="smoke",
    xmark=XMarkConfig(
        num_items=60,
        num_persons=80,
        num_open_auctions=50,
        num_closed_auctions=30,
        num_categories=12,
    ),
    imdb=IMDBConfig(num_movies=80, num_persons=110, num_communities=6),
    pairs_1index=30,
    pairs_ak=10,
    sample_every=10,
    num_subgraphs=10,
    ks=(2, 3),
    cyclicities=(1.0, 0.0),
)

SMALL = ExperimentScale(
    name="small",
    xmark=XMarkConfig(),
    imdb=IMDBConfig(),
    pairs_1index=300,
    pairs_ak=60,
    sample_every=60,
    num_subgraphs=120,
)

PAPER = ExperimentScale(
    name="paper",
    xmark=XMarkConfig(
        num_items=5000,
        num_persons=7000,
        num_open_auctions=4000,
        num_closed_auctions=2500,
        num_categories=800,
    ),
    imdb=IMDBConfig(num_movies=8000, num_persons=11000, num_communities=200),
    pairs_1index=5000,
    pairs_ak=1000,
    sample_every=500,
    num_subgraphs=500,
)

SCALES: dict[str, ExperimentScale] = {s.name: s for s in (SMOKE, SMALL, PAPER)}


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a preset; raises ``KeyError`` with the available names."""
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None
