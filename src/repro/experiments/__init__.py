"""The experiment harness: one module per paper figure/table.

Run from the command line::

    python -m repro.experiments --scale small fig9 tab3

or programmatically::

    from repro.experiments import fig09_imdb_quality, config
    result = fig09_imdb_quality.run(config.SMALL)
"""

from repro.experiments import (
    ablation_worstcase,
    fig09_imdb_quality,
    fig10_xmark_quality,
    fig11_running_times,
    fig12_subgraph,
    fig13_ak_quality,
    tab1_reconstruction_frequency,
    tab2_ak_times,
    tab3_storage,
)
from repro.experiments.config import PAPER, SCALES, SMALL, SMOKE, ExperimentScale, scale_by_name

#: registry used by the CLI and its tests: id -> module with main()
EXPERIMENTS = {
    "fig9": fig09_imdb_quality,
    "fig10": fig10_xmark_quality,
    "fig11": fig11_running_times,
    "fig12": fig12_subgraph,
    "fig13": fig13_ak_quality,
    "tab1": tab1_reconstruction_frequency,
    "tab2": tab2_ak_times,
    "tab3": tab3_storage,
    "ablation": ablation_worstcase,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentScale",
    "scale_by_name",
    "SMOKE",
    "SMALL",
    "PAPER",
    "SCALES",
]
