"""Stochastic metapopulation SIR simulation and source profiling for
multiregional outbreaks.

Each public name is imported from its submodule on first access (PEP 562),
so ``import epiprofiler`` loads no submodule and a run loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "UNREACHABLE": "network",
    "Network": "network",
    "generate_erdos_renyi": "network",
    "load_adjacency": "network",
    "save_adjacency": "network",
    "EpidemicParams": "simulator",
    "InitialCondition": "simulator",
    "Trajectory": "simulator",
    "SimulationDiverged": "simulator",
    "simulate": "simulator",
    "write_trajectory_csv": "simulator",
    "ObservableKind": "profiler",
    "DecayKind": "profiler",
    "DecaySpec": "profiler",
    "LikelinessResult": "profiler",
    "decay_weight": "profiler",
    "likeliness_scores": "profiler",
    "ExperimentConfig": "experiments",
    "HitCurve": "experiments",
    "CorrelationSamples": "experiments",
    "SweepResult": "experiments",
    "run_hit_experiment": "experiments",
    "hit_vs_correlation": "experiments",
    "compare_observables": "experiments",
    "sweep_decay_parameter": "experiments",
    "CaseReportSeries": "data_ingest",
    "RankingTimeline": "data_ingest",
    "load_case_series": "data_ingest",
    "filter_regions": "data_ingest",
    "daily_deltas": "data_ingest",
    "rank_timeline": "data_ingest",
    "bundled_data_path": "data_ingest",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
