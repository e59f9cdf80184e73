"""repro — Nucleus decomposition in probabilistic graphs.

A reproduction of *"Nucleus Decomposition in Probabilistic Graphs: Hardness
and Algorithms"* (Esfahani, Srinivasan, Thomo, Wu — ICDE 2022).

Stable public API
-----------------
The supported, stability-guaranteed surface is this module's ``__all__``:
the five facade entry points —

* :func:`repro.decompose` — run a local / global / weakly-global nucleus
  decomposition on a probabilistic graph.
* :func:`repro.build_index` — persist a decomposition as a
  :class:`~repro.index.NucleusIndex` (``index.save(path)`` → one ``.npz``).
* :func:`repro.load_index` — load a saved index, optionally memory-mapped
  (``mmap=True``) so N processes serving the same index share pages.
* ``repro.query(target, op, **params)`` — one-shot query against an index,
  engine, service, or saved-index path.
* ``repro.serve(index, **kwargs)`` — a
  :class:`~repro.serve.QueryService`: micro-batched, hot-reloadable
  query serving (see :mod:`repro.serve` and ``repro-serve``).

— plus the graph substrate, decomposition entry points, estimators, and
baselines re-exported below, and the observability layer ``repro.obs``
(``repro.obs.snapshot()`` / ``repro.obs.render_prometheus()`` — off by
default, enabled with ``REPRO_OBS=1``; see ``docs/OBSERVABILITY.md``).
Everything else (submodule internals) may change between minor versions;
``__api_version__`` names the facade contract and only changes when that
surface breaks.

Quickstart
----------
>>> from repro import ProbabilisticGraph, decompose
>>> g = ProbabilisticGraph()
>>> for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
...     g.add_edge(u, v, 0.9)
>>> result = decompose(g, mode="local", theta=0.4)
>>> result.max_score
1

Index the result once, then answer community-search queries in microseconds:

>>> import repro
>>> index = repro.build_index(g, mode="local", theta=0.4)
>>> repro.query(index, "max_score", vertices=[0, 1])
[1, 1]
"""

from repro.baselines import (
    probabilistic_core_decomposition,
    probabilistic_truss_decomposition,
)
from repro.core import (
    BinomialEstimator,
    DynamicProgrammingEstimator,
    EngineOptions,
    HybridEstimator,
    HybridParameters,
    LocalNucleusDecomposition,
    NormalEstimator,
    PoissonEstimator,
    ProbabilisticNucleus,
    TranslatedPoissonEstimator,
    global_nucleus_decomposition,
    local_nucleus_decomposition,
    weak_nucleus_decomposition,
)
from repro.exceptions import InvalidParameterError, ReproError
from repro.graph import (
    CSRProbabilisticGraph,
    ProbabilisticGraph,
    graph_statistics,
    read_edge_list,
    sample_world,
    write_edge_list,
)
from repro.index import NucleusIndex, build_index, graph_fingerprint, load_index
from repro.metrics import (
    probabilistic_clustering_coefficient,
    probabilistic_density,
)
from repro.query import NucleusQueryEngine

# Imported for their side effects on the facade: ``repro.query`` and
# ``repro.serve`` are callable modules (``repro.query(...)`` runs a one-shot
# query, ``repro.serve(...)`` constructs a QueryService).
import repro.query  # noqa: E402
import repro.serve  # noqa: E402

# The observability layer is part of the facade: ``repro.obs.snapshot()``
# and ``repro.obs.render_prometheus()`` are the stable telemetry read APIs.
import repro.obs  # noqa: E402

__version__ = "1.1.0"

#: Version of the *facade contract* (the names in ``__all__`` and their
#: signatures).  Bumped only on breaking changes to that surface; additions
#: and internal refactors leave it untouched.
__api_version__ = "1"


def decompose(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    mode: str = "local",
    theta: float = 0.3,
    k: int | None = None,
    **kwargs,
):
    """Run a probabilistic nucleus decomposition (the facade entry point).

    ``mode="local"`` runs the ℓ-decomposition over every level and returns a
    :class:`LocalNucleusDecomposition`; ``"global"`` and ``"weak"`` (alias
    ``"weakly-global"``) require an explicit level ``k`` and return the list
    of :class:`ProbabilisticNucleus` at that level.  Remaining keyword
    arguments — including the engine knobs of :class:`EngineOptions` — are
    forwarded to the underlying entry point
    (:func:`local_nucleus_decomposition`,
    :func:`global_nucleus_decomposition`,
    :func:`weak_nucleus_decomposition`).
    """
    if mode == "local":
        return local_nucleus_decomposition(graph, theta, **kwargs)
    if mode in ("global", "weak", "weakly-global"):
        if k is None:
            raise InvalidParameterError(f"mode {mode!r} requires an explicit k")
        runner = (
            global_nucleus_decomposition
            if mode == "global"
            else weak_nucleus_decomposition
        )
        return runner(graph, k, theta, **kwargs)
    raise InvalidParameterError(
        f'mode must be "local", "global" or "weak", got {mode!r}'
    )


__all__ = [
    "__api_version__",
    "__version__",
    # facade
    "decompose",
    "build_index",
    "load_index",
    "query",
    "serve",
    # graph substrate
    "ProbabilisticGraph",
    "CSRProbabilisticGraph",
    "graph_statistics",
    "read_edge_list",
    "write_edge_list",
    "sample_world",
    # decomposition entry points and results
    "local_nucleus_decomposition",
    "global_nucleus_decomposition",
    "weak_nucleus_decomposition",
    "EngineOptions",
    "LocalNucleusDecomposition",
    "ProbabilisticNucleus",
    # estimators
    "DynamicProgrammingEstimator",
    "PoissonEstimator",
    "TranslatedPoissonEstimator",
    "NormalEstimator",
    "BinomialEstimator",
    "HybridEstimator",
    "HybridParameters",
    # baselines and metrics
    "probabilistic_core_decomposition",
    "probabilistic_truss_decomposition",
    "probabilistic_density",
    "probabilistic_clustering_coefficient",
    # serve-time subsystem
    "NucleusIndex",
    "NucleusQueryEngine",
    "graph_fingerprint",
    # observability layer (repro.obs.snapshot / render_prometheus / span)
    "obs",
    # errors
    "ReproError",
    "InvalidParameterError",
]
