"""Tier-1 pins for :class:`repro.core.options.EngineOptions`.

One object owns the engine knobs, so every entry point must reject a bad
knob with the same typed error and message, index headers must keep their
exact layout, the header codec must round-trip, and the incremental rebuild
path must keep the whole recorded engine configuration.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest
from graph_factories import small_er_graph

import repro
from repro.cli import main as index_cli
from repro.core.options import BACKENDS, EngineOptions
from repro.exceptions import InvalidParameterError
from repro.experiments.pipeline import RunConfig
from repro.experiments.runner import main as experiments_cli
from repro.graph.generators import clique_graph
from repro.graph.io import write_edge_list
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import EdgeUpdate, apply_updates, build_global_index, build_weak_index
from repro.kernels import KERNELS, force_interpreted
from repro.sampling.adaptive import SAMPLING_MODES

GRAPH = clique_graph(5, probability=0.9)

#: (id, knobs, message): every row is rejected by EngineOptions itself.
INVALID = [
    ("n_jobs-float", {"n_jobs": 1.5}, "n_jobs must be a positive integer, got 1.5"),
    ("n_jobs-bool", {"n_jobs": True}, "n_jobs must be a positive integer, got True"),
    ("n_jobs-zero", {"n_jobs": 0}, "n_jobs must be a positive integer, got 0"),
    ("partitions-zero", {"partitions": 0}, "partitions must be a positive integer, got 0"),
    (
        "partitions-bool",
        {"partitions": True},
        "partitions must be a positive integer, got True",
    ),
    (
        "confidence",
        {"confidence": 1.5},
        "confidence must be a finite value in (0, 1), got 1.5",
    ),
    (
        "n_worlds_max",
        {"backend": "csr", "sampling": "adaptive", "n_worlds_max": 0},
        "n_worlds_max must be a positive integer, got 0",
    ),
    ("backend", {"backend": "gpu"}, "backend must be one of ('dict', 'csr'), got 'gpu'"),
    ("kernel", {"kernel": "gpu"}, "unknown kernel 'gpu'; expected one of ('numpy', 'numba')"),
    (
        "dict-adaptive",
        {"backend": "dict", "sampling": "adaptive"},
        'sampling="adaptive" requires backend="csr" (the sequential test runs on the '
        "world-matrix engine)",
    ),
    (
        "dict-numba",
        {"backend": "dict", "kernel": "numba"},
        "kernel='numba' requires backend=\"csr\" (the dict engine has no array loops "
        "to compile)",
    ),
    (
        "dict-partitions",
        {"backend": "dict", "partitions": 2},
        'partitions > 1 requires backend="csr" (the partitioned sampler runs on the '
        "world-matrix engine)",
    ),
    (
        "dict-n_jobs",
        {"backend": "dict", "n_jobs": 2},
        'n_jobs > 1 requires backend="csr" (the dict engine samples world-by-world)',
    ),
    (
        "adaptive-partitions",
        {"backend": "csr", "sampling": "adaptive", "partitions": 2},
        'partitions > 1 requires sampling="fixed" (the sequential test draws '
        "incremental chunks the partitioned estimator cannot)",
    ),
]

_LOCAL_KNOBS = {"backend", "kernel"}
_RUN_CONFIG_KNOBS = {
    "backend",
    "sampling",
    "confidence",
    "n_worlds_max",
    "kernel",
    "partitions",
}
_CLI_CHOICES = {"backend": BACKENDS, "sampling": SAMPLING_MODES, "kernel": KERNELS}


def _flags(knobs: dict) -> list[str]:
    return [
        part
        for name, value in knobs.items()
        for part in ("--" + name.replace("_", "-"), str(value))
    ]


def _index_cli(mode: str):
    def call(knobs: dict, tmp_path) -> None:
        graph_path = tmp_path / "graph.txt"
        write_edge_list(GRAPH, graph_path)
        argv = ["build", str(graph_path), "-o", str(tmp_path / "out.npz")]
        assert index_cli([*argv, "--mode", mode, "--k", "1", *_flags(knobs)]) == 2

    return call


def _experiments_cli(knobs: dict, tmp_path) -> None:
    with pytest.raises(SystemExit) as exit_info:
        experiments_cli(["run", "table1", "--scale", "tiny", *_flags(knobs)])
    assert exit_info.value.code == 2


#: (surface, the knobs it takes, call).  Library calls raise; command lines
#: print the error and exit non-zero.
LIBRARY = [
    ("decompose-local", _LOCAL_KNOBS, lambda kw: repro.decompose(GRAPH, theta=0.3, **kw)),
    ("decompose-global", None, lambda kw: repro.decompose(GRAPH, "global", 0.3, 1, **kw)),
    ("decompose-weak", None, lambda kw: repro.decompose(GRAPH, "weak", 0.3, 1, **kw)),
    ("build_index-local", _LOCAL_KNOBS, lambda kw: repro.build_index(GRAPH, **kw)),
    ("build_index-global", None, lambda kw: repro.build_index(GRAPH, "global", 0.3, 1, **kw)),
    ("build_index-weak", None, lambda kw: repro.build_index(GRAPH, "weak", 0.3, 1, **kw)),
    ("RunConfig", _RUN_CONFIG_KNOBS, lambda kw: RunConfig(**kw)),
]
#: Local builds validate every engine flag too; only --partitions has its
#: own local-mode error.
COMMAND_LINES = [
    ("repro-index", _RUN_CONFIG_KNOBS, _index_cli("global")),
    ("repro-index-local", _RUN_CONFIG_KNOBS - {"partitions"}, _index_cli("local")),
    ("repro-experiments", _RUN_CONFIG_KNOBS, _experiments_cli),
]


def _cli_accepts(knobs: dict, takes: set) -> bool:
    """Whether argparse passes the values on (it rejects bad choices itself)."""
    return set(knobs) <= takes and all(
        not isinstance(value, bool) and value in _CLI_CHOICES.get(name, (value,))
        for name, value in knobs.items()
    )


LIBRARY_CASES = [
    pytest.param(knobs, message, call, id=f"{surface}-{row}")
    for (row, knobs, message), (surface, takes, call) in itertools.product(INVALID, LIBRARY)
    if takes is None or set(knobs) <= takes
]
CLI_CASES = [
    pytest.param(knobs, message, call, id=f"{surface}-{row}")
    for (row, knobs, message), (surface, takes, call) in itertools.product(
        INVALID, COMMAND_LINES
    )
    if _cli_accepts(knobs, takes)
]


class TestInvalidKnobs:
    @pytest.mark.parametrize("row, knobs, message", INVALID, ids=[row[0] for row in INVALID])
    def test_engine_options_message(self, row, knobs, message):
        with pytest.raises(InvalidParameterError) as error:
            EngineOptions(**knobs)
        assert str(error.value) == message

    @pytest.mark.parametrize("knobs, message, call", LIBRARY_CASES)
    def test_library_entry_points_raise_the_same_error(self, knobs, message, call):
        with pytest.raises(InvalidParameterError) as error:
            call(knobs)
        assert str(error.value) == message

    @pytest.mark.parametrize("knobs, message, call", CLI_CASES)
    def test_command_lines_exit_with_the_same_message(
        self, knobs, message, call, tmp_path, capsys
    ):
        call(knobs, tmp_path)
        assert message in capsys.readouterr().err

    def test_run_config_grid_jobs_share_the_rule(self):
        # RunConfig.n_jobs is grid-cell parallelism, validated by the same rule.
        for bad in (1.5, True, 0):
            with pytest.raises(InvalidParameterError, match="n_jobs must be a positive"):
                RunConfig(n_jobs=bad)
        assert RunConfig(n_jobs=2, backend="dict").engine.n_jobs == 1

    @pytest.mark.parametrize(
        "knobs",
        [{"chunk_initial": 4}, {"chunk_growth": 3.0}, {"n_jobs": 2}],
        ids=["chunk_initial", "chunk_growth", "n_jobs"],
    )
    def test_run_config_engine_sets_only_recorded_knobs(self, knobs):
        # Artifacts record six knobs; any other one would change results
        # under an unchanged config block.
        engine = EngineOptions(backend="csr", sampling="adaptive", **knobs)
        with pytest.raises(InvalidParameterError, match="may set only backend, sampling"):
            RunConfig(engine=engine)


def test_run_config_knob_attributes_read_the_engine():
    config = RunConfig(backend="dict", confidence=0.9)
    assert (config.backend, config.confidence) == ("dict", 0.9)
    adaptive = RunConfig(engine=EngineOptions("csr", sampling="adaptive", n_worlds_max=50))
    assert (adaptive.backend, adaptive.sampling, adaptive.n_worlds_max) == (
        "csr",
        "adaptive",
        50,
    )
    assert (RunConfig().kernel, RunConfig().partitions) == ("numpy", 1)
    assert dataclasses.replace(config, seed=3).backend == "dict"
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.backend = "csr"


class TestHeaderCodec:
    """Byte layouts of the parameter headers written before the codec existed."""

    @pytest.mark.parametrize(
        "knobs, expected",
        [
            ({}, {"k": 1, "backend": "dict", "n_samples": 20, "seed": 3}),
            ({"backend": "csr"}, {"k": 1, "backend": "csr", "n_samples": 20, "seed": 3}),
            (
                {"backend": "csr", "confidence": 0.9, "n_jobs": 2},
                {"k": 1, "backend": "csr", "n_samples": 20, "seed": 3},
            ),
            (
                {"backend": "csr", "sampling": "adaptive", "confidence": 0.8},
                {
                    "k": 1,
                    "backend": "csr",
                    "n_samples": 20,
                    "seed": 3,
                    "sampling": "adaptive",
                    "confidence": 0.8,
                    "n_worlds_max": None,
                },
            ),
            (
                {"backend": "csr", "sampling": "adaptive", "n_worlds_max": 50},
                {
                    "k": 1,
                    "backend": "csr",
                    "n_samples": 20,
                    "seed": 3,
                    "sampling": "adaptive",
                    "confidence": 0.95,
                    "n_worlds_max": 50,
                },
            ),
            (
                {"backend": "csr", "kernel": "numba", "partitions": 3},
                {
                    "k": 1,
                    "backend": "csr",
                    "n_samples": 20,
                    "seed": 3,
                    "kernel": "numba",
                    "kernel_resolved": "numba",
                    "partitions": 3,
                },
            ),
        ],
    )
    @pytest.mark.parametrize("mode", ["global", "weak"])
    def test_header_layout_is_unchanged(self, mode, knobs, expected):
        with force_interpreted():
            index = repro.build_index(GRAPH, mode, 0.3, 1, n_samples=20, seed=3, **knobs)
        assert json.dumps(index.params) == json.dumps(expected)

    def test_local_header_layout_is_unchanged(self):
        csr = GRAPH.to_csr()
        with force_interpreted():
            numba = repro.build_index(GRAPH, theta=0.3, backend="csr", kernel="numba")
        expected = {"estimator": "dp", "backend": "csr", "kernel": "numba"}
        assert json.dumps(numba.params) == json.dumps({**expected, "kernel_resolved": "numba"})
        # A CSR graph input keeps recording the backend it was asked for.
        default = {"estimator": "dp", "backend": "dict"}
        assert json.dumps(repro.build_index(csr, theta=0.3).params) == json.dumps(default)
        assert json.dumps(repro.build_index(GRAPH, theta=0.3).params) == json.dumps(default)
        # ... also with a compiled kernel, which a CSR input runs on its arrays.
        with force_interpreted():
            mixed = repro.build_index(csr, theta=0.3, backend="dict", kernel="numba")
        layout = {**default, "kernel": "numba", "kernel_resolved": "numba"}
        assert json.dumps(mixed.params) == json.dumps(layout)

    def test_chunk_knobs_are_recorded_when_not_default(self):
        options = EngineOptions("csr", sampling="adaptive", chunk_initial=4, chunk_growth=3.0)
        assert options.to_header() == {
            "backend": "csr",
            "sampling": "adaptive",
            "confidence": 0.95,
            "n_worlds_max": None,
            "chunk_initial": 4,
            "chunk_growth": 3.0,
        }

    def test_round_trip_over_the_knob_grid(self):
        checked = 0
        for backend, kernel, sampling, n_jobs, partitions in itertools.product(
            ("dict", "csr"), ("numpy", "numba"), ("fixed", "adaptive"), (1, 3), (1, 2)
        ):
            adaptive = [{}]
            if sampling == "adaptive":
                adaptive += [
                    {"confidence": 0.8},
                    {"n_worlds_max": 64, "chunk_initial": 4},
                    {"chunk_growth": 1.5},
                ]
            for extra in adaptive:
                try:
                    knobs = dict(extra, n_jobs=n_jobs, partitions=partitions)
                    options = EngineOptions(backend, kernel, sampling, **knobs)
                except InvalidParameterError:
                    continue
                header = json.loads(json.dumps(options.to_header()))
                # The worker count belongs to the machine running a build, not
                # to the index: it is never recorded and decodes to 1.
                assert EngineOptions.from_header(header) == dataclasses.replace(
                    options, n_jobs=1
                )
                checked += 1
        assert checked == 25

    def test_inert_knobs_are_not_recorded(self):
        # Adaptive settings under fixed sampling never changed a result, and
        # fixed-path archives never carried them.
        assert EngineOptions("csr", confidence=0.8, chunk_initial=4).to_header() == {
            "backend": "csr"
        }

    def test_from_header_ignores_other_params_and_fills_defaults(self):
        params = {"k": 2, "seed": 1, "n_samples": None, "kernel_resolved": "numpy"}
        assert EngineOptions.from_header(params) == EngineOptions()
        assert EngineOptions.from_header({"backend": "csr", "n_jobs": 8}).n_jobs == 1


class TestDerivedValues:
    def test_rng_streams_match_the_engines(self):
        csr, dict_engine = EngineOptions("csr"), EngineOptions()
        assert csr.rng(seed=5).random() == np.random.default_rng(5).random()
        assert dict_engine.rng(seed=5).random() == random.Random(5).random()
        supplied = random.Random(9)
        assert dict_engine.rng(supplied) is supplied
        generator = np.random.default_rng(4)
        expected = random.Random(int(np.random.default_rng(4).integers(0, 2**63)))
        assert dict_engine.rng(generator).random() == expected.random()
        assert csr.rng(random.Random(2)).random() == (
            np.random.default_rng(random.Random(2).getrandbits(128)).random()
        )

    def test_resolved_kernel(self):
        with force_interpreted():
            assert EngineOptions("csr", kernel="numba").resolved_kernel == "numba"
        assert EngineOptions().resolved_kernel == "numpy"

    def test_knob_count(self):
        assert [field.name for field in dataclasses.fields(EngineOptions)] == [
            "backend",
            "kernel",
            "sampling",
            "confidence",
            "n_worlds_max",
            "chunk_initial",
            "chunk_growth",
            "n_jobs",
            "partitions",
        ]


class TestRebuildKeepsTheEngine:
    @pytest.mark.parametrize("builder", [build_global_index, build_weak_index])
    @pytest.mark.parametrize(
        "knobs",
        [{"partitions": 2}, {"sampling": "adaptive", "chunk_initial": 4}],
        ids=["partitions", "adaptive-chunks"],
    )
    def test_apply_updates_rebuilds_with_the_recorded_knobs(self, builder, knobs):
        graph = small_er_graph(10, 0.7, seed=2, probabilities=(0.4, 1.0))
        build = dict(k=1, theta=0.5, backend="csr", n_samples=40, seed=7, **knobs)
        index = builder(graph, **build)
        u, v, p = next(iter(graph.edges()))
        updated = apply_updates(index, [EdgeUpdate("change", u, v, p / 2)])
        assert EngineOptions.from_header(updated.params) == EngineOptions(
            backend="csr", **knobs
        )
        fresh_graph = ProbabilisticGraph(
            [(a, b, p / 2 if (a, b) == (u, v) else q) for a, b, q in graph.edges()]
        )
        for vertex in graph.vertices():  # apply_updates keeps the vertex set
            fresh_graph.add_vertex(vertex)
        fresh = builder(fresh_graph, **build)
        assert updated.params == fresh.params
        assert updated.fingerprint == fresh.fingerprint
        for name, array in fresh.arrays.items():
            assert updated.arrays[name].tobytes() == array.tobytes(), name

    def test_local_rebuild_keeps_the_kernel(self):
        from repro.core.approximations import PoissonEstimator
        from repro.index import build_local_index

        with force_interpreted():
            index = build_local_index(
                GRAPH, 0.3, estimator=PoissonEstimator(), backend="csr", kernel="numba"
            )
            updated = apply_updates(index, [EdgeUpdate("change", 0, 1, 0.5)])
        assert updated.params["kernel"] == "numba"
        assert updated.params == index.params


def test_index_info_prints_effective_engine_values(tmp_path, capsys):
    graph_path = tmp_path / "graph.txt"
    write_edge_list(GRAPH, graph_path)
    out = tmp_path / "g.npz"
    argv = ["build", str(graph_path), "-o", str(out), "--mode", "global", "--k", "1"]
    assert index_cli([*argv, "--backend", "csr", "--partitions", "2"]) == 0
    capsys.readouterr()
    assert index_cli(["info", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "kernel: numpy\n" in stdout
    assert "sampling: fixed\n" in stdout
    assert "partitions: 2\n" in stdout


def test_index_info_reads_a_local_header_with_backend_dict_and_a_compiled_kernel(
    tmp_path, capsys
):
    # A CSR graph input records the requested backend next to the kernel.
    with force_interpreted():
        index = repro.build_index(GRAPH.to_csr(), theta=0.3, backend="dict", kernel="numba")
    out = tmp_path / "local.npz"
    index.save(out)
    assert index_cli(["info", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "kernel: numba\n" in stdout
    assert "'backend': 'dict'" in stdout
