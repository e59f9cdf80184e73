"""The engine knobs of the decomposition drivers, validated in one place.

Algorithms 2 and 3 are fixed by ``(k, θ, n)``; every other setting changes
only *how* the answer is computed.  :class:`EngineOptions` owns those knobs:
their ranges, which of them require ``backend="csr"`` or ``sampling="fixed"``,
the values derived from them, and the ``.npz`` header codec shared by the
index builders and :func:`repro.index.apply_updates`.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, fields

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.kernels import KERNELS, resolve_kernel
from repro.sampling.adaptive import (
    DEFAULT_CHUNK_GROWTH,
    DEFAULT_CHUNK_INITIAL,
    DEFAULT_CONFIDENCE,
    SAMPLING_MODES,
    AdaptiveSettings,
)
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import as_numpy_generator

__all__ = ["BACKENDS", "EngineOptions", "add_engine_arguments", "engine_arguments"]

#: The two execution substrates: the dict reference path and the CSR arrays.
BACKENDS = ("dict", "csr")

#: The knobs ``repro-index build`` and ``repro-experiments run`` expose as
#: flags, and the only ones an experiment artifact's config block records.
FLAG_KNOBS = ("backend", "sampling", "confidence", "n_worlds_max", "kernel", "partitions")


@dataclass(frozen=True)
class EngineOptions:
    """How a decomposition is computed; never what it computes.

    Attributes
    ----------
    backend:
        ``"dict"`` verifies one world at a time on the dict substrate (the
        reference oracle); ``"csr"`` runs the array-native peel and the
        world-matrix sampler.  Each draws its own kind of stream from
        ``seed``: identically distributed, not identical, worlds.
    kernel:
        ``"numpy"`` or ``"numba"``: the compiled loops of :mod:`repro.kernels`,
        falling back to numpy (warning once) when numba is not installed.
    sampling:
        ``"fixed"`` draws ``n_samples`` worlds per candidate; ``"adaptive"``
        stops each candidate once anytime-valid bounds settle its θ decision
        (:mod:`repro.sampling.adaptive`).
    confidence, n_worlds_max, chunk_initial, chunk_growth:
        The sequential test: decision confidence, world cap per candidate
        (``None`` = twice ``n_samples``), first chunk size, growth factor.
        Validated under fixed sampling too, so a typo never rides along.
    n_jobs:
        World-shard worker processes; worlds are sampled before they are
        split, so results are identical for every value at a fixed seed.
    partitions:
        Edge partitions each candidate's world sample is drawn in
        (:mod:`repro.sampling.partitioned`); peak memory is one block.

    A non-default ``n_jobs``, ``sampling``, ``kernel`` or ``partitions``
    requires ``backend="csr"``, and ``partitions > 1`` requires
    ``sampling="fixed"``; violations raise
    :class:`~repro.exceptions.InvalidParameterError` at construction.

    :meth:`to_header` records the non-default knobs into an index header and
    :meth:`from_header` reads them back.  Defaults are left out, so default
    archives stay byte-identical to builds that predate a knob:

    >>> EngineOptions().to_header() == {}
    True
    >>> EngineOptions(backend="csr", partitions=2).to_header()
    {'backend': 'csr', 'partitions': 2}
    >>> options = EngineOptions(backend="csr", sampling="adaptive", chunk_initial=4)
    >>> EngineOptions.from_header(options.to_header()) == options
    True
    """

    backend: str = "dict"
    kernel: str = "numpy"
    sampling: str = "fixed"
    confidence: float = DEFAULT_CONFIDENCE
    n_worlds_max: int | None = None
    chunk_initial: int = DEFAULT_CHUNK_INITIAL
    chunk_growth: float = DEFAULT_CHUNK_GROWTH
    n_jobs: int = 1
    partitions: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        _require_positive_int("n_jobs", self.n_jobs)
        if self.sampling not in SAMPLING_MODES:
            raise InvalidParameterError(
                f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}"
            )
        self._settings(None)
        resolve_kernel(self.kernel, warn=False)
        _require_positive_int("partitions", self.partitions)
        for needs_csr, knob, reason in (
            (self.n_jobs > 1, "n_jobs > 1", "the dict engine samples world-by-world"),
            (
                self.sampling == "adaptive",
                'sampling="adaptive"',
                "the sequential test runs on the world-matrix engine",
            ),
            (
                self.kernel != "numpy",
                f"kernel={self.kernel!r}",
                "the dict engine has no array loops to compile",
            ),
            (
                self.partitions > 1,
                "partitions > 1",
                "the partitioned sampler runs on the world-matrix engine",
            ),
        ):
            if needs_csr and self.backend != "csr":
                raise InvalidParameterError(f'{knob} requires backend="csr" ({reason})')
        if self.partitions > 1 and self.sampling == "adaptive":
            raise InvalidParameterError(
                'partitions > 1 requires sampling="fixed" (the sequential test '
                "draws incremental chunks the partitioned estimator cannot)"
            )

    def _settings(self, n_samples: int | None) -> AdaptiveSettings:
        cap = self.n_worlds_max
        if cap is None:
            cap = 2 * (n_samples if n_samples is not None else 200)
        return AdaptiveSettings(self.confidence, cap, self.chunk_initial, self.chunk_growth)

    def adaptive(self, n_samples: int | None = None) -> AdaptiveSettings | None:
        """The sequential-test settings, or ``None`` under fixed sampling.

        An unset ``n_worlds_max`` becomes twice the fixed budget ``n_samples``
        (``2 × 200`` when no budget is known).
        """
        return self._settings(n_samples) if self.sampling == "adaptive" else None

    def rng(
        self,
        rng: random.Random | np.random.Generator | None = None,
        seed: int | None = None,
    ) -> random.Random | np.random.Generator:
        """The sampling stream for a caller's ``rng`` / ``seed``.

        A numpy generator for ``backend="csr"`` (see
        :func:`~repro.sampling.world_matrix.as_numpy_generator`); a
        :class:`random.Random` for ``backend="dict"``, seeded from ``seed``
        or from a supplied numpy generator.
        """
        if self.backend == "csr":
            return as_numpy_generator(rng, seed)
        if rng is None:
            return random.Random(seed)
        if isinstance(rng, np.random.Generator):
            return random.Random(int(rng.integers(0, 2**63)))
        return rng

    @property
    def resolved_kernel(self) -> str:
        """``kernel`` after the numba-availability fallback (warns once per process)."""
        return resolve_kernel(self.kernel)

    def to_header(self) -> dict:
        """The non-default knobs, in the order ``.npz`` param headers record them.

        ``backend``; the sampling block, under adaptive sampling only (fixed
        archives never carried it); ``kernel`` with what it resolved to on
        the building machine; ``partitions``.  ``n_jobs`` belongs to the
        machine running a build, not to the index, and is never recorded.
        """
        header: dict = {}
        if self.backend != "dict":
            header["backend"] = self.backend
        if self.sampling != "fixed":
            header["sampling"] = self.sampling
            header["confidence"] = self.confidence
            header["n_worlds_max"] = self.n_worlds_max
            if self.chunk_initial != DEFAULT_CHUNK_INITIAL:
                header["chunk_initial"] = self.chunk_initial
            if self.chunk_growth != DEFAULT_CHUNK_GROWTH:
                header["chunk_growth"] = self.chunk_growth
        if self.kernel != "numpy":
            header["kernel"] = self.kernel
            header["kernel_resolved"] = resolve_kernel(self.kernel, warn=False)
        if self.partitions != 1:
            header["partitions"] = self.partitions
        return header

    @classmethod
    def from_header(cls, params: dict) -> EngineOptions:
        """Read the knobs back from :meth:`to_header` output or a whole params block.

        Other keys (``k``, ``seed``, ``kernel_resolved``, ...) and ``n_jobs``
        are ignored; missing knobs take their defaults, so archives written
        before a knob existed decode to the engine that built them.
        """
        names = [field.name for field in fields(cls) if field.name != "n_jobs"]
        return cls(**{name: params[name] for name in names if name in params})


def add_engine_arguments(parser: argparse.ArgumentParser, backend: str) -> None:
    """Declare the engine flags of a command line (``backend`` is its default)."""
    add = parser.add_argument
    add("--backend", choices=BACKENDS, default=backend, help=f"engine (default: {backend})")
    add(
        "--sampling",
        choices=SAMPLING_MODES,
        default="fixed",
        help="Monte-Carlo strategy of global/weak runs (adaptive requires --backend csr)",
    )
    add("--confidence", type=float, default=DEFAULT_CONFIDENCE, help="adaptive confidence")
    add("--n-worlds-max", type=int, help="adaptive world cap (default: 2 x n-samples)")
    add(
        "--kernel",
        choices=KERNELS,
        default="numpy",
        help="hot-loop implementation (numba requires --backend csr; falls back to numpy "
        "with a warning when numba is not installed)",
    )
    add(
        "--partitions",
        type=int,
        default=1,
        help="edge partitions per candidate world sample of global/weak runs (>1 "
        "requires --backend csr)",
    )


def engine_arguments(args: argparse.Namespace) -> dict:
    """The engine keywords parsed from the flags of :func:`add_engine_arguments`."""
    return {name: getattr(args, name) for name in FLAG_KNOBS}
