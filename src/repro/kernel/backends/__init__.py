"""Selectable execution backends for the compiled cascade kernel.

The cascade kernel of :mod:`repro.kernel` stores a flat CSR graph, but
*how* cascades are swept over it is an execution detail. This package
makes it a selectable one:

* ``python`` — the interpreted loops that shipped with the kernel.
  **Bit-identical tier**: same RNG stream, same event order, same floats
  as the reference simulators (``tests/oracles/cascades.py``). This is
  the default; every existing identity gate pins it.
* ``numpy`` — frontier-batched vectorized cascade rounds
  (:mod:`repro.kernel.backends.numpy_backend`).
  **Statistical-identity tier**: batching necessarily consumes the RNG
  in a different order than the reference stream, so individual
  cascades differ draw-for-draw while exact-graph invariants (reachable
  set under ``p = 1``, attempt accounting, per-attempt success
  probabilities and conflict-resolution distribution) and therefore
  every Monte-Carlo estimate's distribution are preserved. numpy is an
  *optional* dependency — the core library stays zero-dependency, and
  requesting ``numpy`` without it installed falls back to ``python``
  with a one-time warning (and a ``kernel.backend.fallback`` counter
  when observability is on).

Detection does not go through this package: the tree DP has one
implementation, :class:`repro.kernel.tree_dp.TreeDPKernel`.

Both backends also implement the **batched-trial** protocol
(``mfc_batch`` / ``ic_batch``): T cascades in one call, returning
compact per-trial summaries (:class:`repro.kernel.batch.
CascadeBatchSummary`). The python tier loops per trial and is
bit-identical to ``simulate_many``; the numpy tier sweeps all trials as
``(T, n)`` matrices and joins the statistical tier. See
``docs/algorithms.md`` §13.

Selection order: an explicit ``backend=`` argument wins, else the
``REPRO_KERNEL_BACKEND`` environment variable, else ``python``. The
value ``auto`` picks ``numpy`` when available. Cache keys split by
tier: :func:`repro.runtime.cache.model_digest` folds the backend name
in only when the resolved backend is not bit-identical, so the default
path's trial-cache keys are unchanged.

See ``docs/algorithms.md`` §12 for the identity-contract tiers.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.recorder import current_recorder

#: Identity tiers a backend can promise (``docs/algorithms.md`` §12).
BIT_IDENTICAL = "bit"
STATISTICAL = "statistical"

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Names accepted by :func:`resolve_backend` (and the env var).
VALID_BACKENDS = ("python", "numpy", "auto")


class PythonBackend:
    """The interpreted kernel loops — the bit-identical reference tier."""

    name = "python"
    tier = BIT_IDENTICAL

    def __init__(self) -> None:
        # Bound lazily so importing this package never drags the kernel
        # modules in (they import us back at module bottom).
        from repro.kernel import batch as _batch
        from repro.kernel import cascade as _cascade

        self._mfc = _cascade._mfc_cascade
        self._ic = _cascade._ic_cascade
        self._mfc_batch = _batch.python_mfc_batch
        self._ic_batch = _batch.python_ic_batch

    def mfc_cascade(
        self,
        compiled,
        validated,
        random,
        alpha,
        allow_flips,
        max_rounds,
        record_events=True,
    ):
        """One MFC cascade; returns ``(result, per-slot attempt flags)``."""
        return self._mfc(
            compiled, validated, random, alpha, allow_flips, max_rounds, record_events
        )

    def ic_cascade(self, compiled, validated, random, propagate_signs, record_events=True):
        """One IC cascade; returns ``(result, per-slot attempt flags)``."""
        return self._ic(compiled, validated, random, propagate_signs, record_events)

    def mfc_batch(
        self,
        compiled,
        validated,
        trial_seeds,
        namespace,
        alpha,
        allow_flips,
        max_rounds,
        record_states=False,
    ):
        """T MFC cascades, one reference loop per trial (bit-identical)."""
        return self._mfc_batch(
            compiled,
            validated,
            trial_seeds,
            namespace,
            alpha,
            allow_flips,
            max_rounds,
            record_states,
        )

    def ic_batch(
        self, compiled, validated, trial_seeds, namespace, propagate_signs,
        record_states=False,
    ):
        """T IC cascades, one reference loop per trial (bit-identical)."""
        return self._ic_batch(
            compiled, validated, trial_seeds, namespace, propagate_signs, record_states
        )


class NumpyBackend:
    """Vectorized sweeps over the same compiled arrays (numpy required)."""

    name = "numpy"
    tier = STATISTICAL

    def __init__(self) -> None:
        from repro.kernel.backends import numpy_backend as _impl

        self._impl = _impl

    def mfc_cascade(
        self,
        compiled,
        validated,
        random,
        alpha,
        allow_flips,
        max_rounds,
        record_events=True,
    ):
        """One frontier-batched MFC cascade; returns ``(result, attempts)``."""
        return self._impl.mfc_cascade(
            compiled, validated, random, alpha, allow_flips, max_rounds, record_events
        )

    def ic_cascade(self, compiled, validated, random, propagate_signs, record_events=True):
        """One frontier-batched IC cascade; returns ``(result, attempts)``."""
        return self._impl.ic_cascade(
            compiled, validated, random, propagate_signs, record_events
        )

    def mfc_batch(
        self,
        compiled,
        validated,
        trial_seeds,
        namespace,
        alpha,
        allow_flips,
        max_rounds,
        record_states=False,
    ):
        """T MFC cascades as one ``(T, n)`` matrix sweep (statistical tier)."""
        return self._impl.mfc_batch(
            compiled,
            validated,
            trial_seeds,
            namespace,
            alpha,
            allow_flips,
            max_rounds,
            record_states,
        )

    def ic_batch(
        self, compiled, validated, trial_seeds, namespace, propagate_signs,
        record_states=False,
    ):
        """T IC cascades as one ``(T, n)`` matrix sweep (statistical tier)."""
        return self._impl.ic_batch(
            compiled, validated, trial_seeds, namespace, propagate_signs, record_states
        )


_NUMPY_OK: Optional[bool] = None
_INSTANCES: Dict[str, object] = {}
_FALLBACK_WARNED = False


def numpy_available() -> bool:
    """True when the optional numpy dependency can be imported."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_OK = True
        except ImportError:
            _NUMPY_OK = False
    return _NUMPY_OK


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this process."""
    return ("python", "numpy") if numpy_available() else ("python",)


def default_backend_name() -> str:
    """The process default: ``REPRO_KERNEL_BACKEND`` or ``python``.

    Raises:
        ConfigError: when the env var holds an unknown name — a typo'd
            override should fail loudly, not silently run interpreted.
    """
    env = os.environ.get(ENV_VAR)
    if not env:
        return "python"
    name = env.strip().lower()
    if name not in VALID_BACKENDS:
        raise ConfigError(
            f"{ENV_VAR}={env!r} is not a kernel backend; "
            f"expected one of {VALID_BACKENDS}"
        )
    return name


def resolve_backend(name: Optional[str] = None):
    """The backend instance for ``name`` (or the env/``python`` default).

    ``auto`` resolves to ``numpy`` when available, else ``python``.
    A ``numpy`` request without numpy installed degrades gracefully to
    ``python``: one :class:`RuntimeWarning` per process, plus a
    ``kernel.backend.fallback`` counter on the ambient recorder.

    Raises:
        ConfigError: on a name outside :data:`VALID_BACKENDS`.
    """
    global _FALLBACK_WARNED
    if name is None:
        name = default_backend_name()
    else:
        name = str(name).strip().lower()
        if name not in VALID_BACKENDS:
            raise ConfigError(
                f"unknown kernel backend {name!r}; expected one of {VALID_BACKENDS}"
            )
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    elif name == "numpy" and not numpy_available():
        recorder = current_recorder()
        if recorder.enabled:
            recorder.incr("kernel.backend.fallback")
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                "numpy kernel backend requested but numpy is not installed; "
                "falling back to the interpreted python backend "
                "(pip install 'repro[numpy]' for the vectorized path)",
                RuntimeWarning,
                stacklevel=2,
            )
        name = "python"
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = PythonBackend() if name == "python" else NumpyBackend()
        _INSTANCES[name] = instance
    return instance


def _reset_for_tests() -> None:
    """Drop all cached dispatch state (feature probe, instances, warning)."""
    global _NUMPY_OK, _FALLBACK_WARNED
    _NUMPY_OK = None
    _FALLBACK_WARNED = False
    _INSTANCES.clear()


__all__ = [
    "BIT_IDENTICAL",
    "STATISTICAL",
    "ENV_VAR",
    "VALID_BACKENDS",
    "PythonBackend",
    "NumpyBackend",
    "available_backends",
    "default_backend_name",
    "numpy_available",
    "resolve_backend",
]
