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

:func:`resolve_backend` returns a :class:`Backend` record: the name,
the identity tier and four functions. ``mfc_cascade`` / ``ic_cascade``
run one cascade and return ``(result, attempts)``, the result always
carrying the full event trace. ``mfc_batch`` / ``ic_batch`` run T
cascades in one call and return compact per-trial summaries
(:class:`repro.kernel.batch.CascadeBatchSummary`): the python tier runs
the single cascade's loop once per trial and is bit-identical to
``simulate_many``; the numpy tier sweeps all trials as ``(T, n)``
matrices and joins the statistical tier. See ``docs/algorithms.md`` §13.

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
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.obs.recorder import current_recorder

#: Identity tiers a backend can promise (``docs/algorithms.md`` §12).
BIT_IDENTICAL = "bit"
STATISTICAL = "statistical"

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Names accepted by :func:`resolve_backend` (and the env var).
VALID_BACKENDS = ("python", "numpy", "auto")


@dataclass(frozen=True)
class Backend:
    """One execution engine: its name, identity tier and kernel entry points.

    ``mfc_cascade(compiled, validated, random, alpha, allow_flips,
    max_rounds)`` and ``ic_cascade(compiled, validated, random,
    propagate_signs)`` run one cascade and return ``(DiffusionResult,
    attempts)``. ``mfc_batch(compiled, validated, trial_seeds, namespace,
    alpha, allow_flips, max_rounds, record_states=False)`` and
    ``ic_batch(compiled, validated, trial_seeds, namespace,
    propagate_signs, record_states=False)`` run T cascades and return a
    :class:`~repro.kernel.batch.CascadeBatchSummary`; pass
    ``record_states`` by keyword.
    """

    name: str
    tier: str
    mfc_cascade: Callable[..., Any]
    ic_cascade: Callable[..., Any]
    mfc_batch: Callable[..., Any]
    ic_batch: Callable[..., Any]


def _build(name: str) -> Backend:
    """The backend record for a resolved ``name`` (``python``/``numpy``)."""
    # Bound here rather than at import: the kernel modules import this
    # package back (cascade.py at module bottom), and numpy must only be
    # imported after the feature probe.
    if name == "python":
        from repro.kernel import batch, cascade

        return Backend(
            name="python",
            tier=BIT_IDENTICAL,
            mfc_cascade=cascade._mfc_cascade,
            ic_cascade=cascade._ic_cascade,
            mfc_batch=partial(batch.python_batch, cascade._mfc_sweep),
            ic_batch=partial(batch.python_batch, cascade._ic_sweep),
        )
    from repro.kernel.backends import numpy_backend as impl

    return Backend(
        name="numpy",
        tier=STATISTICAL,
        mfc_cascade=impl.mfc_cascade,
        ic_cascade=impl.ic_cascade,
        mfc_batch=impl.mfc_batch,
        ic_batch=impl.ic_batch,
    )


_NUMPY_OK: Optional[bool] = None
_INSTANCES: Dict[str, Backend] = {}
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


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The backend record for ``name`` (or the env/``python`` default).

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
        instance = _build(name)
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
    "Backend",
    "default_backend_name",
    "numpy_available",
    "resolve_backend",
]
