"""Memoizing bundle cache: amortize Mulini generation across a sweep.

The paper's sweeps run the *same* experiment family over thousands of
points; the generated bundles differ only in the experiment-point id
(embedded in paths and script headers) and in the two parameter-bearing
files (``config/driver.properties`` and ``scripts/CLIENT_ignition.sh``,
which carry workload, write ratio, mix and seed).  The cache exploits
that structure: it stores one **chassis** per experiment and
topology, keyed with the seed normalized out and without the point's
workload/write-ratio.  A hit reuses every point-invariant file with
the experiment id substituted and re-renders only the
:data:`~repro.generator.backends.shell.ShellBackend.POINT_FILES`.

The key includes the resource model's :meth:`fingerprint` and the
host plan's :meth:`fingerprint`, so a model override or a different
node assignment invalidates naturally.  Every point is assembled into
a **fresh** :class:`~repro.generator.artifacts.Bundle` sharing the
immutable content strings, so no mutable state crosses trials or
workers, and the returned bundle is byte-identical to an uncached
generation — the hot-path identity invariant.
"""

from __future__ import annotations

from dataclasses import replace

from repro import hotpath
from repro.generator.artifacts import Bundle

#: Stand-in for the experiment-point id inside stored chassis files.
#: Distinctive enough never to occur in generated artifact text.
_POINT_TOKEN = "@@repro-point-id@@"

_CHASSIS = hotpath.MemoCache("generator.chassis", capacity=1024)


def cached_generate(backend, experiment, topology, workload, write_ratio,
                    host_plan, point_id):
    """A bundle for one point, assembled from the cached chassis.

    *backend* is a ready :class:`ShellBackend`; non-shell backends
    bypass this module entirely (their output is plain text, cheap to
    rebuild and not worth a placeholder scheme).
    """
    chassis_key = (backend.resource_model.fingerprint(),
                   replace(experiment, seed=0), topology.label(),
                   host_plan.fingerprint())
    files, param_paths = _CHASSIS.get(
        chassis_key,
        lambda: _build_chassis(backend, experiment, topology, workload,
                               write_ratio, host_plan, point_id))
    param = backend.point_files(experiment, topology, workload,
                                write_ratio, host_plan, point_id)
    bundle = Bundle(point_id)
    for path, content in files.items():
        if path in param_paths:
            bundle.files[path] = param[path]
        else:
            bundle.files[path] = content.replace(_POINT_TOKEN, point_id)
    return bundle


def _build_chassis(backend, experiment, topology, workload, write_ratio,
                   host_plan, point_id):
    """Generate the full bundle once and store it in chassis form:
    point-invariant files with the experiment id replaced by a token
    (file order preserved — installation order is part of identity)."""
    generated = backend.generate(experiment, topology, workload,
                                 write_ratio, host_plan, point_id)
    param_paths = frozenset(backend.POINT_FILES)
    files = {}
    for path, content in generated.files.items():
        if path in param_paths:
            files[path] = content         # placeholder; replaced per point
        else:
            files[path] = content.replace(point_id, _POINT_TOKEN)
    return files, param_paths
