"""Run manifests: one JSON document describing one invocation.

A :class:`RunManifest` pins everything needed to interpret (or re-run)
a CLI/experiment invocation: the exact code version (git SHA + dirty
flag), interpreter and NumPy versions, the resolved
:class:`~repro.gpu.config.SimulationOptions`, disk-cache inventory,
the per-phase wall-clock aggregate from :mod:`repro.obs.trace`, the
metrics snapshot, and the process's peak RSS.  The CLI writes one next
to every ``--metrics-out`` / ``--trace-out`` destination, and
``scripts/perf_gate.py`` embeds the same host block in each
``BENCH_*.json`` baseline.

The schema (``docs/OBSERVABILITY.md``) is versioned via
``schema_version`` so downstream tooling can evolve safely;
:meth:`RunManifest.from_json` round-trips anything
:meth:`RunManifest.to_json` produced.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Bump when the manifest layout changes incompatibly.
SCHEMA_VERSION = 1


def _json_default(obj: Any) -> Any:
    """Flatten the non-JSON types that appear inside options dicts."""
    value = getattr(obj, "value", None)  # Enum members
    if value is not None and not callable(value):
        return value
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    return str(obj)


def git_revision(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Current git SHA/branch/dirty flag, or ``{}`` outside a repo."""
    info: Dict[str, Any] = {}
    try:
        def _run(*argv: str) -> str:
            return subprocess.run(
                ["git", *argv],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()

        info["sha"] = _run("rev-parse", "HEAD")
        info["branch"] = _run("rev-parse", "--abbrev-ref", "HEAD")
        info["dirty"] = bool(_run("status", "--porcelain"))
    except Exception:
        # Not a repo / git missing: the manifest still stands.
        pass
    return info


def host_fingerprint() -> Dict[str, Any]:
    """Interpreter, NumPy, and platform identity."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes.

    Reads ``VmHWM`` from ``/proc/self/status`` where it exists (Linux).
    ``ru_maxrss`` is no substitute there: it keeps the high-water mark
    of the process that spawned this one across fork and exec, so a
    small child of a large parent reports the parent's peak.
    Elsewhere it falls back to ``resource.getrusage`` (``ru_maxrss``
    is KiB on Linux and bytes on macOS), and returns ``None`` where
    neither exists (Windows).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - mac reports bytes
        return int(peak)
    return int(peak) * 1024


@dataclass
class RunManifest:
    """Everything that identifies one instrumented run."""

    command: str
    argv: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    created_unix: float = 0.0
    git: Dict[str, Any] = field(default_factory=dict)
    host: Dict[str, Any] = field(default_factory=dict)
    options: Optional[Dict[str, Any]] = None
    cache: Optional[Dict[str, Any]] = None
    phases: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    peak_rss_bytes: Optional[int] = None

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(
            dataclasses.asdict(self),
            indent=indent,
            sort_keys=True,
            default=_json_default,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        payload = json.loads(text)
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def collect_manifest(
    command: str,
    argv: Optional[list] = None,
    options: Any = None,
    cache: Any = None,
) -> RunManifest:
    """Assemble a manifest from the current process state.

    ``options`` is a :class:`~repro.gpu.config.SimulationOptions` (or
    any dataclass); ``cache`` a :class:`~repro.runtime.store.DiskCache`
    whose inventory/hit counters get embedded.  Phase timings and the
    metrics snapshot come from the live :mod:`repro.obs` state.
    """
    from repro.obs import metrics as metrics_mod
    from repro.obs import trace as trace_mod

    options_dict = None
    if options is not None:
        options_dict = (
            dataclasses.asdict(options)
            if dataclasses.is_dataclass(options) and not isinstance(options, type)
            else dict(options)
        )
    cache_dict = None
    if cache is not None:
        cache_dict = cache.stats().as_dict()
    return RunManifest(
        command=command,
        argv=list(argv if argv is not None else sys.argv),
        created_unix=time.time(),
        git=git_revision(),
        host=host_fingerprint(),
        options=options_dict,
        cache=cache_dict,
        phases=trace_mod.phase_timings(),
        metrics=metrics_mod.snapshot(),
        peak_rss_bytes=peak_rss_bytes(),
    )
