"""repro.obs — the observability layer: tracing, metrics, run manifests.

One subsystem answers "what did this run actually do?":

* :mod:`repro.obs.trace` — structured span tracing
  (``span("fig3.compute", kind="phase")``) with deterministic ordering;
  serial and ``--jobs N`` runs of the same artifact produce identical
  phase-span rollups.  A span is also the one way to time a region: its
  duration feeds the metrics timer of the same name.
* :mod:`repro.obs.metrics` — the unified :data:`METRICS` registry
  (counters, gauges, timers, histograms); exposed as Prometheus text or
  JSON via ``python -m repro metrics``.
* :mod:`repro.obs.manifest` — run manifests: every CLI artifact run with
  an output emits ``<out>.manifest.json`` (atomic write + sha256
  sidecar) recording the invocation, shard-plan fingerprint, span
  rollups, ingest/degradation events (each also counted in
  :data:`METRICS` under the same name), and output hashes, validated
  against the checked-in ``run_manifest.schema.json``.

Everything is off by default and costs one attribute check per
instrumented site when off; artifact outputs are byte-identical with
observability on or off.

Library modules should import the submodules directly
(``from repro.obs.metrics import METRICS``) rather than this package, to
stay import-cycle safe.
"""

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER, Tracer, span
from repro.obs.manifest import (
    RUN,
    RUN_MANIFEST_VERSION,
    RunContext,
    build_manifest,
    deterministic_view,
    load_schema,
    manifest_destination,
    output_entry,
    validate_manifest,
    write_run_manifest,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "RUN",
    "RUN_MANIFEST_VERSION",
    "RunContext",
    "TRACER",
    "Tracer",
    "build_manifest",
    "deterministic_view",
    "load_schema",
    "manifest_destination",
    "output_entry",
    "span",
    "validate_manifest",
    "write_run_manifest",
]
