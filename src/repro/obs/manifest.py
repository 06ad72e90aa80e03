"""Run manifests: what a CLI artifact run actually did, sealed to disk.

Every artifact run that produces a file (``--out``) or a trace
(``--trace``) emits ``<out>.manifest.json`` — written atomically with a
``.sha256`` sidecar via :mod:`repro.durability` — recording:

* the **invocation**: seed, scale, payments, archive, jobs, quarantine;
* the **shard plan fingerprint** when the run sharded
  (:func:`repro.parallel.sharding.plan_fingerprint`);
* the deterministic **phase-span rollup** and (informationally) wall
  seconds per phase;
* **ingest/quarantine stats** and **degradation events**
  (``node.round_retries``, ``node.degraded_closes``,
  ``node.failed_closes``, ``stream.replayed``,
  ``stream.duplicates_dropped``, ``parallel.<artifact>.resubmits``,
  ``parallel.<artifact>.serial_fallbacks``);
* the **metrics snapshot** when metrics were enabled;
* sha256 + byte size of every **output artifact**, plus the hash of the
  rendered text itself.

Two views of a manifest matter:

* the full payload answers "what did this run do?" after the fact;
* :func:`deterministic_view` strips everything wall-clock- or
  strategy-dependent (timing, metrics, the plan, worker counts) down to
  the fields that must be **identical** for a serial and a ``--jobs N``
  run of the same artifact — the form CI diffs.

The schema ships with the package (``run_manifest.schema.json``) and
:func:`validate_manifest` checks a payload against it with a small
self-contained validator (no third-party jsonschema dependency), so CI
and tests can reject drift between writer and schema.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.metrics import METRICS

#: Manifest schema version; bump when the payload layout changes.
RUN_MANIFEST_VERSION = 2

#: Request-fingerprint schema version; bump when the fingerprint
#: document layout changes (old cache entries then miss, never collide).
FINGERPRINT_SCHEMA_VERSION = 1

#: Manifest sidecar suffix: ``fig3.txt`` -> ``fig3.txt.manifest.json``.
RUN_MANIFEST_SUFFIX = ".manifest.json"

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "run_manifest.schema.json"
)


class RunContext:
    """Deterministic annotations accumulated during one artifact run.

    Unlike the metrics registry this is *always on* — the recording sites
    are coarse (once per run, or on failure/degradation paths), so the
    cost is a handful of dict writes.  The CLI resets it before each
    dispatch and the manifest builder drains it after.
    """

    def __init__(self) -> None:
        self.annotations: Dict[str, Any] = {}
        self.events: Dict[str, int] = {}

    def reset(self) -> None:
        self.annotations.clear()
        self.events.clear()

    def note(self, **kwargs: Any) -> None:
        """Attach run-level facts (plan fingerprint, ingest stats, …)."""
        self.annotations.update(kwargs)

    def count(self, name: str, delta: int = 1) -> None:
        """Tally one degradation/recovery event.

        The one recording call per event: it also counts ``name`` in
        :data:`METRICS`, so the manifest's ``events`` and its metrics
        counters agree by construction.
        """
        self.events[name] = self.events.get(name, 0) + delta
        METRICS.count(name, delta)

    def absorb(self, events: Dict[str, int]) -> None:
        """Fold in the events one shard counted.

        Only ``events`` grows: the shard's :meth:`count` calls already
        reached :data:`METRICS`, in the parent's live registry or in the
        worker snapshot the parent absorbs.
        """
        for name, delta in events.items():
            self.events[name] = self.events.get(name, 0) + delta


#: Process-wide run context.
RUN = RunContext()


def manifest_destination(base_path: str) -> str:
    return f"{base_path}{RUN_MANIFEST_SUFFIX}"


def file_sha256(path: str) -> tuple:
    """(sha256 hex digest, byte size) of the file at ``path``."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def output_entry(path: str, kind: str = "artifact", volatile: bool = False) -> dict:
    """Describe one output file: path, sha256, byte size.

    ``volatile`` marks outputs whose bytes legitimately differ between
    equivalent runs (e.g. the trace file, which embeds wall-clock
    timestamps); :func:`deterministic_view` skips them.
    """
    sha256, size = file_sha256(path)
    entry = {
        "path": os.path.abspath(path),
        "kind": kind,
        "sha256": sha256,
        "bytes": size,
    }
    if volatile:
        entry["volatile"] = True
    return entry


# Request fingerprints -------------------------------------------------------


def input_hashes(request: Any) -> List[str]:
    """Content hashes of every input archive a request reads.

    The fingerprint keys on input *content*, not location: the same
    archive reached through two paths is the same input, and a changed
    archive at the same path is a different one.  A named archive that
    does not exist fails here — **before** any computation starts —
    with the same wording the ingest layer uses.
    """
    archive = getattr(request, "archive", None)
    if not archive:
        return []
    if not os.path.exists(archive):
        from repro.errors import MissingInputError

        raise MissingInputError(f"archive not found: {archive}")
    sha256, _size = file_sha256(archive)
    return [f"sha256:{sha256}"]


def request_fingerprint(
    request: Any, inputs: Optional[List[str]] = None
) -> str:
    """The deterministic identity of one artifact request, computed pre-run.

    A sha256 over the canonical fingerprint document: schema version,
    artifact name, the request's :meth:`canonical_invocation` (semantic
    parameters only — execution strategy excluded, defaults
    normalized), and the content hashes of every input archive.  Two
    requests that would render identical bytes by the repo's
    serial/parallel equivalence contract produce the identical
    fingerprint; the serve cache and single-flight table key on it.
    """
    if inputs is None:
        inputs = input_hashes(request)
    document = {
        "fingerprint_schema": FINGERPRINT_SCHEMA_VERSION,
        "artifact": request.name,
        "invocation": request.canonical_invocation(),
        "inputs": list(inputs),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    artifact_name: str,
    args: Any,
    rendered_text: str,
    outputs: List[dict],
    started_at: float,
    duration_seconds: float,
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
    result: Optional[Any] = None,
    fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest payload for one finished artifact run.

    ``result`` is the run's :class:`~repro.api.registry.ArtifactResult`;
    its ``metrics``/``manifest`` dicts land in ``artifact_metrics`` /
    ``artifact_extra``.  Both stay out of :func:`deterministic_view`:
    a sharded merge may return a bare payload (empty metrics) where the
    serial compute fills them, so they are strategy-dependent.
    ``fingerprint`` is the pre-run :func:`request_fingerprint` — the
    same value the serve cache keys on, so a manifest names the cache
    entry its run would hit.
    """
    from repro.obs.trace import TRACER

    tracer = tracer if tracer is not None else TRACER
    metrics = metrics if metrics is not None else METRICS
    annotations = dict(RUN.annotations)
    plan = None
    if annotations.get("plan_fingerprint"):
        plan = {
            "fingerprint": annotations["plan_fingerprint"],
            "shards": int(annotations.get("shards", 0)),
            "jobs": int(annotations.get("jobs", 0)),
        }
    payload: Dict[str, Any] = {
        "manifest_version": RUN_MANIFEST_VERSION,
        "artifact": artifact_name,
        "fingerprint": fingerprint,
        "invocation": {
            "seed": getattr(args, "seed", None),
            "scale": getattr(args, "scale", None),
            "payments": getattr(args, "payments", None),
            "archive": getattr(args, "archive", None),
            "jobs": getattr(args, "jobs", None),
            "quarantine": bool(getattr(args, "quarantine", False)),
        },
        "plan": plan,
        "spans": tracer.rollup("phase") if tracer.enabled else {},
        "phase_seconds": tracer.phase_seconds() if tracer.enabled else {},
        "ingest": annotations.get("ingest"),
        "events": dict(sorted(RUN.events.items())),
        "metrics": metrics.snapshot() if metrics.enabled else None,
        "artifact_metrics": dict(getattr(result, "metrics", None) or {}) or None,
        "artifact_extra": dict(getattr(result, "manifest", None) or {}) or None,
        "rendered_sha256": hashlib.sha256(
            rendered_text.encode("utf-8")
        ).hexdigest(),
        "outputs": outputs,
        "timing": {
            "started_at": started_at,
            "duration_seconds": round(duration_seconds, 6),
        },
    }
    return payload


def write_run_manifest(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write the manifest JSON plus its sha256 sidecar."""
    from repro.durability.atomic import atomic_write

    with atomic_write(path, manifest=True, fmt="repro-run-manifest/1") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def deterministic_view(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The strategy-independent core of a manifest.

    Two runs of the same artifact with the same seed/scale/input must
    agree on this view no matter how they executed — serial or
    ``--jobs 4`` — and no matter when.  Strips timing, metrics, the shard
    plan, worker counts, volatile outputs, and path locations (only
    content hashes remain).
    """
    invocation = {
        key: value
        for key, value in payload.get("invocation", {}).items()
        if key != "jobs"
    }
    return {
        "artifact": payload.get("artifact"),
        "fingerprint": payload.get("fingerprint"),
        "invocation": invocation,
        "spans": payload.get("spans"),
        "ingest": payload.get("ingest"),
        "rendered_sha256": payload.get("rendered_sha256"),
        "output_sha256s": sorted(
            entry["sha256"]
            for entry in payload.get("outputs", [])
            if not entry.get("volatile")
        ),
    }


# Schema validation ----------------------------------------------------------


def load_schema() -> Dict[str, Any]:
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (
            isinstance(value, (int, float)) and not isinstance(value, bool)
        )
    python_type = _TYPES.get(expected)
    return python_type is not None and isinstance(value, python_type)


def _validate(value: Any, schema: Dict[str, Any], path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, one) for one in allowed):
            errors.append(
                f"{path or '$'}: expected {'|'.join(allowed)}, "
                f"got {type(value).__name__}"
            )
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path or '$'}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path or '$'}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path or '$'}: missing required key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                _validate(item, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path or '$'}: unexpected key {key!r}")
    if isinstance(value, list) and isinstance(schema.get("items"), dict):
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{index}]", errors)


def validate_manifest(
    payload: Any, schema: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Errors of ``payload`` against the run-manifest schema ([] = valid).

    The validator supports the subset of JSON Schema the checked-in
    schema uses — type (scalar or union), required, properties,
    additionalProperties (bool or schema), items, enum, minimum — and is
    deliberately dependency-free.
    """
    schema = schema if schema is not None else load_schema()
    errors: List[str] = []
    _validate(payload, schema, "", errors)
    return errors
