"""The artifact registry: one table from artifact name to (compute, render).

Every reproducible artifact — the paper's figures and tables plus
extensions like the chaos report — registers itself here as a
:class:`Artifact`: a ``compute`` callable that builds the artifact's
payload from a typed :class:`~repro.api.request.ArtifactRequest`, and a
``render`` callable that turns the payload into the terminal text.  The
CLI and the serve daemon both dispatch exclusively through this table,
so adding an artifact is one :func:`register` call — no new subcommand
or endpoint plumbing.

The request is the single currency: the CLI builds one from parsed
flags, ``repro serve`` builds one from a JSON body, and tests build one
directly.  :meth:`Artifact.compute_payload` lifts a raw
``argparse.Namespace`` through :meth:`ArtifactRequest.of` at the
boundary, so embedding callers that still hold a namespace keep
working — but nothing past this module ever sees one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.request import ArtifactRequest
from repro.errors import AnalysisError
from repro.obs.trace import TRACER

Compute = Callable[[ArtifactRequest], Any]
Render = Callable[[Any, ArtifactRequest], str]


class ArtifactError(AnalysisError):
    """An artifact cannot be computed with the given arguments."""


@dataclass
class ArtifactResult:
    """The typed payload every artifact computation produces.

    ``compute`` entries return one of these (or a bare value, which
    :meth:`wrap` lifts) instead of ad-hoc dicts and tuples:

    * ``data`` — the artifact's payload, whatever ``render`` consumes.
    * ``metrics`` — artifact-specific scalar facts worth surfacing in the
      run manifest (row counts, failure tallies); optional.
    * ``manifest`` — extra annotations merged into the run manifest's
      ``artifact_extra`` section; optional.
    * ``output_paths`` — files the computation itself wrote (beyond the
      CLI's ``--out``), so the manifest can hash them; optional.
    """

    data: Any
    metrics: Dict[str, Any] = field(default_factory=dict)
    manifest: Dict[str, Any] = field(default_factory=dict)
    output_paths: List[str] = field(default_factory=list)

    @classmethod
    def wrap(cls, value: Any) -> "ArtifactResult":
        """Lift a bare payload; already-typed results pass through."""
        if isinstance(value, cls):
            return value
        return cls(data=value)


#: Envelope schema version; bump when the envelope layout changes.
ENVELOPE_VERSION = 1


@dataclass
class ResultEnvelope:
    """The serializable outcome of one artifact request.

    This is the one response schema shared by the serve daemon (its wire
    responses and its cache entries *are* envelope dicts) and the run
    manifest (which records the same ``fingerprint`` and
    ``rendered_sha256``).  The **core** — everything except the
    transport annotations ``cache`` and ``detail`` — is deterministic:
    equivalent requests produce byte-identical :meth:`core` JSON no
    matter which process computed them, when, or whether the bytes came
    from the cache.
    """

    status: str  # "ok" | "error"
    artifact: str
    fingerprint: Optional[str]
    rendered_text: Optional[str] = None
    rendered_sha256: Optional[str] = None
    output_sha256s: List[str] = field(default_factory=list)
    error: Optional[str] = None
    #: Transport annotation: "hit" | "miss" (never part of the core).
    cache: Optional[str] = None
    #: Volatile extras (timings, span rollups); never part of the core.
    detail: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def ok(
        cls,
        artifact: str,
        fingerprint: Optional[str],
        rendered_text: str,
        output_sha256s: Sequence[str] = (),
    ) -> "ResultEnvelope":
        return cls(
            status="ok",
            artifact=artifact,
            fingerprint=fingerprint,
            rendered_text=rendered_text,
            rendered_sha256=hashlib.sha256(
                rendered_text.encode("utf-8")
            ).hexdigest(),
            output_sha256s=sorted(output_sha256s),
        )

    @classmethod
    def failure(
        cls, artifact: str, fingerprint: Optional[str], error: str
    ) -> "ResultEnvelope":
        return cls(
            status="error",
            artifact=artifact,
            fingerprint=fingerprint,
            error=str(error),
        )

    def core(self) -> Dict[str, Any]:
        """The deterministic payload: what gets cached and hashed."""
        payload: Dict[str, Any] = {
            "envelope_version": ENVELOPE_VERSION,
            "status": self.status,
            "artifact": self.artifact,
            "fingerprint": self.fingerprint,
            "rendered_text": self.rendered_text,
            "rendered_sha256": self.rendered_sha256,
            "output_sha256s": sorted(self.output_sha256s),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def to_dict(self) -> Dict[str, Any]:
        payload = self.core()
        if self.cache is not None:
            payload["cache"] = self.cache
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    def core_sha256(self) -> str:
        """sha256 of the canonical core JSON (response-equivalence checks)."""
        import json

        canonical = json.dumps(
            self.core(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResultEnvelope":
        """Decode an envelope dict (wire response or cache entry)."""
        if not isinstance(payload, dict) or "status" not in payload \
                or "artifact" not in payload:
            raise ArtifactError("malformed result envelope")
        return cls(
            status=payload["status"],
            artifact=payload["artifact"],
            fingerprint=payload.get("fingerprint"),
            rendered_text=payload.get("rendered_text"),
            rendered_sha256=payload.get("rendered_sha256"),
            output_sha256s=list(payload.get("output_sha256s") or ()),
            error=payload.get("error"),
            cache=payload.get("cache"),
            detail=dict(payload.get("detail") or {}),
        )


@dataclass(frozen=True)
class ShardedCompute:
    """Optional map/reduce contract of an artifact.

    An artifact that registers one can run across a worker pool
    (:mod:`repro.parallel`): ``prepare`` builds the shared input in the
    parent (e.g. the columnar dataset), ``shards`` splits it into at most
    ``n`` contiguous, picklable shard payloads, ``compute_shard`` — a
    *module-level* function, so it pickles by reference into workers —
    maps one shard to a partial, and ``merge`` reduces the partials.

    The contract every implementation must honour: ``merge`` is
    **order-independent** over shard partials and its result is
    **bit-for-bit identical** to the serial ``compute`` for any contiguous
    partition of the input — the golden-equivalence suite enforces this.
    """

    prepare: Callable[[ArtifactRequest], Any]
    shards: Callable[[Any, int], List[Any]]
    compute_shard: Callable[[Any], Any]
    merge: Callable[[List[Any], Any], Any]


@dataclass(frozen=True)
class Artifact:
    """One reproducible artifact: how to compute it and how to show it."""

    name: str
    description: str
    compute: Compute
    render: Render
    #: Optional map/reduce contract; ``compute`` stays the serial fallback.
    sharded: Optional[ShardedCompute] = None

    def compute_payload(self, request: Any) -> "ArtifactResult":
        """Compute the typed result, sharding across workers when asked to.

        ``request`` is an :class:`ArtifactRequest`; a raw
        ``argparse.Namespace`` (or any attribute bag) is lifted through
        :meth:`ArtifactRequest.of` at this boundary.  Serial
        (``compute``) unless the artifact has a sharded contract *and*
        the request asks for more than one worker.  Sharded merges return
        bare payloads; :meth:`ArtifactResult.wrap` lifts either form, so
        callers always get an :class:`ArtifactResult`.
        """
        from repro.parallel.engine import run_compute

        request = ArtifactRequest.of(request, name=self.name)
        with TRACER.span(f"{self.name}.compute", kind="phase"):
            return ArtifactResult.wrap(run_compute(self, request))

    def render_text(self, result: "ArtifactResult", request: Any) -> str:
        """Render a result for the terminal (accepts bare payloads too)."""
        request = ArtifactRequest.of(request, name=self.name)
        result = ArtifactResult.wrap(result)
        with TRACER.span(f"{self.name}.render", kind="phase"):
            return self.render(result.data, request)

    def run(self, request: Any) -> str:
        """Compute the payload and render it for the terminal."""
        request = ArtifactRequest.of(request, name=self.name)
        return self.render_text(self.compute_payload(request), request)


#: name -> Artifact, in registration order (figures list order).
ARTIFACTS: Dict[str, Artifact] = {}


def register(
    name: str,
    description: str,
    compute: Compute,
    render: Render,
    sharded: Optional[ShardedCompute] = None,
) -> Artifact:
    """Register an artifact; later registrations replace earlier ones."""
    artifact = Artifact(
        name=name, description=description, compute=compute, render=render,
        sharded=sharded,
    )
    ARTIFACTS[name] = artifact
    return artifact


def artifact(name: str) -> Artifact:
    try:
        return ARTIFACTS[name]
    except KeyError:
        raise ArtifactError(
            f"unknown artifact {name!r}; known: {', '.join(sorted(ARTIFACTS))}"
        ) from None


def names() -> List[str]:
    return list(ARTIFACTS)
