"""The typed artifact request: one currency for CLI, server, and tests.

Every artifact computation used to be parameterized by whatever
``argparse.Namespace`` happened to reach it — the CLI's parsed flags,
or a hand-built namespace in tests.  That worked for one caller per
process, but a *server* needs requests that can be decoded from JSON,
compared, hashed, and deduplicated; a namespace can be none of those.

:class:`ArtifactRequest` is the replacement: a frozen dataclass carrying
exactly the fields that parameterize a computation (name, seed, scale,
payments, archive, jobs, trace, ingest mode) plus a sorted
tuple of artifact-specific ``options`` (``period``, ``top``, ``plan``,
``rounds``).  The CLI builds one from parsed flags
(:meth:`ArtifactRequest.from_namespace`), the server builds one from a
JSON body (:meth:`ArtifactRequest.from_dict`), and
``Artifact.run``/``compute_payload`` accept it directly — the namespace
never crosses the API boundary.

Canonicalization is the load-bearing part.  Two requests that differ
only in flag order or in explicit-vs-default values must be *the same
request*: :meth:`canonical_invocation` normalizes away execution
strategy (``jobs``, ``trace`` — guaranteed not to change the output
bytes), drops options at their default values, and sorts
everything — so the manifest fingerprint built over it
(:func:`repro.obs.manifest.request_fingerprint`) is byte-identical for
equivalent requests.  The serve cache and single-flight table key on
that fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import AnalysisError

#: Default semantic parameters, shared with the CLI flag defaults.
DEFAULT_SEED = 20170652
DEFAULT_SCALE = 600
DEFAULT_PAYMENTS = 12_000

#: Artifact-specific option keys a request may carry.
OPTION_KEYS = (
    "amount", "kind", "pairs", "period", "plan", "rounds", "top", "waves",
)

#: Option values considered "not specified": a request carrying one of
#: these explicitly canonicalizes identically to a request omitting it.
CANONICAL_OPTION_DEFAULTS: Dict[str, Any] = {
    "amount": None,
    "kind": "outage",
    "pairs": None,
    "period": None,
    "plan": "partition",
    "rounds": 240,
    "top": None,
    "waves": None,
}


class RequestError(AnalysisError):
    """A request body that cannot become a valid :class:`ArtifactRequest`."""


@dataclass(frozen=True)
class ArtifactRequest:
    """One artifact computation, fully specified and hashable.

    Semantic fields (``seed``, ``scale``, ``payments``, ``archive``,
    ``quarantine``, options) determine the output bytes; execution
    fields (``jobs``, ``trace``) only determine *how* the run executes
    and are excluded from :meth:`canonical_invocation`
    — sharded and traced runs are bit-for-bit identical to serial ones
    by contract.
    """

    name: str
    seed: int = DEFAULT_SEED
    scale: int = DEFAULT_SCALE
    payments: int = DEFAULT_PAYMENTS
    archive: Optional[str] = None
    jobs: Optional[int] = None
    quarantine: bool = False
    trace: bool = False
    #: Sorted ``(key, value)`` pairs of artifact-specific options.
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise RequestError("request needs a non-empty artifact name")
        raw = self.options
        if isinstance(raw, Mapping):
            raw = tuple(raw.items())
        pairs = []
        for pair in raw:
            key, value = pair
            if key not in OPTION_KEYS:
                raise RequestError(
                    f"unknown option {key!r}; known: {', '.join(OPTION_KEYS)}"
                )
            pairs.append((str(key), value))
        object.__setattr__(self, "options", tuple(sorted(pairs)))
        for int_field in ("seed", "scale", "payments"):
            value = getattr(self, int_field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise RequestError(f"{int_field} must be an integer")
        if self.scale < 1:
            # The period runs 1/scale of its length: 0 would divide by
            # zero and a negative scale would render a negative period.
            raise RequestError(f"scale must be >= 1, got {self.scale}")
        # Counts below 1 would otherwise fall through to ``or DEFAULT``
        # at the compute sites, slice lists from the end, or raise deep
        # inside generation; reject them here so CLI and serve agree.
        if self.payments < 1:
            raise RequestError(f"payments must be >= 1, got {self.payments}")
        for key in ("pairs", "rounds", "top", "waves"):
            value = self.option(key)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
                or value < 1
            ):
                raise RequestError(
                    f"{key} must be an integer >= 1, got {value!r}"
                )
        amount = self.option("amount")
        if amount is not None and (
            not isinstance(amount, (int, float)) or isinstance(amount, bool)
            or not math.isfinite(amount) or amount <= 0
        ):
            raise RequestError(
                f"amount must be a finite number > 0, got {amount!r}"
            )
        if self.jobs is not None and (
            not isinstance(self.jobs, int) or isinstance(self.jobs, bool)
        ):
            raise RequestError("jobs must be an integer or null")

    # Attribute surface -------------------------------------------------------

    def __getattr__(self, key: str) -> Any:
        # Options read like attributes (``request.period``) so artifact
        # compute/render code is agnostic about where a flag came from.
        if key.startswith("_"):
            raise AttributeError(key)
        for option, value in object.__getattribute__(self, "options"):
            if option == key:
                return value
        raise AttributeError(key)

    def option(self, key: str, default: Any = None) -> Any:
        for option, value in self.options:
            if option == key:
                return value
        return default

    # Construction ------------------------------------------------------------

    @classmethod
    def of(cls, value: Any, name: Optional[str] = None) -> "ArtifactRequest":
        """Lift any supported request carrier into a typed request.

        Already-typed requests pass through; an ``argparse.Namespace``
        (or any attribute bag) goes through :meth:`from_namespace`.
        """
        if isinstance(value, cls):
            return value
        return cls.from_namespace(value, name=name)

    @classmethod
    def from_namespace(
        cls, args: Any, name: Optional[str] = None
    ) -> "ArtifactRequest":
        """A typed request from parsed CLI flags (or any attribute bag)."""
        if name is None:
            name = getattr(args, "name", None) or getattr(args, "command", None)
        if not name:
            raise RequestError("cannot infer the artifact name from args")
        options = tuple(
            (key, getattr(args, key))
            for key in OPTION_KEYS
            if getattr(args, key, None) is not None
        )
        return cls(
            name=name,
            seed=getattr(args, "seed", DEFAULT_SEED),
            scale=getattr(args, "scale", DEFAULT_SCALE),
            payments=getattr(args, "payments", DEFAULT_PAYMENTS),
            archive=getattr(args, "archive", None),
            jobs=getattr(args, "jobs", None),
            quarantine=bool(getattr(args, "quarantine", False)),
            trace=bool(getattr(args, "trace", None)),
            options=options,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArtifactRequest":
        """A typed request from a decoded JSON body (the serve wire shape).

        The body names the artifact under ``"artifact"`` (or ``"name"``);
        every other key must be a known field or option — unknown keys
        are rejected so a typo'd parameter fails loudly instead of
        silently computing the default.
        """
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        body = dict(payload)
        name = body.pop("artifact", None) or body.pop("name", None)
        body.pop("name", None)
        if not name:
            raise RequestError('request body needs an "artifact" key')
        known = {f.name for f in fields(cls)} - {"name", "options"}
        kwargs: Dict[str, Any] = {}
        options = []
        for key, value in body.items():
            if key in known:
                kwargs[key] = value
            elif key in OPTION_KEYS:
                if value is not None:
                    options.append((key, value))
            else:
                raise RequestError(
                    f"unknown request field {key!r}; known: "
                    f"{', '.join(sorted(known | set(OPTION_KEYS)))}"
                )
        return cls(name=str(name), options=tuple(options), **kwargs)

    # Serialization and canonicalization --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full wire shape (round-trips through :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "artifact": self.name,
            "seed": self.seed,
            "scale": self.scale,
            "payments": self.payments,
            "archive": self.archive,
            "jobs": self.jobs,
            "quarantine": self.quarantine,
            "trace": self.trace,
        }
        payload.update(dict(self.options))
        return payload

    def canonical_options(self) -> Dict[str, Any]:
        """Options with defaults dropped: explicit-default == omitted.

        Integral floats normalize to ints (``--amount 10.0`` on the CLI
        and ``"amount": 10`` in a JSON body are the same request), the
        same spelling-invariance rule as explicit-vs-omitted defaults.
        """
        canonical: Dict[str, Any] = {}
        for key, value in self.options:
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if value is None or value == CANONICAL_OPTION_DEFAULTS.get(key):
                continue
            canonical[key] = value
        return canonical

    def canonical_invocation(self) -> Dict[str, Any]:
        """The semantic parameters of this request, defaults normalized.

        Excludes execution strategy (``jobs``, ``trace``) and the archive
        *path*: the input content hash, not its location, identifies the
        input — see :func:`repro.obs.manifest.request_fingerprint`.
        """
        return {
            "seed": int(self.seed),
            "scale": int(self.scale),
            "payments": int(self.payments),
            "quarantine": bool(self.quarantine),
            "options": self.canonical_options(),
        }

    def fingerprint(self) -> str:
        """The manifest fingerprint of this request (computed pre-run)."""
        from repro.obs.manifest import request_fingerprint

        return request_fingerprint(self)

    def replace(self, **changes: Any) -> "ArtifactRequest":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


# Re-exported for introspection/tests.
__all__ = [
    "ArtifactRequest",
    "RequestError",
    "OPTION_KEYS",
    "CANONICAL_OPTION_DEFAULTS",
    "DEFAULT_SEED",
    "DEFAULT_SCALE",
    "DEFAULT_PAYMENTS",
]
