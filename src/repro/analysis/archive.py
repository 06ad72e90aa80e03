"""Ledger-archive I/O: dump a transaction history to disk and read it back.

The paper's pipeline starts with "an ad-hoc Ripple client that downloaded
more than 500 GB worth of data from the Ripple's distributed ledger".  This
module is the equivalent artifact boundary for the reproduction: a history
can be exported to a gzip-compressed JSONL archive (one payment per line,
exactly the ⟨S, A, T, C, D⟩ + path fields the study extracts) and re-read
later without re-running the generator — so expensive analyses can run on a
frozen dump, the way the authors' did.

The format is deliberately boring and stable:

    {"i": 17, "t": 472230405, "s": "rG9k...", "d": "r4HU...",
     "c": "USD", "a": 4.5, "x": false, "cc": false, "h": 1, "p": 1,
     "via": ["rPpS..."], "ok": true, "k": "fiat"}

Durability contract (PR 4): writes are atomic (temp + fsync + rename) and
sealed with a ``<path>.sha256`` sidecar manifest that reads verify first;
reads run **strict** by default — any malformed line is a typed
:class:`~repro.errors.SchemaError` carrying its 1-based line number — or
**lenient**, where schema-rejected lines are diverted to a
``<path>.quarantine.jsonl`` sidecar (reason attached) up to a bounded
bad-line fraction.  Truncated gzip streams are reported distinctly from a
file that was never gzip at all.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from typing import IO, Iterator, List, Optional, Sequence

from repro.core.fingerprint import bucket_fits
from repro.durability.atomic import atomic_write, verify_manifest
from repro.durability.ingest import (
    DEFAULT_MAX_BAD_FRACTION,
    IngestStats,
    QuarantineWriter,
)
from repro.errors import (
    AnalysisError,
    IngestError,
    InvalidCurrencyError,
    MissingInputError,
    QuarantineOverflowError,
    ReproError,
    SchemaError,
)
from repro.ledger.accounts import AccountID
from repro.ledger.currency import Currency
from repro.synthetic.records import TransactionRecord

ARCHIVE_VERSION = 1

#: Manifest format tag written by :func:`dump_archive`.
ARCHIVE_FORMAT = f"repro-archive/{ARCHIVE_VERSION}"

#: Ripple epoch is 2000-01-01; archive timestamps are seconds after it.
_MIN_TIMESTAMP = 0
#: Timestamps land in int64 columns (the dataset, the fingerprint chunks).
_MAX_TIMESTAMP = 2**63 - 1


def _open_read(path: str) -> IO[str]:
    # errors="replace": a bit-flipped byte that breaks UTF-8 must surface
    # as a failed JSON parse on that line (typed, quarantinable), not as a
    # raw UnicodeDecodeError killing the stream.  Valid records are valid
    # UTF-8, so replacement never touches data that could have decoded.
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, "r", encoding="utf-8", errors="replace")


def record_to_json(record: TransactionRecord) -> dict:
    """Flatten one payment to its archive form."""
    return {
        "i": record.index,
        "t": record.timestamp,
        "s": record.sender.address,
        "d": record.destination.address,
        "c": record.currency,
        "a": record.amount,
        "x": record.is_xrp_direct,
        "cc": record.cross_currency,
        "h": record.intermediate_hops,
        "p": record.parallel_paths,
        "via": [account.address for account in record.intermediaries],
        "ok": record.delivered,
        "k": record.kind,
    }


#: field key -> (long name, required type check); the schema every line
#: must satisfy before it is trusted by any analysis.
_SCHEMA_FIELDS = {
    "i": "index",
    "t": "timestamp",
    "s": "sender",
    "d": "destination",
    "c": "currency",
    "a": "amount",
    "x": "is_xrp_direct",
    "cc": "cross_currency",
    "h": "intermediate_hops",
    "p": "parallel_paths",
    "via": "intermediaries",
    "ok": "delivered",
    "k": "kind",
}


def validate_payload(payload: dict) -> Optional[str]:
    """Schema-check one archive line; returns a rejection reason or None.

    Checks field presence, parseable types, and domain ranges: amounts
    must be finite, non-negative and small enough that their finest Table I
    bucket fits in int64, hop and path counts non-negative, the currency a
    valid 3-character code, the timestamp post-epoch and within int64, and
    the via list a list of strings.  A live-ingest event that
    passes is folded into the fingerprint indexes later, at the next
    read, so nothing that fold cannot take (an infinite amount, a
    timestamp past int64) may pass.
    """
    if not isinstance(payload, dict):
        return "schema:not-an-object"
    for key in _SCHEMA_FIELDS:
        if key not in payload:
            return f"schema:missing:{_SCHEMA_FIELDS[key]}"
    try:
        timestamp = int(payload["t"])
        amount = float(payload["a"])
        hops = int(payload["h"])
        paths = int(payload["p"])
        index = int(payload["i"])
    except (TypeError, ValueError, OverflowError):
        return "schema:type"
    if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:
        return "schema:timestamp"
    if not 0.0 <= amount < math.inf:  # also rejects NaN
        return "schema:amount"
    if hops < 0 or paths < 0 or index < 0:
        return "schema:counts"
    if not isinstance(payload["c"], str):
        return "schema:currency"
    try:
        currency = Currency(payload["c"])
    except InvalidCurrencyError:
        return "schema:currency"
    if not bucket_fits(amount, currency):
        return "schema:amount"
    via = payload["via"]
    if not isinstance(via, list) or not all(
        isinstance(address, str) for address in via
    ):
        return "schema:via"
    if not isinstance(payload["s"], str) or not isinstance(payload["d"], str):
        return "schema:address"
    return None


def record_from_json(payload: dict) -> TransactionRecord:
    """Rebuild a payment from its archive form (validates addresses)."""
    try:
        return TransactionRecord(
            index=int(payload["i"]),
            timestamp=int(payload["t"]),
            sender=AccountID.from_address(payload["s"]),
            destination=AccountID.from_address(payload["d"]),
            currency=str(payload["c"]),
            amount=float(payload["a"]),
            is_xrp_direct=bool(payload["x"]),
            cross_currency=bool(payload["cc"]),
            intermediate_hops=int(payload["h"]),
            parallel_paths=int(payload["p"]),
            intermediaries=tuple(
                AccountID.from_address(address) for address in payload["via"]
            ),
            delivered=bool(payload["ok"]),
            kind=str(payload["k"]),
        )
    except KeyError as exc:
        raise AnalysisError(f"archive line missing field {exc}") from None


def dump_archive(
    records: Sequence[TransactionRecord], path: str, manifest: bool = True
) -> int:
    """Write ``records`` to ``path`` (gzip when it ends in .gz), atomically.

    Returns the number of payments written.  The first line is a header
    carrying the format version and the record count, so a truncated
    download is detectable — the paper's client had the same problem at
    500 GB scale.  The write is staged and renamed into place (a crash
    never leaves a partial archive at ``path``) and, unless ``manifest``
    is off, sealed with a ``<path>.sha256`` sidecar that reads verify.
    Gzip members are written with a zeroed mtime, so identical records
    always produce identical bytes.
    """
    with atomic_write(path, mode="wb") as raw:
        if path.endswith(".gz"):
            stream = gzip.GzipFile(
                filename="", mode="wb", fileobj=raw, mtime=0
            )
        else:
            stream = raw

        def emit(line: str) -> None:
            stream.write(line.encode("utf-8"))

        emit(
            json.dumps({"version": ARCHIVE_VERSION, "records": len(records)})
            + "\n"
        )
        for record in records:
            emit(json.dumps(record_to_json(record)) + "\n")
        if stream is not raw:
            stream.close()
    if manifest:
        from repro.durability.atomic import write_manifest

        write_manifest(path, records=len(records), fmt=ARCHIVE_FORMAT)
    return len(records)


def _gzip_error(path: str, exc: Exception, started: bool) -> AnalysisError:
    """Classify a gzip failure: truncated stream vs not-gzip-at-all."""
    if isinstance(exc, EOFError) or (started and isinstance(exc, gzip.BadGzipFile)):
        return IngestError(
            f"archive {path}: gzip stream truncated mid-member "
            f"(incomplete download?): {exc}"
        )
    return AnalysisError(
        f"archive {path}: not a valid gzip file (bad magic/header): {exc}"
    )


def iter_archive(
    path: str,
    strict: bool = True,
    max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION,
    quarantine_path: Optional[str] = None,
    stats: Optional[IngestStats] = None,
) -> Iterator[TransactionRecord]:
    """Stream payments out of an archive (constant memory).

    A ``<path>.sha256`` sidecar manifest, when present, is verified before
    anything is parsed (:class:`~repro.errors.IntegrityError` on
    mismatch).  In ``strict`` mode (default) the first malformed or
    schema-invalid line raises :class:`SchemaError` with its 1-based line
    number.  In lenient mode bad lines are diverted — reason attached — to
    ``quarantine_path`` (default ``<path>.quarantine.jsonl``) until their
    fraction exceeds ``max_bad_fraction``, at which point the read aborts
    with :class:`QuarantineOverflowError`.  Pass an :class:`IngestStats`
    to receive read/quarantine tallies; they are also mirrored into
    :data:`repro.obs.metrics.METRICS` when profiling is on.
    """
    if not os.path.exists(path):
        raise MissingInputError(f"archive not found: {path}")
    verify_manifest(path)
    stats = stats if stats is not None else IngestStats()
    quarantine = (
        None if strict else QuarantineWriter(path, path=quarantine_path)
    )
    gz = path.endswith(".gz")
    try:
        handle = _open_read(path)
    except (OSError, EOFError) as exc:
        if gz and isinstance(exc, (gzip.BadGzipFile, EOFError)):
            raise _gzip_error(path, exc, started=False) from None
        raise AnalysisError(f"cannot open archive {path}: {exc}") from None
    try:
        try:
            header_line = handle.readline()
        except (EOFError, gzip.BadGzipFile, OSError) as exc:
            if gz:
                raise _gzip_error(path, exc, started=False) from None
            raise AnalysisError(f"unreadable archive {path}: {exc}") from None
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise SchemaError(
                "archive has no valid header line", line_number=1
            ) from None
        if not isinstance(header, dict) or header.get("version") != ARCHIVE_VERSION:
            version = header.get("version") if isinstance(header, dict) else header
            raise SchemaError(
                f"unsupported archive version {version!r}", line_number=1
            )
        expected = int(header.get("records", -1))
        base_total = stats.total  # caller may pass a cumulative stats object
        line_number = 1  # the header
        lines = iter(handle)
        while True:
            try:
                line = next(lines)
            except StopIteration:
                break
            except (EOFError, gzip.BadGzipFile, OSError) as exc:
                if gz and isinstance(exc, (EOFError, gzip.BadGzipFile)):
                    raise _gzip_error(path, exc, started=True) from None
                raise AnalysisError(f"unreadable archive {path}: {exc}") from None
            line_number += 1
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise SchemaError(
                        f"archive {path} line {line_number}: invalid JSON: "
                        f"{exc}",
                        line_number=line_number,
                    ) from None
                stats.record_bad("parse")
                quarantine.divert(line_number, "parse", str(exc), line)
                _check_overflow(path, stats, max_bad_fraction, quarantine)
                continue
            reason = validate_payload(payload)
            if reason is None:
                try:
                    record = record_from_json(payload)
                except (ReproError, ValueError, TypeError) as exc:
                    # e.g. InvalidAddressError from a bit-flipped address.
                    reason = f"decode:{type(exc).__name__}: {exc}"
            if reason is not None:
                if strict:
                    raise SchemaError(
                        f"archive {path} line {line_number}: {reason}",
                        line_number=line_number,
                    )
                stats.record_bad(reason)
                quarantine.divert(line_number, reason, reason, line)
                _check_overflow(path, stats, max_bad_fraction, quarantine)
                continue
            stats.record_ok()
            yield record
        seen = stats.total - base_total
        if expected >= 0 and seen != expected:
            raise AnalysisError(
                f"archive truncated: header says {expected} records, "
                f"read {seen}"
            )
    finally:
        handle.close()
        if quarantine is not None:
            quarantine.close()
        stats.mirror_to_metrics()


def _check_overflow(
    path: str,
    stats: IngestStats,
    max_bad_fraction: float,
    quarantine: QuarantineWriter,
) -> None:
    """Abort lenient ingest once the bad-line fraction exceeds the cap.

    The cap only engages after a minimum sample (100 lines), so one bad
    line at the top of a large file does not abort the whole read.
    """
    if stats.total >= 100 and stats.bad_fraction > max_bad_fraction:
        quarantine.close()
        raise QuarantineOverflowError(
            f"archive {path}: {stats.quarantined}/{stats.total} lines "
            f"({stats.bad_fraction:.1%}) failed validation — exceeds the "
            f"{max_bad_fraction:.1%} tolerance; see {quarantine.path}"
        )


def load_archive(
    path: str,
    strict: bool = True,
    max_bad_fraction: float = DEFAULT_MAX_BAD_FRACTION,
    stats: Optional[IngestStats] = None,
) -> List[TransactionRecord]:
    """Read a whole archive into memory."""
    return list(
        iter_archive(
            path,
            strict=strict,
            max_bad_fraction=max_bad_fraction,
            stats=stats,
        )
    )
