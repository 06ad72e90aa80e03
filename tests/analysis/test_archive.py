"""Tests for ledger-archive dump/load, including the corruption matrix."""

import gzip
import json
import os

import pytest

from repro.analysis.archive import (
    dump_archive,
    iter_archive,
    load_archive,
    record_from_json,
    record_to_json,
    validate_payload,
)
from repro.analysis.dataset import TransactionDataset
from repro.durability import IngestStats
from repro.errors import (
    AnalysisError,
    IngestError,
    IntegrityError,
    QuarantineOverflowError,
)


class TestRoundtrip:
    def test_record_json_roundtrip(self, history):
        record = history.records[0]
        assert record_from_json(record_to_json(record)) == record

    def test_plain_file_roundtrip(self, history, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        subset = history.records[:200]
        assert dump_archive(subset, path) == 200
        assert load_archive(path) == subset

    def test_gzip_roundtrip(self, history, tmp_path):
        path = str(tmp_path / "ledger.jsonl.gz")
        subset = history.records[:150]
        dump_archive(subset, path)
        assert load_archive(path) == subset
        # It really is gzip on disk.
        with gzip.open(path, "rt") as handle:
            header = json.loads(handle.readline())
        assert header["records"] == 150

    def test_streaming_is_lazy(self, history, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        dump_archive(history.records[:50], path)
        iterator = iter_archive(path)
        first = next(iterator)
        assert first == history.records[0]

    def test_dataset_from_archive_matches(self, history, tmp_path):
        path = str(tmp_path / "ledger.jsonl.gz")
        dump_archive(history.records, path)
        restored = TransactionDataset.from_records(load_archive(path))
        original = TransactionDataset.from_records(history.records)
        assert len(restored) == len(original)
        assert (restored.amounts == original.amounts).all()
        assert (restored.timestamps == original.timestamps).all()


class TestFailureModes:
    def test_missing_file(self):
        with pytest.raises(AnalysisError):
            list(iter_archive("/nonexistent/ledger.jsonl"))

    def test_truncated_archive_detected(self, history, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        dump_archive(history.records[:30], path)
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-5])  # chop off the tail
        with pytest.raises(AnalysisError, match="truncated"):
            list(iter_archive(path))

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
        with pytest.raises(AnalysisError):
            list(iter_archive(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = str(tmp_path / "v99.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"version": 99, "records": 0}) + "\n")
        with pytest.raises(AnalysisError, match="version"):
            list(iter_archive(path))

    def test_missing_field_rejected(self):
        with pytest.raises(AnalysisError):
            record_from_json({"i": 1})


def _mangle_line(path, line_index, mutate):
    """Apply ``mutate`` to one line of a plain-text archive, in place.

    Written with a bare ``open`` on purpose: corruption bypasses the
    atomic-write path, which is exactly the scenario under test.  The
    manifest sidecar is removed so the line-level checks are exercised
    (manifest verification has its own tests).
    """
    lines = open(path).readlines()
    lines[line_index] = mutate(lines[line_index])
    with open(path, "w") as handle:
        handle.writelines(lines)
    try:
        os.remove(path + ".sha256")
    except OSError:
        pass


def _archive(history, tmp_path, n=120, gz=False):
    name = "ledger.jsonl.gz" if gz else "ledger.jsonl"
    path = str(tmp_path / name)
    dump_archive(history.records[:n], path)
    return path


class TestManifestOnRead:
    def test_dump_writes_sidecar_and_load_verifies(self, history, tmp_path):
        path = _archive(history, tmp_path)
        assert os.path.exists(path + ".sha256")
        manifest = json.load(open(path + ".sha256"))
        assert manifest["records"] == 120
        assert load_archive(path) == history.records[:120]

    def test_wrong_manifest_hash_rejected(self, history, tmp_path):
        path = _archive(history, tmp_path)
        manifest = json.load(open(path + ".sha256"))
        manifest["sha256"] = "f" * 64
        del manifest["bytes"]  # force the hash check, not the size check
        with open(path + ".sha256", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(IntegrityError, match="sha256 mismatch"):
            load_archive(path)

    def test_post_write_corruption_caught_before_parsing(self, history, tmp_path):
        path = _archive(history, tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(IntegrityError):
            load_archive(path)


class TestStrictIngest:
    def test_bad_json_line_is_typed_with_line_number(self, history, tmp_path):
        path = _archive(history, tmp_path)
        _mangle_line(path, 5, lambda line: line[:10] + "\x00garbage\n")
        with pytest.raises(IngestError, match="line 6") as excinfo:
            load_archive(path)
        assert excinfo.value.line_number == 6

    def test_missing_field_is_typed_with_line_number(self, history, tmp_path):
        path = _archive(history, tmp_path)

        def drop_amount(line):
            payload = json.loads(line)
            del payload["a"]
            return json.dumps(payload) + "\n"

        _mangle_line(path, 3, drop_amount)
        with pytest.raises(IngestError, match="line 4.*missing:amount"):
            load_archive(path)

    def test_negative_amount_rejected(self, history, tmp_path):
        path = _archive(history, tmp_path)

        def negate(line):
            payload = json.loads(line)
            payload["a"] = -3.5
            return json.dumps(payload) + "\n"

        _mangle_line(path, 7, negate)
        with pytest.raises(IngestError, match="schema:amount"):
            load_archive(path)

    def test_pre_epoch_timestamp_rejected(self, history, tmp_path):
        path = _archive(history, tmp_path)

        def backdate(line):
            payload = json.loads(line)
            payload["t"] = -1
            return json.dumps(payload) + "\n"

        _mangle_line(path, 2, backdate)
        with pytest.raises(IngestError, match="schema:timestamp"):
            load_archive(path)

    def test_bit_flipped_address_rejected(self, history, tmp_path):
        path = _archive(history, tmp_path)

        def flip(line):
            payload = json.loads(line)
            payload["s"] = "r" + "Q" * 30
            return json.dumps(payload) + "\n"

        _mangle_line(path, 4, flip)
        with pytest.raises(IngestError, match="decode:"):
            load_archive(path)

    def test_truncated_gzip_reported_distinctly(self, history, tmp_path):
        path = _archive(history, tmp_path, gz=True)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        os.remove(path + ".sha256")
        with pytest.raises(AnalysisError, match="gzip stream truncated"):
            load_archive(path)

    def test_not_gzip_at_all_reported_distinctly(self, history, tmp_path):
        path = str(tmp_path / "fake.jsonl.gz")
        with open(path, "wb") as handle:
            handle.write(b"this was never gzip data at all\n")
        with pytest.raises(AnalysisError, match="not a valid gzip"):
            load_archive(path)


class TestLenientIngest:
    def test_bad_lines_quarantined_with_reason(self, history, tmp_path):
        path = _archive(history, tmp_path)
        _mangle_line(path, 5, lambda line: "not json at all\n")

        def negate(line):
            payload = json.loads(line)
            payload["a"] = -1.0
            return json.dumps(payload) + "\n"

        _mangle_line(path, 9, negate)
        stats = IngestStats()
        records = load_archive(path, strict=False, stats=stats)
        assert len(records) == 118
        assert stats.read == 118
        assert stats.quarantined == 2
        assert stats.reasons == {"parse": 1, "schema:amount": 1}
        entries = [
            json.loads(line)
            for line in open(path + ".quarantine.jsonl")
        ]
        assert [entry["line"] for entry in entries] == [6, 10]
        assert entries[0]["reason"] == "parse"
        assert entries[1]["reason"] == "schema:amount"
        assert "raw" in entries[0]

    def test_clean_archive_leaves_no_quarantine_file(self, history, tmp_path):
        path = _archive(history, tmp_path)
        stats = IngestStats()
        load_archive(path, strict=False, stats=stats)
        assert stats.quarantined == 0
        assert not os.path.exists(path + ".quarantine.jsonl")

    def test_bad_fraction_cap_aborts(self, history, tmp_path):
        path = _archive(history, tmp_path, n=200)
        lines = open(path).readlines()
        # Wreck every fourth data line: 25% bad ≫ the 1% default cap.
        for index in range(1, len(lines), 4):
            lines[index] = "garbage\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        os.remove(path + ".sha256")
        with pytest.raises(QuarantineOverflowError, match="tolerance"):
            load_archive(path, strict=False)

    def test_loose_cap_tolerates_more(self, history, tmp_path):
        path = _archive(history, tmp_path, n=200)
        lines = open(path).readlines()
        for index in range(1, len(lines), 4):
            lines[index] = "garbage\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        os.remove(path + ".sha256")
        stats = IngestStats()
        records = load_archive(
            path, strict=False, max_bad_fraction=0.5, stats=stats
        )
        assert len(records) == 150
        assert stats.quarantined == 50

    def test_header_truncation_still_detected_in_lenient_mode(
        self, history, tmp_path
    ):
        path = _archive(history, tmp_path)
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-10])
        os.remove(path + ".sha256")
        with pytest.raises(AnalysisError, match="truncated"):
            load_archive(path, strict=False)


class TestValidatePayload:
    def test_accepts_real_records(self, history):
        for record in history.records[:50]:
            assert validate_payload(record_to_json(record)) is None

    @pytest.mark.parametrize("mutation,reason", [
        ({"a": float("nan")}, "schema:amount"),
        ({"h": -1}, "schema:counts"),
        ({"p": -2}, "schema:counts"),
        ({"c": "TOOLONG"}, "schema:currency"),
        ({"c": 12}, "schema:currency"),
        ({"t": "not-a-number"}, "schema:type"),
        ({"via": "rabc"}, "schema:via"),
        ({"s": 5}, "schema:address"),
        ({"a": float("inf")}, "schema:amount"),
        ({"t": 2**63}, "schema:timestamp"),
        ({"h": 1e400}, "schema:type"),
        # BTC buckets at 10^-3: 1e17 BTC is bucket 1e20, past int64.
        ({"c": "BTC", "a": 1e17}, "schema:amount"),
        ({"c": "BTC", "a": 2e17}, "schema:amount"),
        # The fold builds a Currency from the code; lower case cannot.
        ({"c": "usd"}, "schema:currency"),
        # Three items, but not a string: Currency must never see it.
        ({"c": ["U", "S", "D"]}, "schema:currency"),
        ({"c": {"U": 1, "S": 2, "D": 3}}, "schema:currency"),
    ])
    def test_rejects_mutations(self, history, mutation, reason):
        payload = record_to_json(history.records[0])
        payload.update(mutation)
        assert validate_payload(payload) == reason

    def test_huge_amount_fits_a_coarse_currency(self, history):
        # XRP buckets at 10^5, so 1e17 XRP is bucket 1e12: accepted.
        payload = record_to_json(history.records[0])
        payload.update({"c": "XRP", "a": 1e17})
        assert validate_payload(payload) is None

    def test_rejects_non_objects(self):
        assert validate_payload([1, 2]) == "schema:not-an-object"
