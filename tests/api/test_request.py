"""The typed ArtifactRequest: construction, canonicalization, fingerprints."""

from __future__ import annotations

import argparse

import pytest

from repro.api.request import (
    ArtifactRequest,
    CANONICAL_OPTION_DEFAULTS,
    OPTION_KEYS,
    RequestError,
)
from repro.errors import AnalysisError
from repro.obs.manifest import request_fingerprint

#: The frozen identity of ``fig3 --seed 7 --payments 4000``.  This pin is
#: the serve cache's compatibility contract: changing how requests
#: canonicalize or hash invalidates every existing cache entry, so it
#: must be a deliberate, versioned decision (bump
#: ``FINGERPRINT_SCHEMA_VERSION``), not an accident.
PINNED_FIG3 = "adc00f24885ed14a1532dbde8c912b402a5d79f3799f95e9f7b1d6e33032831b"

#: ``cascade --seed 7 --payments 4000 --kind gateway-default --waves 3
#: --pairs 50 --amount 25`` and ``health --seed 7 --payments 4000
#: --pairs 120 --amount 10`` — the same contract for the new options.
PINNED_CASCADE = (
    "21e8ff1603621f96eb6984b2dc58aee364c484d43a862a2ce2de96c932b476a4"
)
PINNED_HEALTH = (
    "aeb46d1462ac0a1d6baf7a6131ef23794648f09243b3e6774f6f956b18c5fcdf"
)


class TestConstruction:
    def test_defaults_match_cli_defaults(self):
        request = ArtifactRequest(name="fig3")
        assert request.seed == 20170652
        assert request.scale == 600
        assert request.payments == 12_000
        assert request.jobs is None and not request.trace

    def test_name_required(self):
        with pytest.raises(RequestError, match="artifact name"):
            ArtifactRequest(name="")

    def test_unknown_option_rejected(self):
        with pytest.raises(RequestError, match="unknown option"):
            ArtifactRequest(name="fig3", options={"bogus": 1})

    def test_options_read_as_attributes(self):
        request = ArtifactRequest(name="fig4", options={"top": 5})
        assert request.top == 5
        assert getattr(request, "period", None) is None
        assert request.option("top") == 5
        assert request.option("period", "x") == "x"

    def test_frozen_and_hashable(self):
        request = ArtifactRequest(name="fig3")
        with pytest.raises(AttributeError):
            request.seed = 1  # type: ignore[misc]
        assert hash(request) == hash(ArtifactRequest(name="fig3"))

    def test_type_validation(self):
        with pytest.raises(RequestError, match="seed"):
            ArtifactRequest(name="fig3", seed="7")  # type: ignore[arg-type]
        with pytest.raises(RequestError, match="jobs"):
            ArtifactRequest(name="fig3", jobs="4")  # type: ignore[arg-type]
        for scale in (0, -3):
            with pytest.raises(RequestError, match="scale"):
                ArtifactRequest(name="fig2", scale=scale)
        for payments in (0, -5):
            with pytest.raises(RequestError, match="payments"):
                ArtifactRequest(name="fig3", payments=payments)
        bad_options = [
            ("fig4", "top", 0), ("fig4", "top", -2), ("fig7", "top", 0),
            ("health", "pairs", 0), ("health", "pairs", -3),
            ("cascade", "waves", 0), ("fork_threshold", "rounds", 0),
            ("fork_threshold", "rounds", -4), ("chaos", "rounds", 0),
            ("chaos", "rounds", 40.0), ("health", "pairs", True),
            ("health", "amount", -5.0), ("health", "amount", 0),
            ("health", "amount", float("nan")),
            ("health", "amount", float("inf")), ("health", "amount", "10"),
        ]
        for name, key, value in bad_options:
            with pytest.raises(RequestError, match=key):
                ArtifactRequest(name=name, options={key: value})
            # The serve wire shape goes through the same check.
            with pytest.raises(RequestError, match=key):
                ArtifactRequest.from_dict({"artifact": name, key: value})
        # jobs keeps its deliberate clamp (effective_jobs(jobs=0) == 1).
        assert ArtifactRequest(name="fig3", jobs=0).jobs == 0

    def test_cli_rejects_out_of_range_options(self, capsys):
        from repro.cli import main

        for argv in (
            ["fig3", "--payments", "0"],
            ["fig4", "--top", "-2"],
            ["health", "--amount", "nan"],
        ):
            assert main(argv) == 2
            assert argv[1].lstrip("-") in capsys.readouterr().err


class TestFromNamespace:
    def test_cli_namespace_round_trip(self):
        args = argparse.Namespace(
            command="fig4", seed=7, scale=600, payments=4000, archive=None,
            jobs=2, quarantine=False, trace=None, top=5,
        )
        request = ArtifactRequest.from_namespace(args)
        assert request.name == "fig4"
        assert request.seed == 7 and request.jobs == 2
        assert request.top == 5 and not request.trace

    def test_artifact_subcommand_name_wins(self):
        args = argparse.Namespace(command="artifact", name="fig3", seed=1)
        assert ArtifactRequest.from_namespace(args).name == "fig3"

    def test_of_lifts_namespace_and_passes_requests_through(self):
        request = ArtifactRequest(name="fig3")
        assert ArtifactRequest.of(request) is request
        lifted = ArtifactRequest.of(argparse.Namespace(seed=3), name="fig3")
        assert lifted == ArtifactRequest(name="fig3", seed=3)


class TestFromDict:
    def test_json_body_shape(self):
        request = ArtifactRequest.from_dict(
            {"artifact": "chaos", "seed": 3, "plan": "delay", "rounds": 40}
        )
        assert request.name == "chaos"
        assert request.plan == "delay" and request.rounds == 40

    def test_name_alias_accepted(self):
        assert ArtifactRequest.from_dict({"name": "fig3"}).name == "fig3"

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request field"):
            ArtifactRequest.from_dict({"artifact": "fig3", "sede": 7})

    def test_to_dict_round_trips(self):
        request = ArtifactRequest(
            name="fig2", seed=9, options={"period": "jul2016"}
        )
        assert ArtifactRequest.from_dict(request.to_dict()) == request


class TestCanonicalization:
    """Flag order and explicit-vs-default must not change identity."""

    def test_explicit_defaults_equal_omitted(self):
        explicit = ArtifactRequest(
            name="fig3", seed=20170652, scale=600, payments=12_000,
        )
        assert explicit == ArtifactRequest(name="fig3")
        assert request_fingerprint(explicit) == request_fingerprint(
            ArtifactRequest(name="fig3")
        )

    def test_option_order_is_canonical(self):
        a = ArtifactRequest(name="chaos", options=(("rounds", 40), ("plan", "delay")))
        b = ArtifactRequest(name="chaos", options=(("plan", "delay"), ("rounds", 40)))
        assert a == b and a.options == b.options

    def test_default_valued_options_drop_out(self):
        explicit = ArtifactRequest(
            name="chaos", seed=1, options={"plan": "partition", "rounds": 240}
        )
        omitted = ArtifactRequest(name="chaos", seed=1)
        assert request_fingerprint(explicit) == request_fingerprint(omitted)

    def test_execution_strategy_does_not_change_identity(self):
        base = ArtifactRequest(name="fig3", seed=7, payments=4000)
        for variant in (
            base.replace(jobs=4),
            base.replace(trace=True),
        ):
            assert request_fingerprint(variant) == request_fingerprint(base)

    def test_semantic_fields_do_change_identity(self):
        base = ArtifactRequest(name="fig3", seed=7, payments=4000)
        for variant in (
            base.replace(seed=8),
            base.replace(payments=4001),
            base.replace(scale=500),
            base.replace(quarantine=True),
            ArtifactRequest(name="fig5", seed=7, payments=4000),
        ):
            assert request_fingerprint(variant) != request_fingerprint(base)

    def test_every_option_key_has_a_canonical_default(self):
        assert set(CANONICAL_OPTION_DEFAULTS) == set(OPTION_KEYS)


class TestFingerprintRegression:
    def test_pinned_fingerprint(self):
        request = ArtifactRequest(name="fig3", seed=7, payments=4000)
        assert request_fingerprint(request) == PINNED_FIG3
        assert request.fingerprint() == PINNED_FIG3

    def test_pinned_fingerprint_via_cli_namespace(self):
        args = argparse.Namespace(
            command="fig3", seed=7, scale=600, payments=4000, archive=None,
            jobs=4, quarantine=False, trace="auto",
        )
        request = ArtifactRequest.from_namespace(args)
        assert request_fingerprint(request) == PINNED_FIG3

    def test_pinned_cascade_fingerprint(self):
        request = ArtifactRequest(
            name="cascade", seed=7, payments=4000,
            options={
                "kind": "gateway-default", "waves": 3,
                "pairs": 50, "amount": 25.0,
            },
        )
        assert request_fingerprint(request) == PINNED_CASCADE

    def test_pinned_health_fingerprint(self):
        request = ArtifactRequest(
            name="health", seed=7, payments=4000,
            options={"pairs": 120, "amount": 10.0},
        )
        assert request_fingerprint(request) == PINNED_HEALTH


class TestHealthCascadeCanonicalization:
    """CLI and JSON spellings of the new options fingerprint alike."""

    def test_cli_float_equals_json_int_amount(self):
        # argparse parses --amount 10 as the float 10.0; a JSON body says
        # the integer 10.  Same request, same fingerprint.
        cli = ArtifactRequest(
            name="health", seed=7, payments=4000,
            options={"pairs": 120, "amount": 10.0},
        )
        body = ArtifactRequest.from_dict(
            {"artifact": "health", "seed": 7, "payments": 4000,
             "pairs": 120, "amount": 10}
        )
        assert request_fingerprint(cli) == request_fingerprint(body)
        assert request_fingerprint(cli) == PINNED_HEALTH

    def test_explicit_default_kind_drops_out(self):
        # The fig4 --top rule: an explicit default must not fork the
        # fingerprint from an omitted flag.
        explicit = ArtifactRequest(
            name="cascade", seed=7, options={"kind": "outage"}
        )
        omitted = ArtifactRequest(name="cascade", seed=7)
        assert request_fingerprint(explicit) == request_fingerprint(omitted)

    def test_cascade_options_change_identity(self):
        base = ArtifactRequest(name="cascade", seed=7, payments=4000)
        for options in (
            {"kind": "unwind"},
            {"waves": 8},
            {"pairs": 40},
            {"amount": 2.5},
        ):
            variant = base.replace(options=options)
            assert request_fingerprint(variant) != request_fingerprint(base)

    def test_fractional_amount_stays_float(self):
        request = ArtifactRequest(
            name="health", options={"amount": 2.5}
        )
        assert request.canonical_options() == {"amount": 2.5}


class TestArchiveInputs:
    def test_archive_content_keys_identity_not_path(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b" / "c.jsonl"
        second.parent.mkdir()
        first.write_text('{"x": 1}\n')
        second.write_text('{"x": 1}\n')
        one = ArtifactRequest(name="fig3", archive=str(first))
        two = ArtifactRequest(name="fig3", archive=str(second))
        assert request_fingerprint(one) == request_fingerprint(two)
        second.write_text('{"x": 2}\n')
        assert request_fingerprint(one) != request_fingerprint(two)

    def test_missing_archive_fails_before_compute(self, tmp_path):
        request = ArtifactRequest(
            name="fig3", archive=str(tmp_path / "nope.jsonl.gz")
        )
        with pytest.raises(AnalysisError, match="archive not found"):
            request_fingerprint(request)
