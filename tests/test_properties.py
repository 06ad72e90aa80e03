"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.accounts import AccountID, decode_account_id, encode_account_id
from repro.ledger.amounts import Amount
from repro.ledger.crypto import KeyPair, verify
from repro.ledger.currency import EUR, USD, Currency, strength_of
from repro.ledger.state import LedgerState
from repro.ledger.accounts import account_from_name
from repro.core.fingerprint import round_amount
from repro.core.resolution import (
    AmountResolution,
    TimeResolution,
    coarsen_timestamps,
    granularity_exponent,
)
from repro.payments.execution import Executor

# Strategy for ledger-precision currency values.
values = st.integers(min_value=1, max_value=10 ** 12).map(lambda v: v / 10 ** 6)
small_values = st.integers(min_value=1, max_value=10 ** 9).map(lambda v: v / 10 ** 6)


class TestBase58Properties:
    @given(st.binary(min_size=20, max_size=20))
    def test_address_roundtrip(self, raw):
        assert decode_account_id(encode_account_id(raw)) == raw

    @given(st.binary(min_size=20, max_size=20))
    def test_address_always_starts_with_r(self, raw):
        assert encode_account_id(raw).startswith("r")


class TestAmountProperties:
    @given(values, values)
    def test_addition_commutes(self, a, b):
        x = Amount.from_value(USD, a)
        y = Amount.from_value(USD, b)
        assert (x + y).to_float() == (y + x).to_float()

    @given(values, values)
    def test_add_then_subtract_is_identity(self, a, b):
        x = Amount.from_value(USD, a)
        y = Amount.from_value(USD, b)
        restored = (x + y) - y
        # 15 significant digits of precision.
        assert restored.to_float() == (
            np.float64(restored.to_float())
        )
        assert abs(restored.to_float() - x.to_float()) <= max(1e-9, x.to_float() * 1e-12)

    @given(values)
    def test_negation_involutive(self, a):
        x = Amount.from_value(USD, a)
        assert (-(-x)).mantissa == x.mantissa
        assert (-(-x)).exponent == x.exponent

    @given(values, st.integers(min_value=-3, max_value=7))
    def test_rounding_is_idempotent(self, a, exponent):
        x = Amount.from_value(USD, a)
        once = x.round_to(exponent)
        twice = once.round_to(exponent)
        assert once.to_float() == twice.to_float()

    @given(values, st.integers(min_value=-3, max_value=7))
    def test_rounding_error_bounded(self, a, exponent):
        x = Amount.from_value(USD, a)
        rounded = x.round_to(exponent)
        granularity = 10.0 ** exponent
        assert abs(rounded.to_float() - x.to_float()) <= granularity / 2 * (1 + 1e-9)

    @given(values, st.integers(min_value=-3, max_value=5))
    def test_rounded_is_multiple_of_granularity(self, a, exponent):
        rounded = Amount.from_value(USD, a).round_to(exponent)
        if not rounded.is_zero:
            scaled = rounded.to_float() / 10.0 ** exponent
            assert abs(scaled - round(scaled)) < 1e-6


class TestResolutionProperties:
    @given(values, st.sampled_from(["USD", "BTC", "XRP", "EUR", "CCK"]))
    def test_scalar_rounding_matches_granularity(self, value, code):
        currency = Currency(code)
        exponent = granularity_exponent(currency, AmountResolution.MAX)
        rounded = round_amount(value, currency, AmountResolution.MAX)
        scaled = rounded / 10.0 ** exponent
        assert abs(scaled - round(scaled)) < 1e-6

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1, max_size=50))
    def test_coarsening_monotone_nested(self, raw_times):
        times = np.array(raw_times, dtype=np.int64)
        minutes = coarsen_timestamps(times, TimeResolution.MINUTES)
        hours = coarsen_timestamps(times, TimeResolution.HOURS)
        days = coarsen_timestamps(times, TimeResolution.DAYS)
        # Coarser buckets never exceed finer ones, and nesting holds.
        assert (minutes <= times).all()
        assert (hours <= minutes).all()
        assert (days <= hours).all()
        # Same-bucket at fine resolution implies same-bucket at coarse.
        for fine, coarse in ((minutes, hours), (hours, days)):
            for i in range(len(times)):
                for j in range(len(times)):
                    if fine[i] == fine[j]:
                        assert coarse[i] == coarse[j]

    @given(st.sampled_from(["USD", "BTC", "XRP", "EUR", "JPY", "CCK", "MTL", "ZZZ"]))
    def test_every_currency_has_total_strength(self, code):
        # strength_of must be total over the open code space.
        assert strength_of(Currency(code)) is not None


class TestCryptoProperties:
    @settings(max_examples=10, deadline=None)  # modular exponentiation is slow
    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=1, max_size=16))
    def test_sign_verify_roundtrip(self, message, seed):
        keypair = KeyPair.from_seed(seed)
        assert verify(keypair.public, message, keypair.sign(message))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=32))
    def test_cross_message_never_verifies(self, m1, m2):
        if m1 == m2:
            return
        keypair = KeyPair.from_seed(b"prop")
        assert not verify(keypair.public, m2, keypair.sign(m1))


class TestExecutorProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_values, min_size=1, max_size=8))
    def test_rollback_restores_exact_balances(self, amounts):
        state = LedgerState()
        a = account_from_name("prop-a")
        b = account_from_name("prop-b")
        state.create_account(a, 10 ** 12)
        state.create_account(b, 10 ** 12)
        state.set_trust(b, a, Amount.from_value(USD, 10 ** 7))
        state.set_trust(a, b, Amount.from_value(USD, 10 ** 7))
        executor = Executor(state)
        for index, value in enumerate(amounts):
            if index % 2 == 0:
                executor.hop(a, b, Amount.from_value(USD, value))
            else:
                executor.xrp(a, b, int(value * 10 ** 6) + 1)
        executor.rollback()
        assert state.iou_balance(a, USD).is_zero
        assert state.iou_balance(b, USD).is_zero
        assert state.xrp_balance(a) == 10 ** 12
        assert state.xrp_balance(b) == 10 ** 12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_values, min_size=1, max_size=8))
    def test_hops_conserve_value(self, amounts):
        # A hop moves value: sender position falls, receiver rises, total 0.
        state = LedgerState()
        a = account_from_name("cons-a")
        b = account_from_name("cons-b")
        state.create_account(a, 10 ** 12)
        state.create_account(b, 10 ** 12)
        state.set_trust(b, a, Amount.from_value(USD, 10 ** 7))
        for value in amounts:
            state.apply_hop(a, b, Amount.from_value(USD, value))
        total = (
            state.iou_balance(a, USD).to_float()
            + state.iou_balance(b, USD).to_float()
        )
        assert abs(total) < 1e-6


class TestConsensusProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=4, max_value=10))
    def test_agreement_and_validity(self, seed, n_validators):
        """RPCA safety: when a round validates, the agreed set is a subset
        of the proposed pool, and all in-sync validators signed the same
        page."""
        from repro.consensus.engine import ConsensusEngine
        from repro.consensus.faults import active
        from repro.consensus.unl import UNL
        from repro.consensus.validator import Validator

        names = [f"v{i}" for i in range(n_validators)]
        unl = UNL.of(names)
        validators = [Validator(n, unl, active(availability=1.0)) for n in names]
        engine = ConsensusEngine(validators, master_unl=unl, seed=seed, keep_outcomes=True)
        report = engine.run(5)
        for outcome in report.outcomes:
            if not outcome.validated:
                continue
            votes = [
                v for v in outcome.validations if v.page_hash == outcome.validated_hash
            ]
            assert len(votes) >= unl.quorum_size(0.8)
            assert len(set(v.validator for v in votes)) == len(votes)


class TestConsensusFaultMixProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.integers(min_value=5, max_value=9),   # active
        st.integers(min_value=0, max_value=3),   # lagging
        st.integers(min_value=0, max_value=3),   # forked
        st.integers(min_value=0, max_value=2),   # byzantine
    )
    def test_accounting_invariants_under_random_faults(
        self, seed, n_active, n_lagging, n_forked, n_byzantine
    ):
        """Whatever the fault mix: valid <= total per validator, forked
        validators never produce valid pages, and availability is a valid
        fraction."""
        from repro.consensus.engine import ConsensusEngine
        from repro.consensus.faults import active, byzantine, forked, lagging
        from repro.consensus.unl import UNL
        from repro.consensus.validator import Validator

        names = [f"a{i}" for i in range(n_active)]
        unl = UNL.of(names)
        validators = [Validator(n, unl, active(availability=0.95)) for n in names]
        for i in range(n_lagging):
            validators.append(Validator(f"lag{i}", unl, lagging()))
        for i in range(n_forked):
            validators.append(
                Validator(f"fork{i}", UNL.of([f"fork{i}"]), forked(network_id=1))
            )
        for i in range(n_byzantine):
            validators.append(Validator(f"byz{i}", unl, byzantine()))
        engine = ConsensusEngine(validators, master_unl=unl, seed=seed)
        report = engine.run(25)

        assert 0.0 <= report.availability <= 1.0
        for stats in report.stats.values():
            assert 0 <= stats.valid_pages <= stats.total_pages
        for i in range(n_forked):
            assert report.stats[f"fork{i}"].valid_pages == 0
        # Main-chain hashes are unique (no two rounds validate one page).
        assert len(set(report.main_chain_hashes)) == len(report.main_chain_hashes)
