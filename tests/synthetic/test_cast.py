"""The cast is built in bulk; these tests hold it to the per-line build.

``build_cast`` opens every trust line with its balance in one
``LedgerState.open_line`` step, shares one ``Amount`` per distinct value
across lines, and serves ``Cast.gateways_for`` from an index.  The
reference below is the construction it replaced, kept whole: ``set_trust``
plus a deposit ``apply_hop`` per line, fresh amounts for each, and a scan
of every gateway per ``gateways_for`` call.
"""

import copy

import numpy as np
import pytest

from repro.ledger.accounts import ACCOUNT_ZERO, account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency, eur_value
from repro.ledger.state import LedgerState
from repro.synthetic.actors import (
    GATEWAY_CATALOG,
    HUB_ACTIVATOR,
    HUB_CCK_LIMIT,
    HUB_NAMES,
    HUB_PEER_LIMIT,
    INFRA_LIMIT,
    MAKER_DEPOSIT_EUR,
    MTL_ATTACKER,
    MTL_SINK,
    RIPPLE_SPIN,
    Cast,
    Gateway,
    MarketMaker,
    User,
    _mint,
    build_cast,
)
from repro.synthetic.config import EconomyConfig, small_config

CONFIGS = {
    "default-1": EconomyConfig(seed=1),
    "default-23": EconomyConfig(seed=23),
    "small-7": small_config(seed=7),
    "small-11": small_config(seed=11),
}


def _gateways_for_scan(cast, currency):
    return [
        index
        for index, gateway in enumerate(cast.gateways)
        if currency in gateway.currencies
    ]


def _build_cast_stepwise(config, state, rng, currencies):
    """``build_cast`` as it was: set_trust, a deposit hop, a gateway scan."""
    cast = Cast()
    drops = config.activation_drops

    state.create_account(ACCOUNT_ZERO, 10 ** 11 * 10 ** 6)
    cast.special["account_zero"] = ACCOUNT_ZERO
    cast.labels[ACCOUNT_ZERO] = "ACCOUNT_ZERO"

    catalog = list(GATEWAY_CATALOG)
    while len(catalog) < config.n_gateways:
        catalog.append((f"Gateway-{len(catalog)}", ("USD",)))
    tail = [c for c in currencies if c.code not in ("XRP",)]
    for index in range(config.n_gateways):
        name, codes = catalog[index % len(catalog)]
        if index >= len(GATEWAY_CATALOG):
            name = f"{name}#{index}"
        issued = [Currency(code) for code in codes]
        account = _mint(cast, state, name, drops * 10)
        state.account(account).is_gateway = True
        cast.gateways.append(Gateway(account=account, name=name, currencies=tuple(issued)))
    majors = {"XRP", "BTC", "USD", "EUR", "CNY", "JPY", "CCK", "MTL"}
    tail_adoptions = []
    for offset, currency in enumerate(c for c in tail if c.code not in majors):
        first = offset % len(cast.gateways)
        second = (offset + 1 + offset // len(cast.gateways)) % len(cast.gateways)
        if second == first:
            second = (first + 1) % len(cast.gateways)
        for gateway_index in (first, second):
            gateway = cast.gateways[gateway_index]
            gateway.currencies = gateway.currencies + (currency,)
        tail_adoptions.append((currency, (first, second)))

    major_codes = {"BTC", "USD", "EUR", "CNY", "JPY"}
    for index, gateway in enumerate(cast.gateways[:3]):
        peer = cast.gateways[(index + 1) % len(cast.gateways)]
        shared = set(gateway.currencies) & set(peer.currencies)
        for currency in shared:
            if currency.code not in major_codes:
                continue
            state.set_trust(
                gateway.account, peer.account, Amount.from_value(currency, 5e5)
            )

    activator = _mint(cast, state, HUB_ACTIVATOR, drops * 5)
    cast.special["akhavr"] = activator
    cck = Currency("CCK")
    for hub_name in HUB_NAMES:
        hub = _mint(cast, state, hub_name, drops * 20)
        cast.hubs.append(hub)
        for gateway in cast.gateways[:4]:
            btc = Currency("BTC")
            if btc in gateway.currencies:
                state.set_trust(hub, gateway.account, Amount.from_value(btc, 1e4))
                state.apply_hop(gateway.account, hub, Amount.from_value(btc, 2e3))

    maker_drops = 10 ** 8 * 10 ** 6
    major_ious = [Currency(code) for code in ("BTC", "USD", "CNY", "JPY", "EUR")]
    for index in range(config.n_market_makers):
        name = f"maker-{index:03d}"
        account = _mint(cast, state, name, maker_drops)
        state.account(account).is_market_maker = True
        count = int(rng.integers(2, len(major_ious) + 1))
        picks = rng.choice(len(major_ious), size=count, replace=False)
        traded = tuple(major_ious[i] for i in sorted(picks))
        cast.market_makers.append(
            MarketMaker(account=account, name=name, currencies=traded)
        )
        for currency in traded:
            deposit = MAKER_DEPOSIT_EUR / eur_value(currency)
            for gateway_index in _gateways_for_scan(cast, currency):
                gateway = cast.gateways[gateway_index]
                state.set_trust(
                    account, gateway.account, Amount.from_value(currency, deposit * 10)
                )
                state.apply_hop(
                    gateway.account, account, Amount.from_value(currency, deposit)
                )

    for offset, (currency, gateway_indices) in enumerate(tail_adoptions):
        for maker_offset in range(3):
            maker = cast.market_makers[
                (offset * 3 + maker_offset) % len(cast.market_makers)
            ]
            for gateway_index in gateway_indices:
                gateway = cast.gateways[gateway_index]
                line = state.trust_line(maker.account, gateway.account, currency)
                if line is None:
                    deposit = MAKER_DEPOSIT_EUR / eur_value(currency)
                    state.set_trust(
                        maker.account,
                        gateway.account,
                        Amount.from_value(currency, deposit * 10),
                    )
                    state.apply_hop(
                        gateway.account, maker.account, Amount.from_value(currency, deposit)
                    )

    activity = 1.0 / np.arange(1, config.n_users + 1) ** 0.8
    activity = activity / activity.sum()
    order = rng.permutation(config.n_users)
    for index in range(config.n_users):
        name = f"user-{index:04d}"
        account = _mint(cast, state, name, drops)
        seat_count = int(rng.integers(1, 4))
        seats = []
        for _ in range(seat_count):
            gateway_index = int(rng.integers(0, len(cast.gateways)))
            gateway = cast.gateways[gateway_index]
            currency = gateway.currencies[int(rng.integers(0, len(gateway.currencies)))]
            if (gateway_index, currency) in seats:
                continue
            seats.append((gateway_index, currency))
            state.set_trust(
                account, gateway.account, Amount.from_value(currency, 1e6)
            )
        hub = cast.hubs[index % len(cast.hubs)]
        state.set_trust(account, hub, Amount.from_value(cck, 1e5))
        state.set_trust(hub, account, Amount.from_value(cck, HUB_CCK_LIMIT))
        state.account(account).allows_rippling = False
        cast.users.append(
            User(
                account=account,
                name=name,
                seats=tuple(seats),
                activity=float(activity[order[index]]),
            )
        )

    if len(cast.hubs) >= 2:
        first, second = cast.hubs[0], cast.hubs[1]
        state.set_trust(first, second, Amount.from_value(cck, HUB_PEER_LIMIT))
        state.set_trust(second, first, Amount.from_value(cck, HUB_PEER_LIMIT))

    spin = _mint(cast, state, RIPPLE_SPIN, drops)
    cast.special["ripple_spin"] = spin

    mtl = Currency("MTL")
    attacker = _mint(cast, state, MTL_ATTACKER, drops * 100)
    sink = _mint(cast, state, MTL_SINK, drops)
    cast.special["mtl_attacker"] = attacker
    cast.special["mtl_sink"] = sink
    for path_index in range(config.mtl_spam_parallel_paths):
        chain = []
        previous = attacker
        for hop_index in range(config.mtl_spam_hops):
            node = _mint(cast, state, f"mtl-relay-{path_index}-{hop_index}", drops)
            state.set_trust(node, previous, Amount.from_value(mtl, INFRA_LIMIT))
            chain.append(node)
            previous = node
        state.set_trust(sink, previous, Amount.from_value(mtl, INFRA_LIMIT))
        cast.mtl_chains.append(chain)

    previous = attacker
    for hop_index in range(44):
        node = _mint(cast, state, f"mtl-long-{hop_index}", drops)
        state.set_trust(node, previous, Amount.from_value(mtl, INFRA_LIMIT))
        cast.long_chain.append(node)
        previous = node
    state.set_trust(sink, previous, Amount.from_value(mtl, INFRA_LIMIT))

    return cast


def _build(config, stepwise=False):
    state = LedgerState()
    rng = np.random.default_rng(config.seed)
    currencies = [Currency(code) for code in config.currency_weights()]
    build = _build_cast_stepwise if stepwise else build_cast
    return build(config, state, rng, currencies), state, rng


def _amount_view(amount):
    return (amount.currency, amount.mantissa, amount.exponent, amount.issuer)


def _line_view(line):
    return (
        line.key,
        _amount_view(line.limit),
        _amount_view(line.balance),
        _amount_view(line._available),
        line._balance_float.hex(),
        line._available_float.hex(),
    )


def _index_view(index):
    return [(account, [line.key for line in lines]) for account, lines in index.items()]


def _state_view(state):
    codes = sorted({line.currency.code for line in state.trustlines.values()})
    for code in codes:
        state.currency_lines(code)
    return {
        "lines": [(key, _line_view(line)) for key, line in state.trustlines.items()],
        "by_truster": _index_view(state._lines_by_truster),
        "by_trustee": _index_view(state._lines_by_trustee),
        "currency_lines": [
            (code, _index_view(index.ins), _index_view(index.outs))
            for code, index in state._currency_lines.items()
        ],
        "accounts": [(account, vars(root)) for account, root in state.accounts.items()],
    }


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def built(request):
    config = CONFIGS[request.param]
    return config, _build(config), _build(config, stepwise=True)


class TestBulkCastEqualsStepwise:
    def test_ledger_state_line_by_line(self, built):
        _, (_, state, _), (_, reference, _) = built
        assert list(state.trustlines) == list(reference.trustlines)
        ours, theirs = _state_view(state), _state_view(reference)
        for part in theirs:
            assert ours[part] == theirs[part], part

    def test_same_cast_and_generator_state(self, built):
        _, (cast, _, rng), (reference, _, reference_rng) = built
        assert cast == reference
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_one_amount_per_distinct_value(self, built):
        _, (_, state, _), _ = built
        held = [
            amount
            for line in state.trustlines.values()
            for amount in (line.limit, line.balance)
        ]
        assert len({id(amount) for amount in held}) == len(
            {_amount_view(amount) for amount in held}
        )


class TestGatewaysFor:
    def test_equals_scan_for_every_currency(self, built):
        config, (cast, _, _), _ = built
        codes = set(config.currency_weights())
        for gateway in cast.gateways:
            codes.update(currency.code for currency in gateway.currencies)
        codes.add("ZZZ")
        for code in sorted(codes):
            currency = Currency(code)
            assert cast.gateways_for(currency) == _gateways_for_scan(cast, currency), code

    def test_a_code_listed_twice_counts_once(self):
        # A tail currency adopted by a gateway that already issues it
        # (MXN at Bitso, NZD at Coinex) would sit twice in its tuple.
        usd, mxn = Currency("USD"), Currency("MXN")
        cast = Cast(
            gateways=[
                Gateway(account_from_name("g0", namespace="test"), "g0", (usd, mxn, mxn)),
                Gateway(account_from_name("g1", namespace="test"), "g1", (mxn,)),
            ]
        )
        assert cast.gateways_for(mxn) == _gateways_for_scan(cast, mxn) == [0, 1]
        assert cast.gateways_for(usd) == [0]

    def test_returns_a_fresh_list(self, built):
        _, (cast, _, _), _ = built
        usd = Currency("USD")
        cast.gateways_for(usd).append(-1)
        assert -1 not in cast.gateways_for(usd)


class TestSharedAmounts:
    @pytest.fixture()
    def twins(self):
        config = small_config(seed=7)
        _, state, _ = _build(config)
        lines = [line for line in state.trustlines.values() if line.balance.is_positive]
        for first in lines:
            for second in lines:
                if (
                    first is not second
                    and first.limit is second.limit
                    and first.balance is second.balance
                ):
                    return state, first, second
        raise AssertionError("no two deposit lines share their amounts")

    def test_extend_and_settle_leave_the_twin_unchanged(self, twins):
        _, line, twin = twins
        before = _line_view(twin)
        line.extend_debt(Amount.from_value(line.currency, 5))
        assert _line_view(twin) == before
        line.settle_debt(line.balance)
        assert line.balance.is_zero
        assert _line_view(twin) == before
        line.set_limit(Amount.from_value(line.currency, 1))
        assert _line_view(twin) == before

    def test_snapshot_stays_independent(self, twins):
        state, line, twin = twins
        snapshot = copy.deepcopy(state)
        copied = snapshot.trustlines[line.key]
        copied_twin = snapshot.trustlines[twin.key]
        assert copied.balance is line.balance
        original, copied_before = _line_view(line), _line_view(copied_twin)
        seven = Amount.from_value(line.currency, 7)
        expected = line.balance + seven
        copied.extend_debt(seven)
        assert _line_view(line) == original
        assert _amount_view(copied.balance) == _amount_view(expected)
        line.settle_debt(line.balance)
        twin.extend_debt(seven)
        assert _line_view(copied_twin) == copied_before
        assert _amount_view(copied.balance) == _amount_view(expected)
