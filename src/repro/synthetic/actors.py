"""The cast of the synthetic Ripple economy and its trust topology.

The appendix of the paper identifies distinct actor classes with sharply
different ledger footprints (Fig. 7):

* **Gateways** — the Ripple equivalent of banks: huge *incoming* trust,
  almost no outgoing trust (17/20 declare none), strictly negative
  balances (they issue IOUs against off-ledger deposits).  We name ours
  after the gateways in Fig. 7 (SnapSwap, Ripple Fox, Bitstamp, ...).
* **Hubs** — the two most path-central accounts (``rp2PaY...``,
  ``r42Ccn...``) are *not* gateways; both were activated by ``~akhavr``
  and relay an order of magnitude more payments than anyone else.  In our
  economy they are the conduits of the CCK micro-payment swarm.
* **Market makers** — place nearly all exchange offers (top-10 place 50 %)
  and hold balances at many gateways in many currencies, which makes them
  the connective tissue for cross-gateway payments (Table II).
* **Users** — deposit at one or a few gateways, hold positive balances,
  and trust at least one gateway to join the network.
* **Special accounts** — ``ACCOUNT_ZERO`` (public secret key, spam sink),
  ``~Ripple Spin`` (the 2015 XRP gambling service), the MTL spam attacker
  with its fixed 8-hop × 6-path chain topology, and the 44-hop outlier
  chain seen in Fig. 6(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SyntheticError
from repro.ledger.accounts import ACCOUNT_ZERO, AccountID, account_from_name
from repro.ledger.amounts import Amount
from repro.ledger.currency import Currency, eur_value
from repro.ledger.state import LedgerState
from repro.synthetic.config import EconomyConfig

#: Gateway names from Fig. 7, with their principal currencies.
GATEWAY_CATALOG: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("SnapSwap", ("USD", "EUR", "BTC")),
    ("Ripple Fox", ("CNY",)),
    ("Bitstamp", ("BTC", "USD")),
    ("RippleChina", ("CNY",)),
    ("Ripple Trade Japan", ("JPY",)),
    ("rippleCN", ("CNY",)),
    ("Justcoin", ("BTC", "EUR")),
    ("The Rock Trading", ("BTC", "EUR", "USD")),
    ("TokyoJPY", ("JPY",)),
    ("Dividend Rippler", ("BTC", "USD")),
    ("Ripple Exchange Tokyo", ("JPY", "BTC")),
    ("Digital Gate Japan", ("JPY",)),
    ("Payroutes", ("USD",)),
    ("Mr. Ripple", ("JPY", "BTC")),
    ("WisePass", ("USD", "EUR")),
    ("Bitso", ("MXN", "BTC")),
    ("DotPayco", ("USD",)),
    ("Coinex", ("NZD", "BTC")),
    ("Ripple LatAm", ("USD", "BRL")),
    ("Ripple Singapore", ("XAU", "USD", "BTC")),
)

#: The two hyper-central non-gateway hubs of Fig. 7(a) and their activator.
HUB_NAMES: Tuple[str, str] = ("rp2PaY...X1mEx7", "r42Ccn...Xqm5M3")
HUB_ACTIVATOR = "~akhavr"
RIPPLE_SPIN = "~Ripple Spin"
MTL_ATTACKER = "mtl-attacker"
MTL_SINK = "mtl-sink"

#: Huge trust limit used on the spam-chain lines (the attacker piled up
#: debt of the order of 1e22 — the limit must not bind).
INFRA_LIMIT = 1e30
#: EUR-equivalent working deposit a maker keeps at each gateway per
#: currency; converted to currency units via the market value.
MAKER_DEPOSIT_EUR = 2e6
#: Trust a hub extends to each CCK participant (micro-payments only).
HUB_CCK_LIMIT = 100.0
#: Mutual CCK credit between the two hubs (cross-hub micro-payment flow).
HUB_PEER_LIMIT = 1e6


@dataclass
class Gateway:
    account: AccountID
    name: str
    currencies: Tuple[Currency, ...]


@dataclass
class MarketMaker:
    account: AccountID
    name: str
    #: currencies this maker trades against XRP (and occasionally directly).
    currencies: Tuple[Currency, ...]


@dataclass
class User:
    account: AccountID
    name: str
    #: (gateway index, currency) pairs where the user keeps deposits.
    seats: Tuple[Tuple[int, Currency], ...]
    #: relative sending activity (Zipf-distributed across users).
    activity: float = 1.0


@dataclass
class Cast:
    """Every actor of the economy plus lookup helpers."""

    gateways: List[Gateway] = field(default_factory=list)
    hubs: List[AccountID] = field(default_factory=list)
    market_makers: List[MarketMaker] = field(default_factory=list)
    users: List[User] = field(default_factory=list)
    special: Dict[str, AccountID] = field(default_factory=dict)
    #: MTL spam chains: per parallel path, the ordered intermediate nodes.
    mtl_chains: List[List[AccountID]] = field(default_factory=list)
    #: the 44-hop outlier chain of Fig. 6(a).
    long_chain: List[AccountID] = field(default_factory=list)
    labels: Dict[AccountID, str] = field(default_factory=dict)
    #: currency code -> ascending indices of its issuing gateways, built on
    #: the first :meth:`gateways_for` call (after tail adoption).
    _issuers: Optional[Dict[str, List[int]]] = field(
        default=None, repr=False, compare=False
    )

    def label(self, account: AccountID) -> str:
        return self.labels.get(account, account.short())

    def gateway_accounts(self) -> List[AccountID]:
        return [gateway.account for gateway in self.gateways]

    def market_maker_accounts(self) -> List[AccountID]:
        return [maker.account for maker in self.market_makers]

    def is_gateway(self, account: AccountID) -> bool:
        return any(gateway.account == account for gateway in self.gateways)

    def gateways_for(self, currency: Currency) -> List[int]:
        """Indices of gateways issuing ``currency``, ascending.

        Gateway currencies are final once :func:`build_cast` has adopted
        the tail, so the index is built once, on the first call.
        """
        if self._issuers is None:
            issuers: Dict[str, List[int]] = {}
            for index, gateway in enumerate(self.gateways):
                for code in dict.fromkeys(c.code for c in gateway.currencies):
                    issuers.setdefault(code, []).append(index)
            self._issuers = issuers
        return list(self._issuers.get(currency.code, ()))


def _mint(cast: Cast, state: LedgerState, name: str, drops: int) -> AccountID:
    account = account_from_name(name, namespace="economy")
    state.create_account(account, drops)
    cast.labels[account] = name
    return account


def build_cast(
    config: EconomyConfig,
    state: LedgerState,
    rng: np.random.Generator,
    currencies: Sequence[Currency],
) -> Cast:
    """Create all actors, fund them, and wire the trust topology.

    ``currencies`` is the full list of currencies in play (majors + tail);
    tail currencies are each adopted by a gateway so every currency has an
    issuer.
    """
    cast = Cast()
    drops = config.activation_drops
    # Amounts are frozen, so one instance per distinct (currency, value)
    # serves every line that holds it.
    amounts: Dict[Tuple[str, float], Amount] = {}

    def amount(currency: Currency, value: float) -> Amount:
        key = (currency.code, value)
        found = amounts.get(key)
        if found is None:
            found = amounts[key] = Amount.from_value(currency, value)
        return found

    def trust(
        truster: AccountID,
        trustee: AccountID,
        currency: Currency,
        limit: float,
        balance: float = 0.0,
    ) -> None:
        # Every cast line is new and opens with its balance in one step: a
        # deposit equals set_trust plus a hop trustee -> truster.
        state.open_line(
            truster, trustee, amount(currency, limit), amount(currency, balance)
        )

    # ACCOUNT_ZERO exists from genesis with the undistributed XRP supply.
    state.create_account(ACCOUNT_ZERO, 10 ** 11 * 10 ** 6)
    cast.special["account_zero"] = ACCOUNT_ZERO
    cast.labels[ACCOUNT_ZERO] = "ACCOUNT_ZERO"

    # --- Gateways -----------------------------------------------------------
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
    # Adopt tail currencies round-robin, two issuing gateways each, so that
    # cross-gateway payments exist even in tail currencies.
    majors = {"XRP", "BTC", "USD", "EUR", "CNY", "JPY", "CCK", "MTL"}
    tail_adoptions: List[Tuple[Currency, Tuple[int, int]]] = []
    for offset, currency in enumerate(c for c in tail if c.code not in majors):
        first = offset % len(cast.gateways)
        second = (offset + 1 + offset // len(cast.gateways)) % len(cast.gateways)
        if second == first:
            second = (first + 1) % len(cast.gateways)
        for gateway_index in (first, second):
            gateway = cast.gateways[gateway_index]
            gateway.currencies = gateway.currencies + (currency,)
        tail_adoptions.append((currency, (first, second)))
    # Payments seat their parties at an issuer of the payment's currency,
    # so every weighted IOU currency needs one (the hubs carry CCK and the
    # spam chains MTL).
    for currency in currencies:
        if currency.code in ("XRP", "CCK", "MTL"):
            continue
        if not cast.gateways_for(currency):
            raise SyntheticError(
                f"no gateway issues {currency.code}; "
                f"n_gateways={config.n_gateways} is too few"
            )

    # Sparse direct gateway-to-gateway trust: only a few gateways declare
    # any outgoing trust at all (the paper finds 17/20 declare none), and
    # only in their principal (major) currencies.
    major_codes = {"BTC", "USD", "EUR", "CNY", "JPY"}
    for index, gateway in enumerate(cast.gateways[:3]):
        peer = cast.gateways[(index + 1) % len(cast.gateways)]
        shared = set(gateway.currencies) & set(peer.currencies)
        for currency in sorted(shared, key=lambda c: c.code):
            if currency.code not in major_codes:
                continue
            trust(gateway.account, peer.account, currency, 5e5)

    # --- Hubs (the CCK conduits) ---------------------------------------------
    activator = _mint(cast, state, HUB_ACTIVATOR, drops * 5)
    cast.special["akhavr"] = activator
    cck = Currency("CCK")
    for hub_name in HUB_NAMES:
        hub = _mint(cast, state, hub_name, drops * 20)
        cast.hubs.append(hub)
        # Hubs keep working balances at a few gateways in BTC (credit —
        # the positive balances of Fig. 7(c)).
        for gateway in cast.gateways[:4]:
            btc = Currency("BTC")
            if btc in gateway.currencies:
                trust(hub, gateway.account, btc, 1e4, balance=2e3)

    # --- Market makers ----------------------------------------------------------
    # Makers hold serious XRP inventory (they quote the XRP auto-bridge).
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
        # Makers hold deep balances at every gateway issuing their
        # currencies: this is what lets them relay cross-gateway payments.
        for currency in traded:
            deposit = MAKER_DEPOSIT_EUR / eur_value(currency)
            for gateway_index in cast.gateways_for(currency):
                gateway = cast.gateways[gateway_index]
                trust(account, gateway.account, currency, deposit * 10, balance=deposit)
                # No gateway->maker trust: value flows maker -> gateway by
                # settling the maker's deposit, so gateways keep the
                # no-outgoing-trust profile of Fig. 7(b).

    # Tail-currency connectors: a few makers hold balances at both issuing
    # gateways of each tail currency, so cross-gateway tail payments route
    # through them (and fail when market makers are removed — Table II).
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
                    trust(
                        maker.account,
                        gateway.account,
                        currency,
                        deposit * 10,
                        balance=deposit,
                    )

    # --- Users ---------------------------------------------------------------------
    activity = 1.0 / np.arange(1, config.n_users + 1) ** 0.8
    activity = activity / activity.sum()
    order = rng.permutation(config.n_users)
    for index in range(config.n_users):
        name = f"user-{index:04d}"
        account = _mint(cast, state, name, drops)
        seat_count = int(rng.integers(1, 4))
        seats: List[Tuple[int, Currency]] = []
        for _ in range(seat_count):
            gateway_index = int(rng.integers(0, len(cast.gateways)))
            gateway = cast.gateways[gateway_index]
            currency = gateway.currencies[int(rng.integers(0, len(gateway.currencies)))]
            if (gateway_index, currency) in seats:
                continue
            seats.append((gateway_index, currency))
            trust(account, gateway.account, currency, 1e6)
        # Every user joins the CCK swarm through exactly one hub; the hub
        # reciprocates with a micro-credit line.  Cross-hub payments then
        # ripple hubA -> hubB, putting *both* hubs on the path.
        hub = cast.hubs[index % len(cast.hubs)]
        trust(account, hub, cck, 1e5)
        trust(hub, account, cck, HUB_CCK_LIMIT)
        state.account(account).allows_rippling = False
        cast.users.append(
            User(
                account=account,
                name=name,
                seats=tuple(seats),
                activity=float(activity[order[index]]),
            )
        )

    # The hubs extend generous CCK credit to each other, so micro-payments
    # between users of different hubs flow user -> hubA -> hubB -> user.
    if len(cast.hubs) >= 2:
        first, second = cast.hubs[0], cast.hubs[1]
        trust(first, second, cck, HUB_PEER_LIMIT)
        trust(second, first, cck, HUB_PEER_LIMIT)

    # --- Special accounts ----------------------------------------------------------
    spin = _mint(cast, state, RIPPLE_SPIN, drops)
    cast.special["ripple_spin"] = spin

    mtl = Currency("MTL")
    attacker = _mint(cast, state, MTL_ATTACKER, drops * 100)
    sink = _mint(cast, state, MTL_SINK, drops)
    cast.special["mtl_attacker"] = attacker
    cast.special["mtl_sink"] = sink
    for path_index in range(config.mtl_spam_parallel_paths):
        chain: List[AccountID] = []
        previous = attacker
        for hop_index in range(config.mtl_spam_hops):
            node = _mint(cast, state, f"mtl-relay-{path_index}-{hop_index}", drops)
            trust(node, previous, mtl, INFRA_LIMIT)
            chain.append(node)
            previous = node
        trust(sink, previous, mtl, INFRA_LIMIT)
        cast.mtl_chains.append(chain)

    # The 44-intermediate-hop outlier chain of Fig. 6(a).
    previous = attacker
    for hop_index in range(44):
        node = _mint(cast, state, f"mtl-long-{hop_index}", drops)
        trust(node, previous, mtl, INFRA_LIMIT)
        cast.long_chain.append(node)
        previous = node
    trust(sink, previous, mtl, INFRA_LIMIT)

    return cast
