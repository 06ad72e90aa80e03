#!/usr/bin/env python3
"""Run a full node: submission → consensus → application → public ledger.

This example drives the whole stack the way a Ripple client would:

1. start a :class:`repro.RippledNode` with five validators;
2. create accounts and trust lines via *signed transactions*;
3. submit payments (including one doomed to fail) and watch ledgers close;
4. read the public chain back.

Run:  python examples/run_a_node.py
"""

from repro import RippledNode
from repro.ledger import (
    Amount,
    KeyPair,
    Payment,
    TrustSet,
    USD,
    account_from_name,
)


def main() -> None:
    node = RippledNode(seed=42)

    # --- Accounts (funded directly in state; clients would buy XRP) --------
    people = {}
    keys = {}
    for name in ("alice", "bob", "gateway"):
        account = account_from_name(name, namespace="run-a-node")
        node.state.create_account(account, 10_000 * 10 ** 6)
        people[name] = account
        keys[name] = KeyPair.from_seed(f"run-a-node-{name}".encode())
    print("Node started; genesis ledger:", node.chain.head.sequence)

    # --- Trust lines via signed TrustSet transactions -----------------------
    def submit(tx, signer):
        tx.sign(keys[signer])
        return node.submit(tx)

    submit(TrustSet(account=people["alice"], sequence=1,
                    trustee=people["gateway"], limit=Amount.from_value(USD, 1_000)),
           "alice")
    submit(TrustSet(account=people["bob"], sequence=1,
                    trustee=people["gateway"], limit=Amount.from_value(USD, 1_000)),
           "bob")
    ledger = node.close_ledger()
    print(f"Ledger {ledger.page.sequence}: {ledger.success_count} trust lines set")

    # Gateway issues alice a deposit (a real payment transaction).
    node.state.apply_hop(
        people["gateway"], people["alice"], Amount.from_value(USD, 400)
    )

    # --- Payments: one good, one doomed --------------------------------------
    good = Payment(account=people["alice"], sequence=2,
                   destination=people["bob"], amount=Amount.from_value(USD, 120))
    doomed = Payment(account=people["bob"], sequence=2,
                     destination=people["alice"], amount=Amount.from_value(USD, 999))
    submit(good, "alice")
    submit(doomed, "bob")
    ledger = node.close_ledger()
    print(f"Ledger {ledger.page.sequence}: {ledger.success_count}/"
          f"{len(ledger.applied)} payments succeeded "
          f"(the failed one still claimed its fee: "
          f"{node.state.burned_fee_drops} drops burned so far)")
    for item in ledger.applied:
        print(f"  {item.transaction.TYPE_NAME} -> {item.code.value}")

    # --- The public record ----------------------------------------------------
    print("\nThe public chain now contains "
          f"{node.chain.transaction_count()} transactions across "
          f"{len(node.chain) - 1} closed ledgers — visible to anyone, forever.")


if __name__ == "__main__":
    main()
