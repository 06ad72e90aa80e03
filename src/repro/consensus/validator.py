"""The validator node: identity, UNL, behaviour, and signing.

A validator is identified the way the paper labels them: either by an
internet domain (``bougalis.net``, ``testnet.ripple.com``) or by the base58
form of its public key (``n9KDJn...Q7KhQ2``).  Each validator owns a Schnorr
key pair (derived deterministically from its name, so simulations are
reproducible) and a behaviour profile from :mod:`repro.consensus.faults`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.consensus.faults import Behaviour, ValidatorProfile, active
from repro.consensus.proposals import Validation
from repro.consensus.unl import UNL
from repro.ledger import crypto
from repro.ledger.accounts import base58_encode


def validator_key_id(name: str) -> str:
    """Ripple-style ``n...`` public-key label for an unidentified validator."""
    digest = hashlib.sha256(b"validator:" + name.encode()).digest()[:20]
    return "n9" + base58_encode(digest)[:10]


@dataclass
class Validator:
    """One consensus participant."""

    name: str
    unl: UNL
    profile: ValidatorProfile = field(default_factory=active)
    is_ripple_labs: bool = False
    _keypair: Optional[crypto.KeyPair] = field(default=None, repr=False)

    @property
    def keypair(self) -> crypto.KeyPair:
        """Lazy Schnorr key pair (deriving one costs a modular exponent)."""
        if self._keypair is None:
            self._keypair = crypto.KeyPair.from_seed(b"validator:" + self.name.encode())
        return self._keypair

    @property
    def network_id(self) -> int:
        return self.profile.network_id

    @property
    def behaviour(self) -> Behaviour:
        return self.profile.behaviour

    def participates(self, round_index: int, rng: np.random.Generator) -> bool:
        """Does this validator take part in the given round?"""
        if not self.profile.present_at(round_index):
            return False
        return rng.random() < self.profile.availability

    @property
    def receive_probability(self) -> float:
        """Chance of holding any given pending transaction at round start.

        Healthy validators have seen (almost) every pending transaction;
        lagging ones miss many — the source of initial disagreement RPCA
        must resolve.
        """
        if self.profile.receive_probability is not None:
            return self.profile.receive_probability
        if self.behaviour is Behaviour.LAGGING:
            return 0.6
        if self.behaviour is Behaviour.OFFLINE:
            return 0.5
        return 0.98

    def make_validation(
        self,
        sequence: int,
        page_hash: bytes,
        sign_time: int,
        sign: bool = False,
    ) -> Validation:
        """Emit (and optionally Schnorr-sign) a validation message."""
        validation = Validation(
            validator=self.name,
            sequence=sequence,
            page_hash=page_hash,
            sign_time=sign_time,
            network_id=self.network_id,
        )
        if sign:
            validation = validation.with_signature(self.keypair)
        return validation
