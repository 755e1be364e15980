"""Observation model for a symmetric fiber channel with an honest middle
node: expected click counts, bit error rate, and a seeded Poisson sampler
for fluctuating counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Physical channel and detector parameters.

    e_m: misalignment error rate, p_d: dark-count probability per SPD per
    gate, xi: fiber loss in dB/km, eta_d: detector efficiency, f_ec:
    error-correction inefficiency.
    """

    e_m: float
    p_d: float
    xi: float
    eta_d: float
    f_ec: float

    def __post_init__(self):
        if not 0.0 <= self.e_m <= 0.5:
            raise ValueError(f"e_m={self.e_m} outside [0, 0.5]")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError(f"p_d={self.p_d} outside [0, 1)")
        if self.xi < 0.0:
            raise ValueError(f"xi={self.xi} must be >= 0")
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"eta_d={self.eta_d} outside (0, 1]")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec={self.f_ec} must be >= 1")


@dataclass(frozen=True)
class ProtocolParams:
    """Source-side protocol choices.

    mu/nu: signal and decoy intensities, p_mu/p_nu/p_o: label choice
    probabilities (must sum to 1), n_phases: number of discrete global
    phases per 2*pi (even), n_total: total number of rounds.
    """

    mu: float
    nu: float
    p_mu: float
    p_nu: float
    p_o: float
    n_phases: int
    n_total: int

    def __post_init__(self):
        for name in ("mu", "nu"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name}={v} must be finite and >= 0")
        for name in ("p_mu", "p_nu", "p_o"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 0")
        if abs(self.p_mu + self.p_nu + self.p_o - 1.0) > 1e-12:
            raise ValueError(
                f"label probabilities sum to {self.p_mu + self.p_nu + self.p_o}, not 1"
            )
        if self.n_phases < 2 or self.n_phases % 2 != 0:
            raise ValueError(f"n_phases={self.n_phases} must be even and >= 2")
        if self.n_total <= 0:
            raise ValueError(f"n_total={self.n_total} must be positive")

    @classmethod
    def make(cls, mu, nu, p_mu, p_nu, n_phases, n_total) -> "ProtocolParams":
        """Construct with the vacuum probability filled in as the remainder."""
        return cls(mu, nu, p_mu, p_nu, 1.0 - p_mu - p_nu, n_phases, int(n_total))


@dataclass(frozen=True)
class ObservedCounts:
    """Retained-round counts (expectations or samples) and the signal-mode
    bit error rate. A signal that never clicks has n_2mu = 0 and e_bit = 0."""

    n_2mu: float
    n_2nu: float
    n_0: float
    e_bit: float

    @property
    def n_bit(self) -> float:
        """Sifted key bits: every retained signal click gives one."""
        return self.n_2mu

    def __post_init__(self):
        for name in ("n_2mu", "n_2nu", "n_0"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.e_bit <= 1.0:
            raise ValueError(f"e_bit={self.e_bit} outside [0, 1]")


def half_channel_transmittance(
    l_km: float, channel: ChannelParams, include_detector: bool = True
) -> float:
    """Transmittance from one party to the middle node for a total
    party-to-party separation of l_km (each arm covers half the distance).

    Detector efficiency is folded in by default; disable to reproduce the
    bare fiber value.
    """
    if l_km < 0.0:
        raise ValueError(f"l_km={l_km} must be >= 0")
    eta = 10.0 ** (-channel.xi * l_km / 20.0)
    if include_detector:
        eta *= channel.eta_d
    return eta


def click_probabilities(
    beta: float, eta: float, channel: ChannelParams
) -> tuple[float, float]:
    """Per-round probabilities (q_corr, q_err) of exactly one detector
    firing on the correct resp. wrong side, for matched intensity beta at
    arm transmittance eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if beta < 0.0:
        raise ValueError(f"beta={beta} must be >= 0")
    p_d, e_m = channel.p_d, channel.e_m
    x_corr = 2.0 * eta * (1.0 - e_m) * beta
    x_err = 2.0 * eta * e_m * beta
    # 1 - (1-p_d)e^{-x} via expm1: both the optical and the dark-count term
    # stay positive, avoiding cancellation when x and p_d are both tiny.
    fire_corr = -math.expm1(-x_corr) + p_d * math.exp(-x_corr)
    fire_err = -math.expm1(-x_err) + p_d * math.exp(-x_err)
    q_corr = fire_corr * math.exp(-x_err) * (1.0 - p_d)
    q_err = fire_err * math.exp(-x_corr) * (1.0 - p_d)
    return q_corr, q_err


def expected_observations(
    protocol: ProtocolParams,
    channel: ChannelParams,
    l_km: float,
    detector_in_eta: bool = True,
) -> ObservedCounts:
    """Mean retained-round counts for the given distance.

    Counts are kept real-valued (the analysis consumes expectations
    directly). When the signal cannot click at all (mu = 0 and p_d = 0),
    n_2mu and e_bit are 0, as when sample_observations draws no click.
    """
    eta = half_channel_transmittance(l_km, channel, include_detector=detector_in_eta)
    n = float(protocol.n_total)
    m = protocol.n_phases

    qc_mu, qe_mu = click_probabilities(protocol.mu, eta, channel)
    qc_nu, qe_nu = click_probabilities(protocol.nu, eta, channel)
    qc_0, qe_0 = click_probabilities(0.0, eta, channel)

    q_mu = qc_mu + qe_mu
    n_2mu = n * protocol.p_mu**2 * 2.0 * q_mu / m
    n_2nu = n * protocol.p_nu**2 * 2.0 * (qc_nu + qe_nu) / m
    n_0 = n * protocol.p_o**2 * (qc_0 + qe_0)
    e_bit = qe_mu / q_mu if q_mu > 0.0 else 0.0
    return ObservedCounts(n_2mu=n_2mu, n_2nu=n_2nu, n_0=n_0, e_bit=e_bit)


def sample_observations(
    protocol: ProtocolParams,
    channel: ChannelParams,
    l_km: float,
    seed: int,
    detector_in_eta: bool = True,
) -> ObservedCounts:
    """Draw Poisson-fluctuating counts around the expected values with a
    deterministic seeded generator; e_bit comes from a binomial split of
    the sampled signal count."""
    mean = expected_observations(protocol, channel, l_km, detector_in_eta=detector_in_eta)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_2mu = float(rng.poisson(mean.n_2mu))
    n_2nu = float(rng.poisson(mean.n_2nu))
    n_0 = float(rng.poisson(mean.n_0))
    if n_2mu > 0.0:
        e_bit = float(rng.binomial(int(n_2mu), mean.e_bit)) / n_2mu
    else:
        e_bit = 0.0
    return ObservedCounts(n_2mu=n_2mu, n_2nu=n_2nu, n_0=n_0, e_bit=e_bit)
