"""The honest channel's true class yields: a test oracle for the whole chain
from channel to phase-error LP.

The simulated channel is linear loss, misalignment e_m and threshold
detectors with dark counts p_d. Its no-click operators (1 - p_d)(1 - t)^n
are diagonal in photon number, so the probability Y_n that exactly one
detector clicks on n photons has a closed form:

    Y_n = (1 - p_d)[(1 - eta e_m)^n + (1 - eta (1 - e_m))^n]
          - 2 (1 - p_d)^2 (1 - eta)^n.

A round keeps class j of intensity mu with probability 2 p_mu^2 / M, so the
true signal yield of class j is

    x_j = N (2 p_mu^2 / M) sum_{n = j mod M} Pois(n; 2 mu) Y_n,

and y_j likewise with nu and p_nu. Summed over j they give the expected
counts n_2mu and n_2nu. This point is the true state of the honest channel,
so every phase-error LP built from expected counts must contain it, and its
optimum n_ph must be at least the point's sum over even j of x_j. Nothing
here uses the LP's gap-bound algebra.
"""

import math

import numpy as np

from tfqkd.channel import half_channel_transmittance

# Photon numbers summed: Pois(n; 2 mu) at mu <= 0.5 is below 1e-300 well
# before n = 400.
N_MAX = 400


def _one_click_yields(eta: float, e_m: float, p_d: float) -> np.ndarray:
    """Y_n for n = 0..N_MAX, written as (1 - p_d)[A_n + B_n + 2 p_d C_n]
    with C_n = (1 - eta)^n, A_n = (1 - x)^n - C_n at x = eta e_m and B_n
    the same at x = eta (1 - e_m). Each difference is (1 - x)^n times
    -expm1(-n log1p((eta - x) / (1 - eta))), so every term is nonnegative
    and nothing cancels at small n eta. At eta = 1, C_n vanishes for n > 0."""
    n = np.arange(N_MAX + 1, dtype=float)
    if eta >= 1.0:
        one_click = (1.0 - p_d) * (e_m**n + (1.0 - e_m) ** n)
        one_click[0] = 2.0 * p_d * (1.0 - p_d)
        return one_click
    total = 2.0 * p_d * np.exp(n * math.log1p(-eta))
    for x in (eta * e_m, eta * (1.0 - e_m)):
        gap = math.log1p((eta - x) / (1.0 - eta))
        total += np.exp(n * math.log1p(-x)) * -np.expm1(-n * gap)
    return (1.0 - p_d) * total


def _class_sums(mean: float, yields: np.ndarray, m_phases: int) -> np.ndarray:
    """sum over n = j mod M of Pois(n; mean) Y_n, for j = 0..M-1."""
    n = np.arange(N_MAX + 1)
    if mean == 0.0:
        pmf = (n == 0).astype(float)
    else:
        log_pmf = -mean + n * math.log(mean) - np.array([math.lgamma(k + 1.0) for k in n])
        pmf = np.exp(log_pmf)
    return np.bincount(n % m_phases, weights=pmf * yields, minlength=m_phases)


def honest_class_yields(protocol, channel, l_km: float, detector_in_eta: bool = True):
    """The true class yields (x_j, y_j), j = 0..M-1, in counts, of the
    honest channel at l_km for the given protocol."""
    eta = half_channel_transmittance(l_km, channel, include_detector=detector_in_eta)
    yields = _one_click_yields(eta, channel.e_m, channel.p_d)
    m, n_total = protocol.n_phases, float(protocol.n_total)
    x = n_total * (2.0 * protocol.p_mu**2 / m) * _class_sums(2.0 * protocol.mu, yields, m)
    y = n_total * (2.0 * protocol.p_nu**2 / m) * _class_sums(2.0 * protocol.nu, yields, m)
    return x, y
