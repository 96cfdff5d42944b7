"""Shared helpers for the test suite."""

import math

import numpy as np

from catbell import ChannelParams, accidental_rate, protocol_report


def channel_for(alpha: float, alpha_prime: float, loss_db_per_km: float = 0.2) -> ChannelParams:
    """Channel whose transmittance maps amplitude alpha down to alpha_prime."""
    eta = (alpha_prime / alpha) ** 2
    if eta >= 1.0:
        return ChannelParams(loss_db_per_km, 0.0)
    km = -10.0 * math.log10(eta) / loss_db_per_km
    return ChannelParams(loss_db_per_km, km)


def coherent_series(nu: complex, dim: int = 32) -> np.ndarray:
    """Independent number-basis expansion used as an in-test oracle.

    Plain series evaluation c_n = e^{-|nu|^2/2} nu^n / sqrt(n!), written out
    here so state-algebra tests do not lean on the package's own Fock module.
    """
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    out = np.exp(-0.5 * abs(nu) ** 2 - 0.5 * log_fact) * np.power(complex(nu), n)
    return out


def redraw_blocks(params, channel, detector, duration_s, seed, which, source_rate_hz, indices):
    """Monte Carlo block rows for `indices`, each drawn on its own (seed, index) stream.

    Builds a fresh Generator(Philox(SeedSequence(entropy=(seed, index)))) per
    block, NumPy's own seeding, apart from monte_carlo_blocks' vectorised keys
    and shared generator, so a test can draw blocks in any subset and order,
    as a partitioned session would, and compare them with a run.
    """
    report = protocol_report(params, channel, which)
    dark_rate = accidental_rate(detector, which)
    rows = []
    for index in indices:
        dur = min(1.0, duration_s - index)
        pulses, dark_mean = round(source_rate_hz * dur), dark_rate * dur
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, index))))
        c_max = int(rng.binomial(pulses, report.p_max)) + int(rng.poisson(dark_mean))
        c_min = int(rng.binomial(pulses, report.p_min)) + int(rng.poisson(dark_mean))
        rows.append((index, float(index), c_max, c_min))
    return rows
