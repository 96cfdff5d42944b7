"""
Three independent routes to the same detection probability.

1. branch pipeline: eight coherent branches pushed through displacement
   and projection with exact coherent-state algebra;
2. closed form: u^k e^{-8u} / 2 * (1 - V cos delta_sigma) with
   u = (|alpha'| sin phi)^2 and k the coincidence order;
3. Fock oracle: the same beam splitters and displacements redone with
   truncated number-basis matrices (operator exponentials, no
   coherent-state shortcuts).

The oracle only works for modest surviving amplitude (the truncation
budget), so the comparison uses a short lossy link.  Agreement is at
the 1e-15 level; doubling the truncation dimension moves nothing,
which is the sign the truncation itself is converged.
"""

import math

from catbell import PROTOCOLS, ChannelParams, ProtocolParams, attenuate, success_prob
from catbell.fock import oracle_protocol_prob, recommended_dim
from catbell.protocols import pipeline_prob

params = ProtocolParams(alpha=3.0, phi=0.15, sigma1=2.0, sigma2=0.3)
channel = ChannelParams(0.2, 9.0)
alpha_prime, n_lost = attenuate(params.alpha, channel)
print(f"alpha = {params.alpha}, 18 km total at 0.2 dB/km ->"
      f" |alpha'| = {alpha_prime:.4f}, N_L = {n_lost:.4f}")
print()

for which in PROTOCOLS:
    p_pipe = pipeline_prob(params, channel, which)
    p_closed = success_prob(which, alpha_prime, n_lost, params.phi,
                            params.sigma1 - params.sigma2)
    p_oracle = oracle_protocol_prob(params, channel, which)
    base = recommended_dim((2 * alpha_prime) ** 2 if which == "usd2"
                           else 2 * alpha_prime**2)
    p_double = oracle_protocol_prob(params, channel, which, dim=2 * base)
    print(f"{which}:")
    print(f"  branch pipeline   {p_pipe:.15e}")
    print(f"  closed form       {p_closed:.15e}")
    print(f"  Fock oracle       {p_oracle:.15e}  (dim {base})")
    print(f"  |pipeline-closed| {abs(p_pipe - p_closed):.2e}")
    print(f"  |pipeline-oracle| {abs(p_pipe - p_oracle):.2e}")
    print(f"  oracle dim-doubling drift {abs(p_double - p_oracle):.2e}")
    print()

print("Three formulations, one number: the branch algebra is not")
print("assuming what the closed form derives, and the Fock matrices")
print("assume neither.")
