"""A 50-digit referee for the detection probability, for tests only.

Evaluates the closed form u^k e^{-8u} (1 - V cos delta_sigma)/2 in mpmath at
50 significant digits, starting from the physical inputs: source amplitude,
conditional phase, fiber loss, total distance and analyzer phase difference.
It shares no float arithmetic with catbell: the link budget, the surviving
amplitude, the visibility and the fringe are all recomputed here, and the
coincidence order k is the paper's (two-fold usd2, four-fold usd4), not read
from the package's protocol table.
"""

import mpmath as mp

DIGITS = 50
N_FOLD = {"usd2": 2, "usd4": 4}


def reference_probs(which, alpha, phi, loss_db_per_km, distance_km_total, delta_sigma):
    """(p at delta_sigma, p_max, p_min, visibility) as 50-digit mpmath numbers.

    p_max and p_min are the probabilities at delta_sigma = pi and 0.  Inputs
    are taken as exact binary values, so the float a caller passes is the
    point evaluated.
    """
    k = N_FOLD[which]
    with mp.workdps(DIGITS):
        alpha, phi, loss, distance, dsig = (mp.mpf(x) for x in (
            alpha, phi, loss_db_per_km, distance_km_total, delta_sigma))
        eta = mp.power(10, -loss * (distance / 2) / 10)
        s = mp.sin(phi) ** 2
        u = alpha**2 * eta * s
        vis = mp.exp(-4 * alpha**2 * (1 - eta) * s)
        envelope = u**k * mp.exp(-8 * u) / 2
        return (envelope * (1 - vis * mp.cos(dsig)), envelope * (1 + vis),
                envelope * (1 - vis), vis)
