"""Link budgets, counting statistics, Monte Carlo, range and phase planning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import redraw_blocks
from catbell import (
    BELL_VISIBILITY_THRESHOLD,
    ChannelParams,
    CountingRates,
    DetectorSpec,
    PhiOptimum,
    ProtocolParams,
    RangeResult,
    accidental_rate,
    asymptotic_visibility,
    attenuate,
    chsh_margin,
    counting_rates,
    max_range,
    monte_carlo_blocks,
    monte_carlo_run,
    optimize_phi,
    success_prob,
    visibility,
    visibility_estimate,
)
from catbell import experiment
from catbell.experiment import MAX_MC_BLOCKS, MAX_SEARCH_KM_TOTAL, _block_keys

LINK_400 = ChannelParams(0.15, 200.0)
REF = ProtocolParams(100.0, 0.0028)
DET = DetectorSpec()


def test_channel_params():
    ch = ChannelParams(0.15, 70.0)
    assert math.isclose(ch.transmittance, 10.0 ** (-0.15 * 70.0 / 10.0), rel_tol=1e-15)
    assert ch.distance_km_total == 140.0
    assert ChannelParams.from_total(0.15, 400.0) == LINK_400
    assert ChannelParams(0.3, 0.0).transmittance == 1.0
    with pytest.raises(ValueError, match="loss_db_per_km"):
        ChannelParams(-0.1, 10.0)
    with pytest.raises(ValueError, match="distance"):
        ChannelParams(0.1, -10.0)


@pytest.mark.parametrize("field, build", [
    ("loss_db_per_km", lambda x: ChannelParams(x, 10.0)),
    ("distance_km_per_arm", lambda x: ChannelParams(0.15, x)),
    ("dark_rate_hz", lambda x: DetectorSpec(x, 1e-9)),
    ("coincidence_window_s", lambda x: DetectorSpec(0.0008, x)),
    ("phi", lambda x: ProtocolParams(100.0, x)),
    ("sigma1", lambda x: ProtocolParams(100.0, 0.0028, x)),
    ("sigma2", lambda x: ProtocolParams(100.0, 0.0028, 0.0, x)),
])
def test_model_params_refuse_nan(field, build):
    with pytest.raises(ValueError, match=field):
        build(math.nan)


def test_detector_spec():
    assert DET.dark_rate_hz == 0.0008
    assert DET.coincidence_window_s == 1e-9
    with pytest.raises(ValueError, match="dark_rate_hz"):
        DetectorSpec(-1.0, 1e-9)
    with pytest.raises(ValueError, match="coincidence_window_s"):
        DetectorSpec(0.0008, 0.0)


def test_attenuate_reference_links():
    ap, nl = attenuate(100.0, ChannelParams(0.15, 70.0))
    assert math.isclose(ap * ap, 891.251, rel_tol=5e-7)
    assert math.isclose(nl, 9108.75, rel_tol=5e-7)
    ap, nl = attenuate(100.0, LINK_400)
    assert math.isclose(ap * ap, 10.0, rel_tol=5e-7)
    assert math.isclose(nl, 9990.0, rel_tol=5e-7)


def test_attenuate_zero_distance():
    assert attenuate(7.5, ChannelParams(0.2, 0.0)) == (7.5, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        attenuate(-1.0, LINK_400)


@given(
    st.floats(1e-3, 1e4),
    st.floats(0.0, 2.0),
    st.floats(0.0, 500.0),
)
@settings(deadline=None)
def test_attenuate_energy_ledger(alpha, loss, dist):
    ap, nl = attenuate(alpha, ChannelParams(loss, dist))
    total = ap * ap + nl
    assert abs(total - alpha * alpha) <= math.ulp(alpha * alpha)
    assert nl >= 0.0


def test_counting_rates_reference_values():
    rates = counting_rates(1.97e-9, 0.28e-9, 1e9)
    assert math.isclose(rates.r_max, 1.97, rel_tol=1e-12)
    assert math.isclose(rates.r_min, 0.28, rel_tol=1e-12)
    r_max, r_min = counting_rates(5.3e-9, 0.83e-9, 1e9)
    assert math.isclose(r_max, 5.3, rel_tol=1e-12)
    assert math.isclose(r_min, 0.83, rel_tol=1e-12)
    assert counting_rates(0.0, 0.0, 123.0) == CountingRates(0.0, 0.0)


def test_counting_rates_validation():
    with pytest.raises(ValueError, match="source_rate_hz"):
        counting_rates(0.5, 0.1, 0.0)
    with pytest.raises(ValueError, match="probabilities"):
        counting_rates(1.5, 0.1, 1e9)


def test_accidental_rate():
    assert accidental_rate(DetectorSpec(0.0, 1e-9), "usd2") == 0.0
    two_fold = accidental_rate(DET, "usd2")
    assert math.isclose(two_fold, 1.28e-15, rel_tol=1e-9)
    # with a microsecond window the same formula gives the 1.28e-12 figure
    assert math.isclose(accidental_rate(DetectorSpec(0.0008, 1e-6), "usd2"), 1.28e-12,
                        rel_tol=1e-9)
    assert accidental_rate(DET, "usd4") < two_fold
    with pytest.raises(ValueError, match="unknown protocol"):
        accidental_rate(DET, "usd3")


def test_asymptotic_visibility():
    v = asymptotic_visibility(100.0, 0.0028)
    assert abs(v - 0.7308) < 5e-5
    assert v > BELL_VISIBILITY_THRESHOLD
    assert math.isclose(v, visibility(1e4, 0.0028), rel_tol=1e-15)
    v_tight = asymptotic_visibility(100.0, 0.004)
    assert math.isclose(v_tight, math.exp(-0.64), rel_tol=1e-12)
    assert v_tight < BELL_VISIBILITY_THRESHOLD
    assert asymptotic_visibility(100.0, 0.0) == 1.0


def test_max_range_reference_point():
    result = max_range(REF, 0.15, 5.3, 1e9, "usd2")
    assert result.feasible
    assert result.limited_by == "rate"
    assert abs(result.distance_km_total - 400.0) < 1.0
    # tuple contract shape
    distance, feasible, limited_by = result
    assert distance == result.distance_km_total and feasible


def test_max_range_monotone_in_floor():
    floors = [0.1, 1.0, 5.3, 10.0]
    ranges = [max_range(REF, 0.15, f, 1e9, "usd2").distance_km_total for f in floors]
    for earlier, later in zip(ranges, ranges[1:]):
        assert later <= earlier + 1e-9


def test_max_range_visibility_limited():
    params = ProtocolParams(100.0, 0.004)
    result = max_range(params, 0.15, 1.0, 1e9, "usd2")
    assert result.feasible
    assert result.limited_by == "visibility"
    assert abs(result.distance_km_total - 45.125) < 0.2
    # past the returned range the visibility is at or below the Bell threshold
    ch = ChannelParams.from_total(0.15, result.distance_km_total + 0.2)
    _, nl = attenuate(100.0, ch)
    assert visibility(nl, 0.004, exact=True) <= BELL_VISIBILITY_THRESHOLD + 1e-9


def test_max_range_infeasible_floor():
    result = max_range(REF, 0.15, 1e12, 1e9, "usd2")
    assert result == RangeResult(None, False, "rate")
    with pytest.raises(ValueError, match="rate_floor"):
        max_range(REF, 0.15, 0.0, 1e9, "usd2")


def test_max_range_usd2_reaches_farther():
    r2 = max_range(REF, 0.15, 1.0, 1e9, "usd2")
    r4 = max_range(REF, 0.15, 1.0, 1e9, "usd4")
    assert r2.distance_km_total > r4.distance_km_total


def test_optimize_phi_unconstrained_stationary_points():
    alpha = math.sqrt(10.0)
    ch = ChannelParams(0.0, 0.0)
    opt2 = optimize_phi(alpha, ch, "usd2")
    assert abs(10.0 * math.sin(opt2.phi_star) ** 2 - 0.25) < 1e-6
    assert not opt2.constrained and opt2.note == ""
    opt4 = optimize_phi(alpha, ch, "usd4")
    assert abs(10.0 * math.sin(opt4.phi_star) ** 2 - 0.5) < 1e-6
    # tuple contract shape
    phi_star, p_max = opt2[0], opt2[1]
    assert phi_star == opt2.phi_star and p_max == opt2.p_max


def test_optimize_phi_matches_grid_search():
    alpha = math.sqrt(10.0)
    ch = ChannelParams(0.0, 0.0)
    for which in ("usd2", "usd4"):
        opt = optimize_phi(alpha, ch, which)
        grid = np.linspace(1e-6, math.pi / 2 * (1 - 1e-9), 10000)
        best = max(success_prob(which, alpha, 0.0, g, math.pi) for g in grid)
        assert abs(opt.p_max - best) / best < 0.01


def test_optimize_phi_visibility_constrained():
    opt = optimize_phi(100.0, LINK_400, "usd2")
    assert opt.constrained is True
    assert type(opt.phi_star) is float and type(opt.p_max) is float
    cap = 0.5 * math.log(2.0) / (4.0 * 9990.0)
    assert abs(opt.phi_star - math.asin(math.sqrt(cap))) < 1e-8
    assert visibility(9990.0, opt.phi_star, exact=True) > BELL_VISIBILITY_THRESHOLD


def test_optimize_phi_degenerate_amplitude():
    opt = optimize_phi(1e-40, ChannelParams(0.0, 0.0), "usd4")
    assert opt.p_max <= 1e-300
    assert opt.note == "degenerate flat objective"
    assert isinstance(opt, PhiOptimum)


def _feasible_at(params, loss, d, floor, which):
    alpha_prime, n_lost = attenuate(params.alpha, ChannelParams.from_total(loss, d))
    rate = 1e9 * success_prob(which, alpha_prime, n_lost, params.phi, math.pi)
    return (rate >= floor
            and visibility(n_lost, params.phi, exact=True) > BELL_VISIBILITY_THRESHOLD)


# The planners' domain: alpha 1-1e4, phi 1e-5-0.7, floors 1e-6-1e8 counts/s.
_ALPHAS = st.floats(0.0, 4.0).map(lambda x: 10.0**x)
_PHIS = st.floats(-5.0, math.log10(0.7)).map(lambda x: 10.0**x)
_FLOORS = st.floats(-6.0, 8.0).map(lambda x: 10.0**x)
_LOSSES = st.sampled_from([0.0, 0.15, 0.2, 0.5])
_WHICH = st.sampled_from(["usd2", "usd4"])


@settings(max_examples=80, deadline=None)
@given(alpha=_ALPHAS, phi=_PHIS, floor=_FLOORS, loss=_LOSSES, which=_WHICH)
@example(alpha=100.0, phi=0.0028, floor=5.3, loss=0.15, which="usd2")
@example(alpha=100.0, phi=0.004, floor=1.0, loss=0.15, which="usd2")   # visibility-limited
@example(alpha=100.0, phi=0.01, floor=1.0, loss=0.15, which="usd4")    # rate rises first
@example(alpha=1e4, phi=0.7, floor=1e-6, loss=0.15, which="usd2")      # V fails at the peak
@example(alpha=1e4, phi=0.02, floor=1e8, loss=0.2, which="usd4")       # above the peak rate
def test_max_range_edge_is_the_feasibility_edge(alpha, phi, floor, loss, which):
    params = ProtocolParams(alpha, phi)
    result = max_range(params, loss, floor, 1e9, which)
    if result.feasible:
        d = result.distance_km_total
        assert _feasible_at(params, loss, d, floor, which)
        assert d == MAX_SEARCH_KM_TOTAL or not _feasible_at(params, loss, d + 1e-6, floor, which)
    else:
        assert result.distance_km_total is None
        grid = np.linspace(0.0, MAX_SEARCH_KM_TOTAL, 2000)
        assert not any(_feasible_at(params, loss, float(d), floor, which) for d in grid)


@settings(max_examples=60, deadline=None)
@given(alpha=_ALPHAS, phi=_PHIS, floors=st.lists(_FLOORS, min_size=2, max_size=2),
       loss=_LOSSES, which=_WHICH)
@example(alpha=100.0, phi=0.01, floors=[1e-3, 10.0], loss=0.15, which="usd4")
def test_max_range_monotone_in_floor_everywhere(alpha, phi, floors, loss, which):
    params = ProtocolParams(alpha, phi)
    low, high = (max_range(params, loss, f, 1e9, which) for f in sorted(floors))
    assert low.feasible or not high.feasible
    if high.feasible:
        assert high.distance_km_total <= low.distance_km_total


@settings(max_examples=60, deadline=None)
@given(alpha=_ALPHAS, distance=st.floats(0.0, 1000.0), loss=_LOSSES, which=_WHICH)
@example(alpha=100.0, distance=400.0, loss=0.15, which="usd2")    # Bell-capped
@example(alpha=math.sqrt(10.0), distance=0.0, loss=0.0, which="usd4")
def test_optimize_phi_beats_dense_grid(alpha, distance, loss, which):
    channel = ChannelParams.from_total(loss, distance)
    opt = optimize_phi(alpha, channel, which)
    alpha_prime, n_lost = attenuate(alpha, channel)
    cap = math.log(2.0) / (8.0 * n_lost) if n_lost > 0 else math.inf
    phi_hi = math.asin(math.sqrt(cap)) if cap < 1.0 else math.pi / 2
    grid = [float(p) for p in np.linspace(phi_hi * 1e-6, phi_hi, 4000)
            if visibility(n_lost, float(p), exact=True) > BELL_VISIBILITY_THRESHOLD]
    best = max(success_prob(which, alpha_prime, n_lost, p, math.pi) for p in grid)
    assert opt.p_max >= best * (1.0 - 1e-12)
    assert visibility(n_lost, opt.phi_star, exact=True) > BELL_VISIBILITY_THRESHOLD


@pytest.mark.parametrize("loss, floor", [(0.15, 1e-300), (0.15, 1.0), (0.15, 1e12),
                                         (0.15, math.inf), (0.0, 1.0)])
@pytest.mark.parametrize("params", [REF, ProtocolParams(100.0, 0.01), ProtocolParams(1e4, 0.7),
                                    ProtocolParams(1e154, 0.7)])  # 8 alpha^2 sin^2 phi overflows
@pytest.mark.parametrize("which", ["usd2", "usd4"])
def test_max_range_evaluation_budget(params, loss, floor, which, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return success_prob(*args)

    monkeypatch.setattr(experiment, "success_prob", counted)
    max_range(params, loss, floor, 1e9, which)
    assert 1 <= len(calls) <= 60


def test_visibility_estimate():
    vis, err = visibility_estimate(53120, 8182)
    assert math.isclose(vis, (53120 - 8182) / (53120 + 8182), rel_tol=1e-15)
    assert math.isclose(err, 2.0 * math.sqrt(53120 * 8182 / (53120 + 8182) ** 3),
                        rel_tol=1e-12)
    assert visibility_estimate(0, 0) == (0.0, 0.0)
    assert visibility_estimate(10, 0) == (1.0, 0.0)


def test_monte_carlo_frozen_run():
    result = monte_carlo_run(REF, LINK_400, DET, 1e4, 12345, "usd2", 1e9)
    assert (result.counts_max, result.counts_min) == (53120, 8182)
    assert math.isclose(result.estimated_visibility, 0.7330592802844932, rel_tol=1e-12)
    assert math.isclose(result.stderr_visibility, 0.0027471147501343792, rel_tol=1e-12)
    assert result.seed == 12345


# (protocol params, km total, detector, duration_s, seed, protocol, source Hz, counts),
# recorded before the chunked draw: one session per binomial and Poisson regime.
_REGIME_SESSIONS = [
    (REF, 150.0, DET, 1000.0, 3, "usd2", 1e9, (28819669, 4151849)),  # BTPE, both settings
    (REF, 300.0, DET, 1000.0, 4, "usd2", 1e9, (167748, 26189)),  # BTPE max, inversion min
    (REF, 150.0, DET, 1000.0, 5, "usd4", 1e9, (983, 144)),
    (REF, 400.0, DET, 2000.5, 6, "usd2", 1e9, (10509, 1733)),  # a fractional last block
    (REF, 400.0, DetectorSpec(4e4, 1e-9), 1000.0, 7, "usd2", 1e9, (8657, 4036)),  # dark mean 3.2
    (REF, 150.0, DET, 1000.0, 8, "usd2", 1e6, (28799, 4197)),  # n p = 28.8, just inversion
    (ProtocolParams(100.0, 0.01), 400.0, DET, 1000.0, 9, "usd2", 1e9, (504553, 485673)),  # BTPE
    (ProtocolParams(100.0, 0.01), 500.0, DET, 1000.0, 10, "usd2", 1e9, (16044, 15373)),  # inversion
]


@pytest.mark.parametrize("params, km, det, duration_s, seed, which, rate, counts", _REGIME_SESSIONS)
def test_monte_carlo_regime_counts_frozen(params, km, det, duration_s, seed, which, rate, counts):
    result = monte_carlo_run(params, ChannelParams.from_total(0.15, km), det, duration_s, seed,
                             which, rate)
    assert (result.counts_max, result.counts_min) == counts


def test_monte_carlo_partition_independent():
    rows = list(monte_carlo_blocks(REF, LINK_400, DET, 300.5, 9, "usd2", 1e9))
    assert len(rows) == 301 and rows[-1][0] == 300
    # Any subset of blocks, drawn alone and in any order, reproduces its rows.
    picked = [300, 17, 0, 299, 5, 150, 42]
    assert redraw_blocks(REF, LINK_400, DET, 300.5, 9, "usd2", 1e9, picked) == [
        rows[i] for i in picked]
    # Sub-ranges drawn separately, last first, add up to the run totals.
    run = monte_carlo_run(REF, LINK_400, DET, 300.5, 9, "usd2", 1e9)
    cuts = [0, 1, 77, 150, 299, 301]
    parts = [redraw_blocks(REF, LINK_400, DET, 300.5, 9, "usd2", 1e9, range(a, b))
             for a, b in reversed(list(zip(cuts, cuts[1:])))]
    assert sum(r[2] for part in parts for r in part) == run.counts_max
    assert sum(r[3] for part in parts for r in part) == run.counts_min
    # A shorter session is the head of a longer one.
    assert list(monte_carlo_blocks(REF, LINK_400, DET, 120.0, 9, "usd2", 1e9)) == rows[:120]


def test_monte_carlo_zero_duration():
    result = monte_carlo_run(REF, LINK_400, DET, 0.0, 1, "usd2", 1e9)
    assert (result.counts_max, result.counts_min) == (0, 0)
    assert result.estimated_visibility == 0.0 and result.stderr_visibility == 0.0
    assert list(monte_carlo_blocks(REF, LINK_400, DET, 0.0, 1, "usd2", 1e9)) == []
    with pytest.raises(ValueError, match="duration"):
        monte_carlo_run(REF, LINK_400, DET, -1.0, 1, "usd2", 1e9)


_INDICES = st.one_of(st.sampled_from([0, 1, MAX_MC_BLOCKS - 1]),
                    st.integers(0, MAX_MC_BLOCKS - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                      st.integers(2**128, 2**256)),
       indices=st.lists(_INDICES, min_size=1, max_size=6))
@example(seed=0, indices=[0, 1, MAX_MC_BLOCKS - 1])
@example(seed=2**32 - 1, indices=[1, 0])
@example(seed=2**64, indices=[MAX_MC_BLOCKS - 1, 0])
@example(seed=2**96, indices=[0, 1])
@example(seed=2**128, indices=[0, 1, MAX_MC_BLOCKS - 1])
def test_block_keys_match_seed_sequence(seed, indices):
    # The vectorised hash gives NumPy's own SeedSequence keys, also past four
    # entropy words (seed >= 2^96), where the extra-entropy loop runs.
    keys = _block_keys(seed, np.array(indices))
    expected = [np.random.SeedSequence(entropy=(seed, i)).generate_state(2, np.uint64)
                for i in indices]
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(expected))


def test_monte_carlo_session_cap(monkeypatch):
    class KeysReached(Exception):
        pass

    def keys_reached(*args):
        raise KeysReached

    monkeypatch.setattr("catbell.experiment._block_keys", keys_reached)
    # A session of exactly MAX_MC_BLOCKS blocks passes the cap; no block is drawn here.
    with pytest.raises(KeysReached):
        next(monte_carlo_blocks(REF, LINK_400, DET, float(MAX_MC_BLOCKS), 1, "usd2", 1e9))
    # One block more, even a fractional one, is refused before any key is computed.
    for duration_s in (MAX_MC_BLOCKS + 0.5, 1e300, math.inf):
        with pytest.raises(ValueError, match="duration_s must be <= 1000000"):
            monte_carlo_blocks(REF, LINK_400, DET, duration_s, 1, "usd2", 1e9)


def test_monte_carlo_pulse_count_cap(monkeypatch):
    # rng.binomial takes an int64 pulse count: a larger block is refused on call.
    drawn = []
    monkeypatch.setattr(experiment, "_block_counts",
                        lambda *args: drawn.append(args) or (0, 0))
    narrow = DetectorSpec(0.0008, 1e-20)
    for duration_s, rate in ((2.0, 1e19), (0.5, 2e19), (1.0, 2.0**63)):
        with pytest.raises(ValueError, match="source_rate_hz must give at most"):
            monte_carlo_blocks(REF, LINK_400, narrow, duration_s, 1, "usd2", rate)
    assert not drawn
    # The largest block is what counts: half a second of 1e19 Hz is 5e18 pulses.
    assert len(list(monte_carlo_blocks(REF, LINK_400, narrow, 0.5, 1, "usd2", 1e19))) == 1
    assert len(drawn) == 1


def test_monte_carlo_dark_mean_cap(monkeypatch):
    # rng.poisson refuses a mean above _MAX_DARK_MEAN: a larger block is refused on call.
    drawn = []
    monkeypatch.setattr(experiment, "_block_counts",
                        lambda *args: drawn.append(args) or (0, 0))
    loud = DetectorSpec(1e14, 1e-9)  # 2e19 usd2 accidentals per second
    for duration_s in (2.0, 0.5):
        with pytest.raises(ValueError, match="dark_rate_hz must give at most"):
            monte_carlo_blocks(REF, LINK_400, loud, duration_s, 1, "usd2", 1e9)
    assert not drawn
    assert len(list(monte_carlo_blocks(REF, LINK_400, loud, 0.4, 1, "usd2", 1e9))) == 1
    rng = np.random.default_rng(0)
    rng.poisson(experiment._MAX_DARK_MEAN)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(math.nextafter(experiment._MAX_DARK_MEAN, math.inf))


def _restarted(key):
    """A Philox bit generator in the state _block_counts restarts its generator to."""
    bit_generator = np.random.Philox(key=0)
    bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return bit_generator


def _block_draws(key, pulses, p_max, p_min, dark_mean):
    rng = np.random.Generator(np.random.Philox(key=0))
    return experiment._block_counts(rng, key, pulses, p_max, p_min, dark_mean)


def test_monte_carlo_cap_edges_draw():
    # A full block at the largest pulse count, or the largest dark mean, draws
    # what _block_counts draws alone; the next float up is refused.
    report = experiment.protocol_report(REF, LINK_400, "usd2")
    key = _block_keys(1, np.arange(1))[0]
    narrow = DetectorSpec(0.0008, 1e-20)
    rate = math.nextafter(2.0**63, 0.0)  # 2^63 - 1024 pulses; n p = 49, BTPE
    assert list(monte_carlo_blocks(REF, LINK_400, narrow, 1.0, 1, "usd2", rate)) == [
        (0, 0.0, *_block_draws(key, round(rate), report.p_max, report.p_min,
                               accidental_rate(narrow, "usd2")))]
    with pytest.raises(ValueError, match="source_rate_hz must give at most"):
        monte_carlo_blocks(REF, LINK_400, narrow, 1.0, 1, "usd2", math.nextafter(rate, math.inf))
    mean = experiment._MAX_DARK_MEAN
    c_max, c_min = _block_draws(key, 10**9, report.p_max, report.p_min, mean)
    assert list(experiment._draw_chunks(report.p_max, report.p_min, mean, 1.0, 1, 1e9)) == [
        (0, [c_max], [c_min])]
    # With a 0.5 s window, a dark rate d gives d^2 usd2 accidentals per second.
    loudest = 3037000494.9760494
    loud = DetectorSpec(loudest, 0.5)
    assert accidental_rate(loud, "usd2") <= mean
    assert list(monte_carlo_blocks(REF, LINK_400, loud, 1.0, 1, "usd2", 1.0)) == [
        (0, 0.0, *_block_draws(key, 1, report.p_max, report.p_min, accidental_rate(loud, "usd2")))]
    with pytest.raises(ValueError, match="dark_rate_hz must give at most"):
        monte_carlo_blocks(REF, LINK_400, DetectorSpec(math.nextafter(loudest, math.inf), 0.5),
                           1.0, 1, "usd2", 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**130), counter=st.integers(1, 2))
def test_philox_words_match_numpy(seed, counter):
    keys = _block_keys(seed, np.arange(8))
    words = np.stack(experiment._philox_words(keys, counter), axis=1)
    for key, row in zip(keys, words):
        raw = _restarted(key).random_raw(4 * counter)
        assert np.array_equal(row, raw[-4:])


_PULSES = st.one_of(
    st.sampled_from([0, 1, 31, 10**9, 2**53 + 1, int(math.nextafter(2.0**63, 0.0))]),
    st.integers(0, experiment._MAX_PULSES))
_DARK_MEANS = st.one_of(st.sampled_from([0.0, 1e-15, 10.0, experiment._MAX_DARK_MEAN]),
                        st.floats(0.0, 10.0, exclude_min=True, exclude_max=True))


@st.composite
def _binomials(draw):
    """(pulses, p_max, p_min), p from the edges of NumPy's binomial branches at those pulses."""
    pulses = draw(_PULSES)
    edges = [0.0, 1.0, 0.5, math.nextafter(0.5, 1.0)]
    picks = [st.floats(0.0, 1.0)]
    if pulses:
        at = 30.0 / pulses  # inversion below, BTPE above
        edges += [math.nextafter(at, 0.0), at, math.nextafter(at, 1.0), 1.0 - at]
        if at < 0.5:
            picks.append(st.floats(at, 0.5))
    p = st.one_of(st.sampled_from([e for e in edges if 0.0 <= e <= 1.0]), *picks)
    return (pulses, *sorted((draw(p), draw(p)), reverse=True))


@settings(max_examples=300, deadline=None)
@given(binomials=_binomials(), dark_mean=_DARK_MEANS, seed=st.integers(0, 2**130))
@example(binomials=(2**63 - 1, 1e-18, 1e-18), dark_mean=0.0, seed=1)  # log1p(-p), not log(1 - p)
@example(binomials=(2**63 - 1024, 1.0, 0.5), dark_mean=experiment._MAX_DARK_MEAN, seed=2)
def test_chunk_counts_match_block_counts(binomials, dark_mean, seed):
    # The array first tries and their redraws give every block's scalar draws,
    # bit for bit, also where a block's count passes int64.
    pulses, p_max, p_min = binomials
    keys = _block_keys(seed, np.arange(64))
    rng = np.random.Generator(np.random.Philox(key=0))
    counts = experiment._chunk_counts(rng, keys, pulses, p_max, p_min, dark_mean)
    assert list(zip(*counts)) == [_block_draws(key, pulses, p_max, p_min, dark_mean)
                                  for key in keys]


def test_monte_carlo_blocks_draws_as_read(monkeypatch):
    # Reading the head of a session longer than one chunk draws that chunk only.
    keyed = []
    keys = experiment._block_keys
    monkeypatch.setattr(experiment, "_block_keys",
                        lambda seed, indices: keyed.append(indices.tolist()) or keys(seed, indices))
    session = monte_carlo_blocks(REF, LINK_400, DET, 2.0 * experiment._KEY_CHUNK + 0.5, 9,
                                 "usd2", 1e9)
    head = list(itertools.islice(session, 3))
    assert [row[0] for row in head] == [0, 1, 2]
    assert keyed == [list(range(experiment._KEY_CHUNK))]


def test_monte_carlo_blocks_sum_to_run():
    blocks = list(monte_carlo_blocks(REF, LINK_400, DET, 2.5, 5, "usd2", 1e9))
    run = monte_carlo_run(REF, LINK_400, DET, 2.5, 5, "usd2", 1e9)
    assert [b[0] for b in blocks] == [0, 1, 2]
    assert [b[1] for b in blocks] == [0.0, 1.0, 2.0]
    assert sum(b[2] for b in blocks) == run.counts_max
    assert sum(b[3] for b in blocks) == run.counts_min


def test_monte_carlo_seed_sensitivity_and_mean():
    a = monte_carlo_run(REF, LINK_400, DET, 1e3, 1, "usd2", 1e9)
    b = monte_carlo_run(REF, LINK_400, DET, 1e3, 2, "usd2", 1e9)
    assert (a.counts_max, a.counts_min) != (b.counts_max, b.counts_min)
    estimates = [
        monte_carlo_run(REF, LINK_400, DET, 1e3, seed, "usd2", 1e9).estimated_visibility
        for seed in range(30)
    ]
    expected = 0.7310411110998499
    sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(float(np.mean(estimates)) - expected) < 5.0 * sem


def test_monte_carlo_stderr_scaling():
    durations = [1e2, 1e3, 1e4]
    errs = [
        monte_carlo_run(REF, LINK_400, DET, d, 777, "usd2", 1e9).stderr_visibility
        for d in durations
    ]
    slope = np.polyfit(np.log(durations), np.log(errs), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_monte_carlo_validation():
    with pytest.raises(ValueError, match="source_rate_hz"):
        monte_carlo_run(REF, LINK_400, DET, 1.0, 1, "usd2", 0.0)
    wide = DetectorSpec(0.0008, 2e-9)
    with pytest.raises(ValueError, match="coincidence window"):
        monte_carlo_run(REF, LINK_400, wide, 1.0, 1, "usd2", 1e9)


@pytest.mark.parametrize("fn, args, name", [
    (counting_rates, (0.1, 0.05, math.nan), "source_rate_hz"),
    (max_range, (REF, 0.15, math.nan, 1e9, "usd2"), "rate_floor"),
    (max_range, (REF, 0.15, 1.0, math.nan, "usd2"), "source_rate_hz"),
    (monte_carlo_blocks, (REF, LINK_400, DET, math.nan, 1, "usd2", 1e9), "duration_s"),
    (monte_carlo_blocks, (REF, LINK_400, DET, 1.0, 1, "usd2", math.nan), "source_rate_hz"),
    (monte_carlo_run, (REF, LINK_400, DET, math.nan, 1, "usd2", 1e9), "duration_s"),
    (monte_carlo_run, (REF, LINK_400, DET, 1.0, 1, "usd2", math.nan), "source_rate_hz"),
    (monte_carlo_blocks, (REF, LINK_400, DET, 1.0, -1, "usd2", 1e9), "seed"),
    (attenuate, (math.nan, LINK_400), "alpha"),
    (visibility, (math.nan, 0.003), "n_lost"),
    (optimize_phi, (math.nan, ChannelParams.from_total(0.15, 400.0), "usd2"), "alpha"),
])
def test_nan_arguments_refused_by_name(fn, args, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        fn(*args)


def test_monte_carlo_blocks_refuses_non_integer_seed_on_call(monkeypatch):
    drawn = []
    monkeypatch.setattr(experiment, "_block_counts", lambda *args: drawn.append(args))
    with pytest.raises(TypeError):
        monte_carlo_blocks(REF, LINK_400, DET, 1.0, 1.5, "usd2", 1e9)
    assert not drawn


def test_chsh_margin():
    assert abs(chsh_margin(1.0 / math.sqrt(2.0))) < 1e-12
    assert chsh_margin(0.7310411110998499) > 0.0
    assert chsh_margin(0.5) < 0.0
