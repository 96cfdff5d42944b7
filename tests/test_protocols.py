"""Source construction, both discrimination protocols, visibility, CHSH."""

import cmath
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catbell import (
    CHSH_OPTIMAL_ANGLES,
    PROTOCOLS,
    ChannelParams,
    DetectorSpec,
    ProtocolParams,
    attenuate,
    chsh_s,
    monte_carlo_blocks,
    protocol_report,
    success_prob,
    visibility,
)
from catbell import experiment
from catbell.experiment import SQRT8, usd2_displacement, usd4_displacements
from catbell.protocols import (
    BEAM_1,
    BEAM_2,
    ENV_A,
    ENV_B,
    build_analysis_state,
    pipeline_prob,
)
from catbell.states import (
    apply_displacement,
    inner_product,
    make_state,
    project_single_photon,
    project_vacuum,
)
from composition import LossSpec, apply_loss, build_source_state
from conftest import channel_for, coherent_series
from reference import reference_probs

LINK_140 = ChannelParams(0.15, 70.0)
LINK_400 = ChannelParams(0.15, 200.0)
REF = ProtocolParams(100.0, 0.0028)


def test_source_state_collapses_at_zero_phase():
    state = build_source_state(ProtocolParams(3.0, 0.0))
    assert len(state.branches) == 2
    assert state.branches[0].amps == state.branches[1].amps
    assert math.isclose(state.squared_norm(), 1.0, rel_tol=1e-12)


def test_source_state_reference_amplitudes():
    state = build_source_state(REF)
    plus = 100.0 * cmath.exp(1j * 0.0028)
    minus = 100.0 * cmath.exp(-1j * 0.0028)
    assert abs(state.branches[0].amps[BEAM_1] - plus) < 1e-12
    assert abs(state.branches[0].amps[BEAM_2] - minus) < 1e-12
    assert abs(state.branches[1].amps[BEAM_1] - minus) < 1e-12
    assert math.isclose(state.squared_norm(), 1.0, rel_tol=1e-12)


def test_source_state_norm_against_series_grid():
    params = ProtocolParams(2.0, 0.17)
    state = build_source_state(params)
    grid = np.zeros((48, 48), dtype=complex)
    for b in state.branches:
        grid += b.coeff * np.outer(coherent_series(b.amps[BEAM_1], 48),
                                   coherent_series(b.amps[BEAM_2], 48))
    norm2 = float(np.vdot(grid, grid).real)
    assert abs(norm2 - state.squared_norm()) < 1e-8


def test_analysis_state_lossless_sign_pattern():
    params = ProtocolParams(2.0, 0.1, 0.0, 0.0)
    state = build_analysis_state(params, ChannelParams(0.0, 0.0))
    assert len(state.branches) == 8
    signs = [b.coeff.real * 8.0 for b in state.branches]
    assert signs == [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]
    for b in state.branches:
        assert b.coeff.imag == 0.0
        assert b.amps[ENV_A] == 0j and b.amps[ENV_B] == 0j


def test_analysis_state_environment_amplitudes():
    params = ProtocolParams(5.0, 0.2, 0.3, 0.0)
    ch = channel_for(5.0, 3.0)
    state = build_analysis_state(params, ch)
    r = math.sqrt(1.0 - ch.transmittance)
    for b in state.branches:
        assert abs(abs(b.amps[ENV_A]) - r * 5.0) < 1e-12
        assert abs(abs(b.amps[ENV_B]) - r * 5.0) < 1e-12
        assert abs(b.amps[ENV_A] * b.amps[ENV_B] - (r * 5.0) ** 2) < 1e-10


def compose_analysis_state(params: ProtocolParams, channel: ChannelParams):
    """Build the eight-branch analysis state compositionally.

    Each source term (sign s = +-1 on the conditional phase) is taken through
    channel loss on both beams and then split at the two analysis
    interferometers.  The photon at the first site is the one that imprinted
    the source phase, so its two path amplitudes inherit the source sign:
    (-s or +s e^{i sigma1})/2; the second site splits identically for both
    terms with (+1 or -e^{i sigma2})/2.  An independent check of the
    eight-branch table transcribed in build_analysis_state.
    """
    a = params.alpha
    eta = channel.transmittance
    merged = []
    for s in (1.0, -1.0):
        term = make_state(
            (BEAM_1, BEAM_2),
            [(0.5, {BEAM_1: a * cmath.exp(1j * s * params.phi),
                    BEAM_2: a * cmath.exp(-1j * s * params.phi)})],
        )
        term = apply_loss(term, LossSpec(eta, BEAM_1, ENV_A))
        term = apply_loss(term, LossSpec(eta, BEAM_2, ENV_B))
        term = _analysis_split(term, BEAM_1, params.phi,
                               -s, s * cmath.exp(1j * params.sigma1))
        term = _analysis_split(term, BEAM_2, params.phi,
                               1.0, -cmath.exp(1j * params.sigma2))
        merged.extend((b.coeff, b.amps) for b in term.branches)
    return make_state((BEAM_1, BEAM_2, ENV_A, ENV_B), merged)


def _analysis_split(state, beam, phi, coeff_plus, coeff_minus):
    """Split every branch over the analysis photon's two conditional phases."""
    rot_plus = 1j * cmath.exp(1j * phi)
    rot_minus = 1j * cmath.exp(-1j * phi)
    branches = []
    for b in state.branches:
        nu = b.amps[beam]
        for coeff, rot in ((coeff_plus, rot_plus), (coeff_minus, rot_minus)):
            amps = dict(b.amps)
            amps[beam] = rot * nu
            branches.append((b.coeff * coeff / 2.0, amps))
    return make_state(state.modes, branches)


def test_direct_equals_compositional_construction():
    # compare as physical states: branch bookkeeping may order nearly
    # cancelling pairs differently, so check the Hilbert-space distance
    rng = np.random.default_rng(31)
    for _ in range(6):
        params = ProtocolParams(
            alpha=rng.uniform(1.0, 8.0),
            phi=rng.uniform(0.05, 0.3),
            sigma1=rng.uniform(0.0, 2 * math.pi),
            sigma2=rng.uniform(0.0, 2 * math.pi),
        )
        ch = ChannelParams(0.2, rng.uniform(0.5, 10.0))
        direct = build_analysis_state(params, ch)
        composed = compose_analysis_state(params, ch)
        assert direct.modes == composed.modes
        dd = direct.squared_norm()
        cc = composed.squared_norm()
        dc = inner_product(direct, composed)
        assert abs(dd - cc) < 1e-12
        assert abs(dc.imag) < 1e-13
        assert abs(dd + cc - 2.0 * dc.real) < 1e-13


def test_usd4_reference_point():
    report = protocol_report(REF, LINK_140, "usd4")
    assert abs(report.p_max - 1.97e-9) / 1.97e-9 < 0.02
    assert abs(report.p_min - 0.28e-9) / 0.28e-9 < 0.02
    assert abs(report.visibility - 0.75) < 0.005
    # frozen regression values
    assert math.isclose(report.p_max, 1.9741020491764506e-09, rel_tol=1e-9)
    assert math.isclose(report.p_min, 2.800491049799894e-10, rel_tol=1e-9)
    assert math.isclose(report.visibility, 0.751525886395324, rel_tol=1e-9)


def test_usd2_reference_point():
    report = protocol_report(REF, LINK_400, "usd2")
    assert abs(report.p_max - 5.3e-9) / 5.3e-9 < 0.02
    assert abs(report.p_min - 0.83e-9) / 0.83e-9 < 0.02
    assert abs(report.visibility - 0.73) < 0.005
    assert abs(report.chsh_s - 2.067) < 0.005
    assert report.chsh_s > 2.0
    assert math.isclose(report.p_max, 5.31661060486151e-09, rel_tol=1e-9)
    assert math.isclose(report.p_min, 8.260633856868718e-10, rel_tol=1e-9)
    assert math.isclose(report.visibility, 0.7310411110998499, rel_tol=1e-9)
    assert math.isclose(report.chsh_s, 2.067696507939409, rel_tol=1e-9)


def test_zero_phase_detects_nothing():
    params = ProtocolParams(50.0, 0.0)
    for which in ("usd2", "usd4"):
        report = protocol_report(params, LINK_140, which)
        assert report.p_success == 0.0
        assert report.p_max == 0.0
        assert success_prob(which, 10.0, 5.0, 0.0, math.pi) == 0.0


def test_pipeline_matches_closed_form():
    rng = np.random.default_rng(314)
    for i in range(30):
        ap = rng.uniform(0.5, 40.0)
        phi = rng.uniform(1e-3, 0.3)
        nl = rng.uniform(0.0, 1e4)
        s1, s2 = rng.uniform(0, 2 * math.pi, size=2)
        which = ("usd2", "usd4")[i % 2]
        alpha = math.sqrt(ap * ap + nl)
        params = ProtocolParams(alpha, phi, s1, s2)
        ch = channel_for(alpha, ap, loss_db_per_km=0.17)
        closed = success_prob(which, ap, nl, phi, s1 - s2)
        pipe = pipeline_prob(params, ch, which)
        if closed < 1e-280:
            continue  # both sides in denormal territory
        assert abs(pipe - closed) / closed < 1e-10


@pytest.mark.parametrize("which, channel", [("usd4", LINK_140), ("usd2", LINK_400)])
def test_pipeline_pins_served_extremes_at_paper_links(which, channel):
    # The reference-point tests read the served closed form; this keeps the
    # branch pipeline's own numbers pinned at the same two links.
    report = protocol_report(REF, channel, which)
    for sigma1, served in ((math.pi, report.p_max), (0.0, report.p_min)):
        pipe = pipeline_prob(ProtocolParams(REF.alpha, REF.phi, sigma1, 0.0), channel, which)
        assert abs(pipe - served) <= 1e-10 * served


def test_served_delta_sigma_sign_and_overflow():
    # p_success is taken at sigma1 - sigma2, as in the pipeline; a difference
    # that overflows is formed from the phases' sines and cosines.
    for s1, s2 in ((0.4, 1.9), (1e308, -1e308), (-1.7e308, 1.5e308)):
        params = ProtocolParams(REF.alpha, REF.phi, s1, s2)
        served = protocol_report(params, LINK_400, "usd2")
        p_ref, p_max, _, _ = reference_probs("usd2", REF.alpha, REF.phi, 0.15, 400.0,
                                             mpmath.mpf(s1) - mpmath.mpf(s2))
        assert abs(served.p_success - p_ref) <= 1e-12 * p_max
    pipe = pipeline_prob(ProtocolParams(REF.alpha, REF.phi, 1e308, -1e308), LINK_400, "usd2")
    served = protocol_report(ProtocolParams(REF.alpha, REF.phi, 1e308, -1e308), LINK_400, "usd2")
    assert abs(pipe - served.p_success) <= 1e-10 * served.p_max


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(PROTOCOLS),
       alpha=st.floats(1.0, 300.0),
       phi=st.floats(1e-4, 0.3),
       distance=st.one_of(st.just(0.0), st.floats(0.0, 600.0)),
       delta_sigma=st.floats(0.0, 2 * math.pi))
def test_served_report_matches_50_digit_referee(which, alpha, phi, distance, delta_sigma):
    report = protocol_report(ProtocolParams(alpha, phi, delta_sigma, 0.0),
                             ChannelParams.from_total(0.15, distance), which)
    p_ref, p_max, p_min, _ = reference_probs(which, alpha, phi, 0.15, distance, delta_sigma)
    # Below the smallest normal float the envelope u^k e^{-8u} loses its
    # relative precision (and underflows to 0), so the bound gains that floor.
    tol = 1e-12 * p_max + sys.float_info.min
    for served, ref in ((report.p_success, p_ref), (report.p_max, p_max), (report.p_min, p_min)):
        assert abs(served - ref) <= tol
        assert 0.0 <= served <= 1.0
    assert 0.0 <= report.visibility <= 1.0
    assert report.chsh_s <= 2.0 * math.sqrt(2.0)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(PROTOCOLS),
       alpha=_log_uniform(0.0, 6.0),
       phi=_log_uniform(-6.0, math.log10(0.78)),
       distance=st.one_of(st.just(0.0), _log_uniform(-9.0, 0.0), st.floats(0.0, 1000.0)),
       loss=st.floats(0.0, 2.0),
       delta_sigma=st.floats(allow_nan=False, allow_infinity=False))
@example(which="usd2", alpha=130.0, phi=0.0234, distance=190.0, loss=0.15, delta_sigma=0.0)
def test_served_visibility_matches_referee_to_its_error_model(which, alpha, phi, distance, loss,
                                                              delta_sigma):
    # The served V is visibility(n_lost, phi, exact=True) wherever p_max + p_min
    # survives in float, and 0 (with S = 0) where it does not.
    report = protocol_report(ProtocolParams(alpha, phi, delta_sigma, 0.0),
                             ChannelParams.from_total(loss, distance), which)
    assert report.chsh_s == SQRT8 * report.visibility
    if report.p_max + report.p_min == 0:
        assert report.visibility == 0.0
        return
    vis_ref = reference_probs(which, alpha, phi, loss, distance, delta_sigma)[3]
    if vis_ref < sys.float_info.min:
        return
    # attenuate forms n_lost = alpha^2 - alpha'^2, which rounds n_lost to about
    # ulp(alpha^2) and so V by 4 sin^2 phi times that; drop this term once
    # n_lost is computed without that cancellation.
    n_lost_rounding = 4.0 * math.sin(phi) ** 2 * alpha**2 * 2.0**-50
    assert abs(report.visibility - vis_ref) <= (1e-12 + n_lost_rounding) * vis_ref


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(PROTOCOLS),
       alpha=_log_uniform(0.0, 6.0),
       phi=_log_uniform(-6.0, math.log10(0.78)),
       distance=st.one_of(st.just(0.0), _log_uniform(-9.0, 0.0), st.floats(0.0, 1000.0)),
       loss=st.floats(0.0, 2.0),
       sigma1=_FINITE,
       sigma2=st.one_of(st.just(0.0), _FINITE))
@example(which="usd4", alpha=1e6, phi=0.5, distance=0.0, loss=0.0, sigma1=0.3,
         sigma2=0.0)  # e^{-8u} underflows
@example(which="usd2", alpha=100.0, phi=0.0028, distance=400.0, loss=0.15, sigma1=1e308,
         sigma2=-1e308)  # sigma1 - sigma2 overflows
def test_report_serves_closed_form_and_exact_visibility(which, alpha, phi, distance, loss,
                                                        sigma1, sigma2):
    # protocol_report shares success_prob's parts; its numbers are those of
    # success_prob at (delta_sigma, pi, 0) and of the exact visibility, bit for bit.
    channel = ChannelParams.from_total(loss, distance)
    report = protocol_report(ProtocolParams(alpha, phi, sigma1, sigma2), channel, which)
    alpha_prime, n_lost = attenuate(alpha, channel)
    delta_sigma = sigma1 - sigma2
    if math.isinf(delta_sigma):
        s1, s2 = sigma1, sigma2
        delta_sigma = math.atan2(math.sin(s1) * math.cos(s2) - math.cos(s1) * math.sin(s2),
                                 math.cos(s1) * math.cos(s2) + math.sin(s1) * math.sin(s2))
    p_success, p_max, p_min = (success_prob(which, alpha_prime, n_lost, phi, dsig)
                               for dsig in (delta_sigma, math.pi, 0.0))
    vis = visibility(n_lost, phi, exact=True) if p_max + p_min > 0 else 0.0
    want = (p_success, p_max, p_min, vis, SQRT8 * vis)
    served = (report.p_success, report.p_max, report.p_min, report.visibility, report.chsh_s)
    assert [x.hex() for x in served] == [x.hex() for x in want]


def test_report_looks_its_protocol_up_once(monkeypatch):
    calls = []
    lookup = experiment.get_protocol
    monkeypatch.setattr(experiment, "get_protocol",
                        lambda which: calls.append(which) or lookup(which))
    protocol_report(ProtocolParams(REF.alpha, REF.phi, 0.4, 0.0), LINK_400, "usd4")
    assert calls == ["usd4"]


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(PROTOCOLS),
       eight_u=st.floats(708.5, 745.0),
       phi=_log_uniform(-5.0, math.log10(0.78)),
       distance=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
       loss=st.floats(0.0, 0.3))
@example(which="usd4", eight_u=721.0788134206889, phi=0.005175221742068319, distance=0.0,
         loss=0.0)  # e^{-8u} = 6.9e-314
def test_envelope_keeps_its_digits_where_decay_is_subnormal(which, eight_u, phi, distance, loss):
    # alpha is set so that 8u = 8 alpha'^2 sin^2 phi is about eight_u, where
    # e^{-8u} is subnormal; p_max keeps its digits wherever it is a normal float.
    channel = ChannelParams.from_total(loss, distance)
    alpha = math.sqrt(eight_u / 8.0 / channel.transmittance) / math.sin(phi)
    report = protocol_report(ProtocolParams(alpha, phi), channel, which)
    p_max = reference_probs(which, alpha, phi, loss, distance, 0.0)[1]
    if p_max < sys.float_info.min:
        return
    assert abs(report.p_max - p_max) <= 1e-12 * p_max


def test_visibility_reference_values():
    assert abs(visibility(9108.75, 0.0028) - 0.7515) < 1e-4
    assert abs(visibility(9990.0, 0.0028) - 0.7308) < 5e-4
    assert visibility(0.0, 0.7) == 1.0
    assert visibility(1e308, 0.0, exact=True) == 1.0  # 4 * n_lost overflows; no inf * 0
    with pytest.raises(ValueError, match="non-negative"):
        visibility(-1.0, 0.1)


def test_visibility_quadratic_vs_exact_form():
    for nl in (10.0, 1e3, 9990.0):
        for phi in (1e-3, 0.01, 0.05):
            taylor = visibility(nl, phi)
            exact = visibility(nl, phi, exact=True)
            # log ratio is 4*n_lost*(phi^2 - sin^2 phi), bounded by 4*n_lost*phi^4/3
            assert abs(math.log(taylor) - math.log(exact)) <= 4.0 * nl * phi**4 / 3.0 + 1e-15


def test_visibility_independent_of_surviving_amplitude():
    nl, phi = 2500.0, 0.0028
    values = []
    for ap in (1.0, 3.0, 10.0, 30.0):
        alpha = math.sqrt(ap * ap + nl)
        ch = channel_for(alpha, ap)
        rep2 = protocol_report(ProtocolParams(alpha, phi), ch, "usd2")
        rep4 = protocol_report(ProtocolParams(alpha, phi), ch, "usd4")
        assert abs(rep2.visibility - rep4.visibility) < 1e-12
        values.append(rep2.visibility)
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-12


def test_rate_report_identities():
    for which in ("usd2", "usd4"):
        for dsig in (0.3, 1.2, 2.9):
            params = ProtocolParams(60.0, 0.003, dsig, 0.0)
            report = protocol_report(params, LINK_400, which)
            vis = (report.p_max - report.p_min) / (report.p_max + report.p_min)
            assert abs(report.visibility - vis) < 1e-12
            assert abs(report.chsh_s - 2.0 * math.sqrt(2.0) * report.visibility) < 1e-12
            assert report.p_min <= report.p_success <= report.p_max


def test_chsh_values():
    assert math.isclose(chsh_s(1.0), 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert abs(chsh_s(1.0 / math.sqrt(2.0)) - 2.0) < 1e-12
    assert abs(chsh_s(0.7308) - 2.067) < 5e-4
    # default pattern is the maximum over analyzer angles
    rng = np.random.default_rng(5)
    best = chsh_s(0.9)
    for _ in range(500):
        angles = tuple(rng.uniform(0, 2 * math.pi, size=4))
        assert chsh_s(0.9, angles) <= best + 1e-9


def test_displacements_null_their_target_families():
    ap, phi = 2.4, 0.19
    left, right = usd4_displacements(ap, phi)
    scale = ap / math.sqrt(2.0)
    assert abs(1j * scale * cmath.exp(-2j * phi) + left) < 1e-14
    assert abs(1j * scale * cmath.exp(2j * phi) + right) < 1e-14
    assert usd2_displacement(ap) == -1j * ap
    assert abs(1j * ap + usd2_displacement(ap)) == 0.0


def test_click_model_deviation_small_and_shrinking():
    # A click detector asks for at least one photon: P(all click) is the
    # inclusion-exclusion sum over vacuum projections of the detector modes.
    ch = ChannelParams(0.0, 0.0)
    detectors = (BEAM_1, BEAM_2)

    def rel_dev(ap):
        params = ProtocolParams(ap, 0.1, math.pi, 0.0)
        state = build_analysis_state(params, ch)
        for mode in detectors:
            state = apply_displacement(state, mode, usd2_displacement(ap))
        default = state
        for mode in detectors:
            default = project_single_photon(default, mode)
        click = 0.0
        for size in range(len(detectors) + 1):
            for subset in itertools.combinations(detectors, size):
                projected = state
                for mode in subset:
                    projected = project_vacuum(projected, mode)
                click += (-1.0) ** size * projected.squared_norm()
        return abs(click - default.squared_norm()) / default.squared_norm()

    bound = 4.0 * (0.5 * math.sin(0.1)) ** 2
    assert rel_dev(0.5) < bound
    assert rel_dev(0.15) < rel_dev(0.5)


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        ProtocolParams(0.0, 0.1)
    with pytest.raises(ValueError, match="alpha must have a finite square"):
        ProtocolParams(1.35e154, 0.1)
    ProtocolParams(1.34e154, 0.1)  # alpha^2 = 1.8e308 is still a float
    with pytest.warns(UserWarning, match="small-phase") as record:
        ProtocolParams(1.0, 1.0)
    assert record[0].filename == __file__


def test_unknown_protocol_rejected():
    message = r"unknown protocol 'usd3', expected one of \('usd2', 'usd4'\)"
    with pytest.raises(ValueError, match=message):
        protocol_report(REF, LINK_140, "usd3")
    with pytest.raises(ValueError, match=message):
        pipeline_prob(REF, LINK_140, "usd3")
    with pytest.raises(ValueError, match=message):
        success_prob("usd3", 1.0, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError, match=message):
        monte_carlo_blocks(REF, LINK_140, DetectorSpec(), 3.0, 1, "usd3", 1e9)
