"""Branch algebra: overlaps, projections, norms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catbell import (
    Branch,
    SuperposedState,
    add_mode,
    inner_product,
    make_state,
    overlap,
    project_single_photon,
    project_vacuum,
    single_photon_amp,
    vacuum_amp,
)
from conftest import coherent_series

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
small_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=3.0
)


def test_overlap_identical_states_is_one():
    assert overlap(2 + 0j, 2 + 0j) == 1.0
    assert overlap(0j, 0j) == 1.0


@given(finite_complex)
@settings(deadline=None)
def test_overlap_self_exactly_one(mu):
    assert overlap(mu, mu) == 1.0 + 0j


@given(small_complex, small_complex)
@settings(deadline=None)
def test_overlap_magnitude_formula(mu, nu):
    got = abs(overlap(mu, nu)) ** 2
    want = math.exp(-abs(mu - nu) ** 2)
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_overlap_environment_visibility_reference_point():
    # environment amplitudes of the 140 km link: (r*alpha)^2 = 9108.75
    ra = math.sqrt(9108.75)
    phi = 0.0028
    vis = abs(overlap(ra * cmath.exp(1j * phi), ra * cmath.exp(-1j * phi))) ** 2
    assert abs(vis - 0.7515) < 1e-4
    assert math.isclose(vis, math.exp(-4.0 * 9108.75 * math.sin(phi) ** 2), rel_tol=1e-12)


def test_overlap_opposite_unit_amplitudes_against_series():
    got = abs(overlap(1 + 0j, -1 + 0j)) ** 2
    series = complex(np.vdot(coherent_series(1 + 0j), coherent_series(-1 + 0j)))
    assert abs(got - abs(series) ** 2) < 1e-12
    assert math.isclose(got, math.exp(-4.0), rel_tol=1e-12)


def test_single_photon_amp_vacuum_is_zero():
    assert single_photon_amp(0j) == 0j


def test_single_photon_amp_reference_magnitude():
    # displaced detector amplitude of the 140 km link: |nu|^2 = 2*891.251*sin^2(phi)
    x = 2.0 * 891.251 * math.sin(0.0028) ** 2
    assert abs(x - 0.013974) < 1e-6
    got = abs(single_photon_amp(complex(math.sqrt(x), 0.0))) ** 2
    assert math.isclose(got, x * math.exp(-x), rel_tol=1e-12)
    assert abs(got - 0.013780) < 1e-6


def test_single_photon_amp_unit_amplitude_against_series():
    got = abs(single_photon_amp(1 + 0j)) ** 2
    c1 = coherent_series(1 + 0j)[1]
    assert abs(got - abs(c1) ** 2) < 1e-14
    assert math.isclose(got, math.exp(-1.0), rel_tol=1e-12)


@given(finite_complex)
@settings(deadline=None)
def test_single_photon_amp_bounded_by_inverse_e(nu):
    assert abs(single_photon_amp(nu)) ** 2 <= math.exp(-1.0) + 1e-15


def test_vacuum_amp():
    assert vacuum_amp(0j) == 1.0
    assert math.isclose(vacuum_amp(2j), math.exp(-2.0), rel_tol=1e-12)


def test_inner_product_unit_branch():
    state = make_state(("m",), [(1.0, {"m": 1.5 + 0.5j})])
    assert abs(inner_product(state, state) - 1.0) < 1e-15


def test_inner_product_two_branch_norm_identity():
    gp, gm = 1.2 + 0.3j, 0.9 - 0.4j
    c = 1.0 / math.sqrt(2.0)
    state = make_state(("m",), [(c, {"m": gp}), (c, {"m": gm})])
    want = 1.0 + overlap(gp, gm).real
    assert math.isclose(state.squared_norm(), want, rel_tol=1e-12)


@given(st.lists(st.tuples(small_complex, small_complex, small_complex), min_size=1, max_size=3))
@settings(deadline=None)
def test_inner_product_hermitian_and_norm_bounds(rows):
    branches_a = [(c, {"x": a1, "y": a2}) for c, a1, a2 in rows]
    branches_b = [(c * 1j - 0.1, {"x": a2, "y": a1}) for c, a1, a2 in rows]
    a = make_state(("x", "y"), branches_a)
    b = make_state(("x", "y"), branches_b)
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert abs(ab - ba.conjugate()) < 1e-10 * max(1.0, abs(ab))
    norm2 = a.squared_norm()
    assert norm2 >= -1e-12
    if norm2 > 0:
        # Scale the largest coefficient to 1 first: a subnormal norm2 (coefficients
        # near 1e-160) keeps too few digits for 1/sqrt(norm2) to give a unit state.
        big = max(abs(br.coeff) for br in a.branches)
        scaled = make_state(a.modes, [(br.coeff / big, br.amps) for br in a.branches])
        scale = 1.0 / math.sqrt(scaled.squared_norm())
        unit = make_state(a.modes, [(br.coeff * scale, br.amps) for br in scaled.branches])
        assert 0.0 <= unit.squared_norm() <= 1.0 + 1e-12


def test_inner_product_registry_mismatch_rejected():
    a = make_state(("x",), [(1.0, {"x": 0j})])
    b = make_state(("y",), [(1.0, {"y": 0j})])
    with pytest.raises(ValueError, match="registries differ"):
        inner_product(a, b)


def test_project_single_photon_drops_vacuum_branch():
    state = make_state(
        ("m", "k"),
        [(0.5, {"m": 0j, "k": 1 + 0j}), (0.5, {"m": 1 + 0j, "k": 1 + 0j})],
    )
    out = project_single_photon(state, "m")
    assert out.modes == ("k",)
    assert len(out.branches) == 1
    assert abs(out.branches[0].coeff - 0.5 * single_photon_amp(1 + 0j)) < 1e-15


def test_projection_commutes_across_modes():
    state = make_state(
        ("m", "k"),
        [(0.6, {"m": 0.8 + 0.2j, "k": -0.5j}), (0.4j, {"m": -0.3 + 0j, "k": 1.1 + 0.7j})],
    )
    p_mk = project_single_photon(project_single_photon(state, "m"), "k").squared_norm()
    p_km = project_single_photon(project_single_photon(state, "k"), "m").squared_norm()
    assert math.isclose(p_mk, p_km, rel_tol=1e-12)


def test_projection_probability_against_series_grid():
    # two-mode number-basis expansion first, projection second: independent route
    rng = np.random.default_rng(7)
    for _ in range(4):
        branches = []
        for _ in range(2):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            a1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            a2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            branches.append((c, {"m1": a1, "m2": a2}))
        state = make_state(("m1", "m2"), branches)
        p = project_single_photon(project_single_photon(state, "m1"), "m2").squared_norm()
        grid = np.zeros((32, 32), dtype=complex)
        for c, amps in branches:
            grid += c * np.outer(coherent_series(amps["m1"]), coherent_series(amps["m2"]))
        assert abs(p - abs(grid[1, 1]) ** 2) < 1e-8


def test_project_vacuum_and_unknown_mode():
    state = make_state(("m",), [(1.0, {"m": 0.5 + 0j})])
    out = project_vacuum(state, "m")
    assert out.modes == ()
    assert math.isclose(out.squared_norm(), math.exp(-0.25), rel_tol=1e-12)
    with pytest.raises(ValueError, match="not in registry"):
        project_single_photon(state, "nope")


def test_make_state_and_registry_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SuperposedState(("m", "m"), ())
    with pytest.raises(ValueError, match="disagree"):
        make_state(("m", "k"), [(1.0, {"m": 0j})])
    with pytest.raises(ValueError, match="non-finite"):
        make_state(("m",), [(complex("nan"), {"m": 0j})])
    with pytest.raises(ValueError, match="non-finite"):
        make_state(("m",), [(1.0, {"m": complex("inf")})])


def test_add_mode():
    state = make_state(("m",), [(1.0, {"m": 1 + 0j})])
    grown = add_mode(state, "k")
    assert grown.modes == ("m", "k")
    assert grown.branches[0].amps["k"] == 0j
    with pytest.raises(ValueError, match="already in registry"):
        add_mode(grown, "m")


def test_branch_amplitude_lookup():
    b = Branch(1.0 + 0j, {"m": 2j})
    assert b.amplitude("m") == 2j
    with pytest.raises(ValueError, match="no mode"):
        b.amplitude("k")
