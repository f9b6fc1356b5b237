"""Spectral grid, fields, dealiased products, cutoffs."""

import numpy as np
import pytest

from ferrojet.errors import GridError, ParameterError
from ferrojet.operators import dn0_symbol
from ferrojet.spectral import CutoffSpec, SpectralField, SpectralGrid


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid.make(8 * np.pi, 128)


def test_grid_validation():
    with pytest.raises(ParameterError):
        SpectralGrid.make(10.0, 100)  # not a power of two
    with pytest.raises(ParameterError):
        SpectralGrid.make(-1.0, 128)
    for L in (np.nan, np.inf):  # the grid's nodes would be NaN
        with pytest.raises(ParameterError):
            SpectralGrid.make(L, 64)


def test_round_trip_random_fields(grid, rng):
    v = rng.standard_normal(grid.N)
    err = np.max(np.abs(grid.to_values(grid.to_coeffs(v)) - v))
    assert err <= 1e-13
    c = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    err = np.max(np.abs(grid.to_coeffs(grid.to_values(c)) - c))
    assert err <= 1e-13


def test_coefficient_semantics(grid):
    f = SpectralField.from_function(grid, lambda z: np.cos(3 * z), parity="even")
    assert f.coeffs[grid.mode_index(3.0)] == pytest.approx(0.5, abs=1e-13)
    assert f.coeffs[grid.mode_index(-3.0)] == pytest.approx(0.5, abs=1e-13)
    g = SpectralField.from_function(grid, lambda z: np.sin(2 * z))
    assert g.coeffs[grid.mode_index(2.0)] == pytest.approx(-0.5j, abs=1e-13)


def test_multiplier_identity_and_eigenfunction(grid):
    f = np.sin(2 * grid.z)
    ident = grid.apply_symbol(f, np.ones_like(grid.k))
    assert np.max(np.abs(ident - f)) <= 1e-14
    d2 = grid.apply_symbol(f, grid.k**2)
    assert np.max(np.abs(d2 - 4.0 * np.sin(2 * grid.z))) <= 1e-12


def test_multiplier_algebra_composition(grid, rng):
    f = rng.standard_normal(grid.N)
    a = 1.0 + 0.3 * grid.k**2
    b = np.cos(grid.k)
    ab = grid.apply_symbol(f, a * b)
    seq = grid.apply_symbol(grid.apply_symbol(f, a), b)
    assert np.max(np.abs(ab - seq)) <= 1e-13 * max(1.0, np.max(np.abs(ab)))


def test_dealiased_product_exact(grid):
    p = grid.product_values([np.cos(3 * grid.z), np.cos(5 * grid.z)])
    exact = 0.5 * np.cos(2 * grid.z) + 0.5 * np.cos(8 * grid.z)
    assert np.max(np.abs(p - exact)) <= 1e-13


def test_dealiased_product_kills_aliasing(grid):
    # naive pointwise product of high modes aliases into the retained band
    k1, k2 = 50 / 8, 40 / 8
    a, b = np.cos(k1 * grid.z), np.cos(k2 * grid.z)
    p = grid.product_values([a, b])
    exact = 0.5 * np.cos((k1 - k2) * grid.z)  # the sum band exceeds Nyquist
    assert np.max(np.abs(p - exact)) <= 1e-13
    naive = a * b
    assert np.max(np.abs(naive - exact)) > 0.4


def test_triple_product_dealiased(grid):
    a = np.cos(2 * grid.z)
    p = grid.product_values([a, a, a])
    exact = 0.75 * np.cos(2 * grid.z) + 0.25 * np.cos(6 * grid.z)
    assert np.max(np.abs(p - exact)) <= 1e-13


def test_product_takes_at_most_three_factors(grid):
    # the 2N grid resolves three factors of bandwidth N/2; a fourth would alias
    a = np.cos(grid.z)
    with pytest.raises(ParameterError):
        grid.product_values([a, a, a, a])


def test_pad_truncate_nyquist_round_trip(grid):
    c = np.zeros(grid.N, dtype=complex)
    c[grid.N // 2] = 1.0
    rt = grid.truncate_coeffs(grid.pad_coeffs(c))
    assert np.max(np.abs(rt - c)) == 0.0


def test_parity_tags(grid):
    f = SpectralField.from_function(grid, lambda z: np.cos(z) + 0.2 * np.cos(3 * z),
                                    parity="even", check_parity=True)
    assert f.shift_reflect_defect() <= 1e-12
    with pytest.raises(ParameterError):
        SpectralField.from_function(grid, np.sin, parity="even", check_parity=True)
    # conjugate-even: real coefficients
    c = np.zeros(grid.N)
    c[grid.mode_index(1.0)] = 0.25
    c[grid.mode_index(-2.0)] = 0.5
    g = SpectralField.from_coeffs(grid, c.astype(complex), parity="real-transform")
    vals = g.values
    mirrored = np.conj(np.roll(vals[::-1], 1))
    assert np.max(np.abs(vals - mirrored)) <= 1e-13


def test_evaluate_at(grid):
    f = SpectralField.from_function(grid, lambda z: np.cos(3 * z))
    pts = np.array([-3.3, 0.1, 7.7])
    assert np.max(np.abs(f.evaluate_at(pts) - np.cos(3 * pts))) <= 1e-13


def test_grid_mismatch_raises(grid):
    with pytest.raises(GridError):
        grid.mode_index(np.pi / 3.0)  # off-lattice wavenumber


def test_cutoff_spec():
    cs = CutoffSpec(delta=0.5, omega=2.0)
    k = np.linspace(-4, 4, 801)
    chi0 = cs.chi0(k)
    assert np.all(chi0 * chi0 == chi0)  # sharp indicator, idempotent
    assert np.all(chi0[np.abs(k) >= 0.5] == 0.0)
    with pytest.raises(ParameterError):
        CutoffSpec(delta=0.8, omega=2.0)  # violates delta < omega/3
    CutoffSpec(delta=0.5)  # strong-regime default shape


def test_commensurate_grid():
    omega = 2.675240200697746
    g = SpectralGrid.commensurate(omega, 40.0, 256)
    assert g.L >= 40.0
    m = g.mode_index(omega)
    assert abs(g.k[m] - omega) <= 1e-12
    g.mode_index(2 * omega)


# -- real (half-spectrum) path against the complex path ------------------------


@pytest.fixture(scope="module")
def rows(grid):
    """Batched real rows; row 0 carries a unit Nyquist mode (-1)^j."""
    v = np.random.default_rng(11).standard_normal((4, grid.N))
    v[0] += (-1.0) ** np.arange(grid.N)
    return v


def assert_close(real_path, complex_path):
    assert np.isrealobj(real_path)
    assert np.max(np.abs(complex_path.imag)) <= 1e-12 * np.max(np.abs(complex_path))
    assert np.max(np.abs(real_path - complex_path.real)) <= 1e-12 * np.max(
        np.abs(complex_path)
    )


def test_rcoeffs_round_trip_and_half_spectrum(grid, rows):
    rc = grid.to_rcoeffs(rows)
    assert rc.shape == (4, grid.N // 2 + 1)
    full = grid.to_coeffs(rows)[..., : grid.N // 2 + 1]
    assert np.max(np.abs(rc - full)) <= 1e-12 * np.max(np.abs(full))
    assert abs(rc[0, -1]) > 0.5  # the Nyquist mode is present
    assert np.max(np.abs(grid.to_rvalues(rc) - rows)) <= 1e-12 * np.max(np.abs(rows))
    assert np.array_equal(grid.kr, np.abs(grid.k[: grid.N // 2 + 1]))


@pytest.mark.parametrize("nfactors", [2, 3])
def test_real_product_matches_complex_path(grid, rows, nfactors):
    factors = [rows] + [rows[i] for i in range(1, nfactors)]  # batch x single rows
    got = grid.product_values(factors)
    want = grid.product_values([f.astype(complex) for f in factors])
    assert got.shape == rows.shape
    assert_close(got, want)


def test_real_refine_and_project_match_complex_path(grid, rows):
    fine = grid.refine_values(rows)
    fine_c = grid.refine_values(rows.astype(complex))
    assert fine.shape == (4, 2 * grid.N)
    assert_close(fine, fine_c)
    pointwise = np.cos(fine) * fine  # a non-polynomial nonlinearity
    assert_close(grid.project_values(pointwise),
                 grid.project_values(pointwise.astype(complex)))


@pytest.mark.parametrize("which", ["ik", "ik2", "dn0"])
def test_real_apply_symbol_matches_complex_path(grid, rows, which):
    symbol = {"ik": grid.ik, "ik2": grid.ik**2, "dn0": dn0_symbol(grid)}[which]
    assert_close(grid.apply_symbol(rows, symbol),
                 grid.apply_symbol(rows.astype(complex), symbol))


def test_half_spectrum_refine_and_project_match_the_value_routes(grid, rows):
    rc = grid.to_rcoeffs(rows)
    fine = grid._padded()
    assert np.array_equal(fine.to_rvalues(grid.refine_rcoeffs(rc)),
                          grid.refine_values(rows))
    pointwise = np.cos(grid.refine_values(rows))
    assert np.array_equal(
        grid.to_rvalues(grid.project_rcoeffs(fine.to_rcoeffs(pointwise))),
        grid.project_values(pointwise))
    # the round trip keeps a half spectrum whose c_0 and c_N/2 are real
    back = grid.project_rcoeffs(grid.refine_rcoeffs(rc))
    assert np.array_equal(back.imag[:, [0, -1]], np.zeros((4, 2)))
    assert np.max(np.abs(back - rc)) <= 1e-15 * np.max(np.abs(rc))


def test_coefficient_refine_and_project_in_both_layouts(grid, rows):
    # a half spectrum refines to real values, a full spectrum to complex
    # ones; the value routes are these with one transform in front or behind
    rc, c = grid.to_rcoeffs(rows), grid.to_coeffs(rows.astype(complex))
    fine = grid.refine_to_values(rc)
    assert np.array_equal(fine, grid.refine_values(rows))
    assert_close(fine, grid.refine_to_values(c))
    pointwise = np.cos(fine) * fine
    half = grid.project_to_coeffs(pointwise)
    assert half.shape == rc.shape
    assert np.array_equal(grid.to_rvalues(half), grid.project_values(pointwise))
    full = grid.project_to_coeffs(pointwise.astype(complex))
    assert full.shape == c.shape
    assert np.max(np.abs(full[..., : grid.N // 2 + 1] - half)) <= 1e-12 * np.max(
        np.abs(half))
    with pytest.raises(GridError):
        grid.refine_to_values(np.ones(grid.N + 2))
    with pytest.raises(ParameterError):  # below N = 4 the two layouts coincide
        SpectralGrid.make(1.0, 2)


def test_one_dealiasing_grid_of_2n_points(rows):
    grid = SpectralGrid.make(8 * np.pi, 128)  # an empty cache
    rc, c = grid.to_rcoeffs(rows), grid.to_coeffs(rows.astype(complex))
    assert grid.refine_to_values(rc).shape == (4, 2 * grid.N)
    assert grid.refine_to_values(c).shape == (4, 2 * grid.N)
    grid.product_values([rows, rows])
    grid.product_values([rows, rows, rows])
    assert grid._padded() is grid._padded()
    assert grid._padded().N == 2 * grid.N
    cached = [v for v in grid._cache.values() if isinstance(v, SpectralGrid)]
    assert len(cached) == 1 and cached[0] is grid._padded()


# a wrong-length last axis raises instead of being padded or cut to N
def test_to_coeffs_rejects_wrong_length(grid):
    with pytest.raises(GridError):
        grid.to_coeffs(np.ones(grid.N + 4))


def test_to_values_rejects_wrong_length(grid):
    with pytest.raises(GridError):
        grid.to_values(np.ones(grid.N - 1, dtype=complex))


def test_to_rcoeffs_rejects_wrong_length(grid):
    with pytest.raises(GridError):
        grid.to_rcoeffs(np.ones(grid.N + 4))


def test_to_rvalues_rejects_wrong_length(grid):
    with pytest.raises(GridError):
        grid.to_rvalues(np.ones(5, dtype=complex))
    with pytest.raises(GridError):
        grid.to_rvalues(np.ones(grid.N, dtype=complex))  # a full spectrum
