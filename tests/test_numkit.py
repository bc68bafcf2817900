import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots, polyroots, polyval

from sixvertex.errors import SingularSystem
from sixvertex.numkit import (
    DIM_CAP,
    eig_general,
    fit_poly,
    kron_chain,
    poly_roots_rows,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron_chain(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_builds_site_operator():
    op = kron_chain(SX, np.eye(2), np.eye(2))
    assert op.shape == (8, 8)
    vec = np.zeros(8)
    vec[0] = 1.0
    # flipping site 1 of |000> gives |100>
    assert np.argmax(np.abs(op @ vec)) == 4


def test_kron_mixed_product():
    rng = np.random.default_rng(0)
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                  for _ in range(4))
    lhs = kron_chain(a, b) @ kron_chain(c, d)
    rhs = kron_chain(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(3)]
    lhs = kron_chain(kron_chain(mats[0], mats[1]), mats[2])
    rhs = kron_chain(mats[0], kron_chain(mats[1], mats[2]))
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert np.array_equal(kron_chain(*mats), lhs)


def test_eig_diagonal():
    trips = eig_general(np.diag([1.0, 2.0j]))
    assert sorted((t.value.real, t.value.imag) for t in trips) == [(0, 2), (1, 0)]


def test_eig_sigma_x():
    vals = sorted(t.value.real for t in eig_general(SX))
    assert vals == pytest.approx([-1.0, 1.0])


def test_eig_reconstruction_and_residuals():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    trips = eig_general(m)
    scale = np.linalg.norm(m, 2)
    recon = np.zeros_like(m)
    for t in trips:
        assert np.linalg.norm(m @ t.right - t.value * t.right) < 1e-10 * scale
        assert np.linalg.norm(t.left @ m - t.value * t.left) < 1e-10 * scale
        recon += t.value * np.outer(t.right, t.left) / (t.left @ t.right)
    assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-9


def test_eig_trace_sum():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    total = sum(t.value for t in eig_general(m))
    assert abs(total - np.trace(m)) / abs(np.trace(m)) < 1e-9


def test_eig_degenerate_block_pairing():
    # eigenvalue 1 twice, in a non-normal matrix
    m = np.array([[1, 0, 1], [0, 1, 2], [0, 0, 3]], dtype=complex)
    trips = eig_general(m)
    for t in trips:
        assert abs(t.left @ t.right) > 1e-8


def test_fit_poly_square():
    poly = fit_poly([(0, 0), (1, 1), (2, 4)], 2)
    assert np.allclose(poly, [0, 0, 1], atol=1e-12)


def test_fit_poly_constant():
    poly = fit_poly([(0.3 + 0.1j, 5.0)], 0)
    assert poly.shape == (1,)
    assert polyval(17.0, poly) == pytest.approx(5.0)


def test_fit_poly_round_trip():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    xs = np.exp(2j * np.pi * np.arange(6) / 6) * 1.1
    fitted = fit_poly([(x, polyval(x, coeffs)) for x in xs], 5)
    probe = 0.37 - 0.82j
    ref = polyval(probe, coeffs)
    assert abs(polyval(probe, fitted) - ref) / abs(ref) < 1e-9


def test_fit_poly_singular():
    with pytest.raises(SingularSystem):
        fit_poly([(1.0, 1.0), (1.0 + 1e-14, 2.0)], 1)


def roots_of(coeffs):
    """The roots of one polynomial, through `poly_roots_rows`."""
    return poly_roots_rows(np.asarray(coeffs)[None, :])[0]


def test_poly_roots_quadratic():
    roots = roots_of(np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(sorted(r.real for r in roots), [-1, 1], atol=1e-12)


def test_poly_roots_linear():
    c = 0.3 - 2.2j
    roots = roots_of(np.array([-c, 1.0]))
    assert abs(roots[0] - c) < 1e-12


def test_poly_roots_from_known_roots():
    rng = np.random.default_rng(5)
    true = sorted(
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)),
        key=lambda z: (z.real, z.imag),
    )
    poly = polyfromroots(true) * (1.7 - 0.4j)
    got = roots_of(poly)
    assert max(abs(a - b) for a, b in zip(true, got)) < 1e-8


def test_poly_roots_rows_are_numpy_polyroots_row_by_row():
    rng = np.random.default_rng(6)
    full = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    # trailing coefficients below 1e-12 of the largest are trimmed
    trimmed = np.array([1.0, -3.0, 2.0, 1e-14, 0.0])
    constant = np.array([2.0, 1e-13, 0.0, 0.0, 0.0])
    rows = poly_roots_rows(np.vstack((full, trimmed, constant, np.zeros(5))))
    # the stack is complex, so the real row is solved as a complex one
    for row, roots in zip((*full, trimmed[:3].astype(complex)), rows):
        assert np.array_equal(roots, np.sort_complex(polyroots(row)))
    assert rows[3].tolist() == pytest.approx([0.5, 1.0], abs=1e-12)
    assert rows[4] is None and rows[5] is None
    assert roots_of(trimmed.astype(complex)).tolist() == rows[3].tolist()


def test_poly_roots_degree_zero():
    # a constant row has no roots
    assert roots_of(np.array([3.0])) is None


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_roots_round_trip_degrees(degree):
    rng = np.random.default_rng(degree)
    true = sorted(
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)),
        key=lambda z: (z.real, z.imag),
    )
    got = roots_of(polyfromroots(true))
    assert max(abs(a - b) for a, b in zip(true, got)) < 1e-8


def test_fit_poly_rejects_extra_samples():
    samples = [(x, polyval(x, [1.0, 2.0, 3.0])) for x in (0.5, 1.5, -0.7, 2.0)]
    with pytest.raises(ValueError):
        fit_poly(samples, 2)


def test_eig_dimension_cap_configurable():
    with pytest.raises(ValueError):
        eig_general(np.eye(DIM_CAP + 1, dtype=complex))

