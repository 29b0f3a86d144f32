import numpy as np
import pytest
from scipy.integrate import quad

from phasekit.eos import (AdmissibilityError, PolytropicEOS, VanDerWaalsEOS,
                          check_admissibility, make_eos,
                          quadratic_growth_constant, require_admissible)


@pytest.fixture
def vdw():
    return VanDerWaalsEOS(A=1.0, B=1.0, R=1.0, T_star=0.2, gamma=2.0)


@pytest.fixture
def poly():
    return PolytropicEOS(a=1.0, beta=2.0, gamma=1.0)


def test_pressure_closed_forms(vdw, poly):
    assert vdw.pressure(0.0) == 0.0
    assert vdw.pressure(0.5) == pytest.approx(-0.05, abs=1e-14)
    assert poly.pressure(0.0) == 0.0
    assert poly.pressure(3.0) == pytest.approx(9.0, abs=1e-12)


def test_pressure_domain(vdw):
    with pytest.raises(ValueError):
        vdw.pressure(1.0)
    with pytest.raises(ValueError):
        vdw.pressure(-0.1)


def test_artificial_pressure(vdw, poly):
    assert vdw.artificial_pressure(0.0) == 0.0
    assert vdw.artificial_pressure(0.5) == pytest.approx(0.2, abs=1e-14)
    poly_g1 = PolytropicEOS(1.0, 2.0, gamma=1.0)
    assert poly_g1.artificial_pressure(2.0) == pytest.approx(6.0, abs=1e-12)
    r = np.linspace(0.01, 0.9, 50)
    assert np.allclose(vdw.artificial_pressure(r) - vdw.pressure(r),
                       0.5 * vdw.gamma * r ** 2, rtol=0, atol=1e-14)


@pytest.mark.parametrize("eos_fixture", ["vdw", "poly"])
def test_d_pressure_matches_finite_difference(eos_fixture, request):
    eos = request.getfixturevalue(eos_fixture)
    rng = np.random.default_rng(2)
    hi = 0.9 if np.isfinite(eos.domain_max) else 5.0
    r = rng.uniform(0.05, hi, size=40)
    step = 1e-5
    fd = (eos.pressure(r + step) - eos.pressure(r - step)) / (2 * step)
    assert np.allclose(eos.d_pressure(r), fd, rtol=1e-6)


def test_potential_polytropic_closed_form(poly):
    # P(s) = s^2 means P(s)/s^2 = 1 and W(r) = r (r - 1)
    assert poly.potential(1.0) == pytest.approx(0.0, abs=1e-14)
    assert poly.potential(2.0) == pytest.approx(2.0, rel=1e-12)
    r = np.linspace(0.1, 4.0, 30)
    assert np.allclose(poly.potential(r), r * (r - 1.0), rtol=1e-12)


def test_potential_gauge_at_reference(vdw, poly):
    assert poly.potential(poly.r_ref) == pytest.approx(0.0, abs=1e-13)
    assert vdw.potential(vdw.r_ref) == pytest.approx(0.0, abs=1e-13)
    wide = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, gamma=2.0)
    assert wide.r_ref == 1.0
    assert wide.potential(1.0) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("eos_args", [
    ("poly", None),
    ("vdw_wide", None),
])
def test_potential_defining_relation(eos_args, request):
    # finite-difference oracle for W'' r = P'
    name = eos_args[0]
    eos = (PolytropicEOS(1.0, 2.0, 1.0) if name == "poly"
           else VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0))
    delta = 1e-4
    for r in (0.3, 0.8, 1.5, 2.2):
        w2 = (eos.potential(r + delta) - 2 * eos.potential(r)
              + eos.potential(r - delta)) / delta ** 2
        assert w2 * r == pytest.approx(float(eos.d_pressure(r)), rel=1e-4, abs=1e-4)


def test_potential_closed_forms_match_quadrature():
    # W(r) = r * integral_{r_ref}^r P(s)/s^2 ds, integrated numerically
    cases = [
        (PolytropicEOS(1.3, 3.0, 1.0), [0.2, 0.7, 1.0, 1.9, 3.4]),
        (VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, 2.0), [0.05, 0.3, 0.5, 0.8, 0.97]),
        (VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0), [0.1, 0.6, 1.0, 2.2, 2.9]),
    ]
    for eos, r in cases:
        expected = [x * quad(lambda s: float(eos.pressure(s)) / s ** 2,
                             eos.r_ref, x, epsabs=1e-13, epsrel=1e-13)[0]
                    for x in r]
        assert np.allclose(eos.potential(np.array(r)), expected,
                           rtol=1e-10, atol=1e-12)


def test_potential_rejects_nonpositive(poly):
    with pytest.raises(ValueError):
        poly.potential(0.0)
    with pytest.raises(ValueError):
        poly.potential(-1.0)


def test_admissibility_vdw_accepted(vdw):
    # gamma = 2A cancels the destabilizing -2Ar term exactly
    report = check_admissibility(vdw, 0.0, 0.999)
    assert report.admissible
    assert report.min_artificial_slope >= 0.0
    assert report.spinodal is not None  # P' itself still changes sign


def test_admissibility_vdw_rejected():
    bare = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=1e-12)
    report = check_admissibility(bare, 0.0, 0.999)
    assert not report.admissible
    assert report.spinodal is not None
    b1, b2 = report.spinodal
    assert b1 < 0.3 < b2
    # direct evaluation: P'(0.3) = 0.2/0.49 - 0.6
    assert float(bare.d_pressure(0.3)) == pytest.approx(0.2 / 0.49 - 0.6, rel=1e-12)
    assert float(bare.d_pressure(0.3)) < 0.0


def test_admissibility_polytropic(poly):
    report = check_admissibility(poly, 0.0, 100.0)
    assert report.admissible
    assert report.spinodal is None


def test_admissibility_invalid_interval(poly):
    with pytest.raises(ValueError):
        check_admissibility(poly, 2.0, 1.0)


def test_admissible_implies_monotone_scan(vdw):
    report = check_admissibility(vdw, 0.0, 0.999)
    assert report.admissible
    r = np.linspace(0.0, 0.999, 1000)
    p_art = vdw.artificial_pressure(r)
    assert np.all(np.diff(p_art) > 0.0)


def test_require_admissible_raises():
    bare = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=1e-12)
    with pytest.raises(AdmissibilityError):
        require_admissible(bare, 0.0, 0.999)
    assert AdmissibilityError.exit_code == 3


def test_quadratic_growth_constant_finite(poly):
    c = quadratic_growth_constant(poly, 50.0)
    assert np.isfinite(c)
    r = np.linspace(0.05, 50.0, 500)
    w = poly.potential(r)
    w = w - min(0.0, float(np.min(poly.potential(np.linspace(0.05, 50.0, 2048)))))
    assert np.all(r ** 2 <= c * (1.0 + w) + 1e-9)
    # deep spinodal well: the shifted-gauge constant stays finite
    wide = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, gamma=2.0)
    assert np.isfinite(quadratic_growth_constant(wide, 2.8))


def test_gauge_shift_leaves_relation_intact(poly):
    # the defining relation involves W'' only, so any affine-in-r shift of W
    # is equivalent; the suite pins the gauge through W(r_ref) = 0 alone
    delta = 1e-4
    for r in (0.5, 1.7):
        base = (poly.potential(r + delta) - 2 * poly.potential(r)
                + poly.potential(r - delta))
        shifted = ((poly.potential(r + delta) + 3.0 + 2.0 * (r + delta))
                   - 2 * (poly.potential(r) + 3.0 + 2.0 * r)
                   + (poly.potential(r - delta) + 3.0 + 2.0 * (r - delta)))
        assert shifted == pytest.approx(base, abs=1e-12)


def test_make_eos_roundtrip(vdw, poly):
    assert make_eos(vdw.to_dict()).to_dict() == vdw.to_dict()
    assert make_eos(poly.to_dict()).to_dict() == poly.to_dict()
    with pytest.raises(ValueError):
        make_eos({"type": "tabulated"})


def test_parameter_validation():
    with pytest.raises(ValueError):
        PolytropicEOS(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        PolytropicEOS(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        VanDerWaalsEOS(1.0, 0.0, 1.0, 0.2, 1.0)
