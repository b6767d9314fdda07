"""Simulator oracle tests: frozen reference values, bounds, call accounting.

The reference numbers were computed with an independent 40-digit evaluation
of the closed-form index model and its analytic wavelength derivatives, not
with this package.
"""

import numpy as np
import pytest

from pcfmem import physics
from pcfmem.physics import CallCounter, Geometry, SimResult, TargetSpec

REF_GEOM = Geometry(2.3, 1.15, 6)  # d/pitch = 0.5
LAM = 1.55

N_S_REF = 1.444023621703261
N_EFF_REF = 1.431178071292670
D_REF = 77.19972796179457  # ps / (nm km), analytic second derivative
LOSS_REF = 0.025454531698342627  # dB / km


def test_material_index_frozen_value():
    assert physics.sellmeier_index(LAM) == pytest.approx(N_S_REF, rel=1e-14)


def test_effective_index_frozen_value():
    assert physics.effective_index(REF_GEOM, LAM) == pytest.approx(N_EFF_REF, rel=1e-14)


def test_dispersion_matches_analytic_reference():
    # five-point stencil at h = 1e-3 um: truncation error lands near 3e-8 rel
    assert physics.dispersion(REF_GEOM, LAM) == pytest.approx(D_REF, rel=1e-6)


def test_loss_frozen_value():
    assert physics.loss(REF_GEOM, LAM) == pytest.approx(LOSS_REF, rel=1e-14)


def test_effective_index_stays_below_material_index():
    for ratio in (0.1, 0.45, 0.9):
        geom = Geometry(2.0, 2.0 * ratio, 5)
        assert physics.effective_index(geom, LAM) < physics.sellmeier_index(LAM)


def test_larger_holes_lower_index_and_loss():
    lo = Geometry(2.0, 0.8, 5)
    hi = Geometry(2.0, 1.2, 5)
    assert physics.effective_index(hi, LAM) < physics.effective_index(lo, LAM)
    assert physics.loss(hi, LAM) < physics.loss(lo, LAM)


def test_more_rings_lower_loss():
    few = physics.loss(Geometry(2.0, 1.0, 4), LAM)
    many = physics.loss(Geometry(2.0, 1.0, 8), LAM)
    assert many < few


def test_geometry_bounds():
    with pytest.raises(physics.InvalidGeometry):
        physics.validate_geometry(Geometry(0.9, 0.5, 5))
    with pytest.raises(physics.InvalidGeometry):
        physics.validate_geometry(Geometry(4.1, 1.0, 5))
    with pytest.raises(physics.InvalidGeometry):
        physics.validate_geometry(Geometry(2.0, 0.0, 5))
    with pytest.raises(physics.InvalidGeometry):
        physics.validate_geometry(Geometry(2.0, 1.0, 2))
    with pytest.raises(physics.InvalidGeometry):
        physics.validate_geometry(Geometry(2.0, 1.0, 11))
    # the overlap bound itself is allowed, one ulp above it is not
    physics.validate_geometry(Geometry(2.0, 1.8, 5))
    assert not physics.geometry_valid(Geometry(2.0, np.nextafter(1.8, 2.0), 5))


def test_wavelength_band():
    with pytest.raises(physics.BandError):
        physics.sellmeier_index(1.1)
    with pytest.raises(physics.BandError):
        physics.simulate(REF_GEOM, 1.75, CallCounter())


def test_counter_accounting():
    c = CallCounter()
    physics.simulate(REF_GEOM, LAM, c)
    assert (c.total_calls, c.per_query_calls) == (1, 1)
    c.begin_query()
    assert (c.total_calls, c.per_query_calls) == (1, 0)
    physics.simulate(REF_GEOM, LAM, c)
    physics.simulate(REF_GEOM, LAM, c)
    assert (c.total_calls, c.per_query_calls) == (3, 2)


def test_invalid_input_is_never_charged():
    c = CallCounter()
    with pytest.raises(physics.InvalidGeometry):
        physics.simulate(Geometry(0.5, 0.2, 5), LAM, c)
    with pytest.raises(physics.BandError):
        physics.simulate(REF_GEOM, 0.8, c)
    assert c.total_calls == 0


def test_verify_is_strict():
    target = TargetSpec(dispersion_ps_nm_km=50.0, loss_db_km=0.02, lambda_um=LAM)
    at_tol = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=55.0, loss_db_km=0.02, lambda_um=LAM
    )
    inside = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=54.999, loss_db_km=0.02, lambda_um=LAM
    )
    wrong_lam = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=50.0, loss_db_km=0.02, lambda_um=1.31
    )
    assert not physics.verify(at_tol, target)  # exactly at tolerance fails
    assert physics.verify(inside, target)
    assert not physics.verify(wrong_lam, target)


def test_miss_below_one_iff_verified():
    rng = np.random.default_rng(11)
    target = TargetSpec(dispersion_ps_nm_km=60.0, loss_db_km=0.03, lambda_um=LAM)
    c = CallCounter()
    for _ in range(50):
        pitch = float(rng.uniform(1.2, 3.8))
        ratio = float(rng.uniform(0.1, 0.88))
        geom = Geometry(pitch, pitch * ratio, int(rng.integers(3, 11)))
        res = physics.simulate(geom, LAM, c)
        assert (physics.miss(res, target) < 1.0) == physics.verify(res, target)


def test_quality_grading():
    target = TargetSpec(dispersion_ps_nm_km=50.0, loss_db_km=0.02, lambda_um=LAM)
    exact = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=50.0, loss_db_km=0.02, lambda_um=LAM
    )
    one_tol = SimResult(
        n_eff=1.43, dispersion_ps_nm_km=55.0, loss_db_km=0.02, lambda_um=LAM
    )
    assert physics.quality(exact, target) == pytest.approx(1.0, abs=1e-12)
    assert physics.quality(one_tol, target) == pytest.approx(0.5, rel=1e-6)


def test_metric_sign_directions_and_charges():
    c = CallCounter()
    assert physics.metric_sign(REF_GEOM, "pitch", "n_eff", LAM, c) == 1
    assert c.total_calls == 2  # central probe charges both sides
    assert physics.metric_sign(REF_GEOM, "hole_d", "loss", LAM, c) == -1
    assert physics.metric_sign(REF_GEOM, "hole_d", "n_eff", LAM, c) == -1
    assert physics.metric_sign(REF_GEOM, "n_rings", "loss", LAM, c) == -1
    assert physics.metric_sign(REF_GEOM, "n_rings", "dispersion", LAM, c) == 0
    assert physics.metric_sign(REF_GEOM, "n_rings", "n_eff", LAM, c) == 0


def test_metric_sign_one_sided_at_bound():
    geom = Geometry(2.0, 1.0, physics.N_RINGS_MAX)
    c = CallCounter()
    assert physics.metric_sign(geom, "n_rings", "loss", LAM, c) == -1
    assert c.total_calls == 2


def test_simulate_fields_match_scalar_wrappers():
    c = CallCounter()
    res = physics.simulate(REF_GEOM, LAM, c)
    assert res.n_eff == physics.effective_index(REF_GEOM, LAM)
    assert res.dispersion_ps_nm_km == physics.dispersion(REF_GEOM, LAM)
    assert res.loss_db_km == physics.loss(REF_GEOM, LAM)
    assert res.lambda_um == LAM
