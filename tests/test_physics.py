"""Simulator oracle tests: frozen reference values, bounds, call accounting.

The reference numbers were computed with an independent 40-digit evaluation
of the closed-form index model and its analytic wavelength derivatives, not
with this package.
"""

import hashlib
import math

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


def test_geometry_from_dict_takes_only_integer_rings():
    doc = REF_GEOM.as_dict()
    assert physics.geometry_from_dict(doc) == REF_GEOM
    # int() would truncate 6.7 to 6 rings and parse the string
    for rings in (6.7, 6.0, "6", True, None):
        with pytest.raises(ValueError, match="is not an integer"):
            physics.geometry_from_dict(dict(doc, n_rings=rings))


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


# pitch x d/pitch x rings x wavelength: both band wavelengths, the band
# edges and one off-grid wavelength; digest recorded before the kernel rewrite
_PIN_PITCHES = (1.0, 1.37, 2.3, 3.11, 4.0)
_PIN_RATIOS = (0.12, 0.5, 0.77, 0.9)
_PIN_RINGS = (3, 6, 10)
_PIN_LAMBDAS = (1.31, 1.55, 1.2, 1.4373, 1.7)
_PIN_DIGEST = "db156ede98b4e6fa1c3fe838d569e89a60ac7369e7301fd51e42db944c3718ed"


def test_simulate_bits_match_recorded_digest():
    h = hashlib.sha256()
    c = CallCounter()
    for lam in _PIN_LAMBDAS:
        for pitch in _PIN_PITCHES:
            for ratio in _PIN_RATIOS:
                for rings in _PIN_RINGS:
                    res = physics.simulate(Geometry(pitch, pitch * ratio, rings), lam, c)
                    for v in (res.n_eff, res.dispersion_ps_nm_km, res.loss_db_km, res.lambda_um):
                        h.update(float.hex(v).encode())
    assert c.total_calls == 300
    assert h.hexdigest() == _PIN_DIGEST


def _reference_properties(pitch, dratio, n_rings, lam):
    # the per-point formulas, each stencil point's silica index evaluated anew
    def n_eff(w):
        rel = w / pitch
        return physics._sellmeier_n(w) - 0.08 * dratio**1.5 * rel * rel

    h = physics.FD_STEP_UM
    d2 = (
        -n_eff(lam - 2.0 * h) + 16.0 * n_eff(lam - h) - 30.0 * n_eff(lam)
        + 16.0 * n_eff(lam + h) - n_eff(lam + 2.0 * h)
    ) / (12.0 * h * h)
    rel = lam / pitch
    loss = 1.0e3 * math.exp(-3.0 * float(n_rings) * dratio) * rel**4.0
    return n_eff(lam), -(1.0e4 / 2.99792458) * lam * d2, loss


def test_simulate_matches_the_per_point_formulas_bit_for_bit():
    rng = np.random.default_rng(21)
    c = CallCounter()
    for i in range(3000):
        pitch = float(rng.uniform(1.0, 4.0))
        geom = Geometry(pitch, pitch * float(rng.uniform(0.01, 0.899)), int(rng.integers(3, 11)))
        lam = (1.31, 1.55, float(rng.uniform(1.2, 1.7)))[i % 3]
        res = physics.simulate(geom, np.float64(lam) if i % 5 == 0 else lam, c)
        want = _reference_properties(geom.pitch_um, geom.dratio, geom.n_rings, lam)
        assert (res.n_eff, res.dispersion_ps_nm_km, res.loss_db_km) == want, (geom, lam)
    assert c.total_calls == 3000


def _bits(res):
    return tuple(float.hex(v) for v in (res.n_eff, res.dispersion_ps_nm_km, res.loss_db_km))


def test_stencil_memo_keeps_bits_past_eviction_and_holds_no_bad_wavelength():
    physics._stencil.cache_clear()
    c = CallCounter()
    # a numpy scalar first: the stencil it memoises must not change later results
    from_numpy = physics.simulate(REF_GEOM, np.float64(1.4373), c)
    assert from_numpy.n_eff == physics.effective_index(REF_GEOM, 1.4373)
    assert [type(v) for v in (from_numpy.n_eff, from_numpy.dispersion_ps_nm_km)] == [float, float]
    lams = [1.2 + 0.5 * i / 299 for i in range(300)]
    first = [_bits(physics.simulate(REF_GEOM, lam, c)) for lam in lams]
    info = physics._stencil.cache_info()
    assert info.currsize == info.maxsize == 256
    # the first wavelengths were evicted; recomputing them gives the same bits
    assert [_bits(physics.simulate(REF_GEOM, lam, c)) for lam in lams[:20]] == first[:20]
    assert _bits(physics.simulate(REF_GEOM, 1.4373, c)) == _bits(from_numpy)
    # a bad wavelength raises before the lookup: no hit, no miss, no entry
    calls, info = c.total_calls, physics._stencil.cache_info()
    for lam in (1.75, 1.1999, float("nan")):
        with pytest.raises(physics.BandError):
            physics.simulate(REF_GEOM, lam, c)
    assert c.total_calls == calls
    assert physics._stencil.cache_info() == info
