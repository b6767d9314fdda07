"""Analytic photonic-crystal-fiber property model and call accounting.

Geometry is a hexagonal-lattice holey fiber described by pitch (um), hole
diameter (um) and ring count. Properties come from a fused-silica Sellmeier
index with an air-fill correction to the effective index, a 5-point
finite-difference chromatic dispersion, and an exponential ring-count
confinement-loss law. One kernel computes all three; the silica index at
the five stencil wavelengths is memoised per wavelength. Every successful
property evaluation is charged to a CallCounter; invalid inputs raise
before any charge and before any lookup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

LAMBDA_MIN_UM = 1.2
LAMBDA_MAX_UM = 1.7
PITCH_MIN_UM = 1.0
PITCH_MAX_UM = 4.0
DRATIO_MAX = 0.9
N_RINGS_MIN = 3
N_RINGS_MAX = 10

FD_STEP_UM = 1e-3

# Target tolerances: strict-< verification
TOL_DISPERSION = 5.0  # ps/(nm km)
TOL_LOSS = 1e-3  # dB/km
TOL_NEFF = 1e-3  # normalization only; targets never constrain n_eff

METRICS = ("dispersion", "loss", "n_eff")
PARAMS = ("pitch", "hole_d", "n_rings")

# Fused-silica Sellmeier fit (lambda in um)
_B1 = 0.6961663
_B2 = 0.4079426
_B3 = 0.8974794
_C1 = 0.0684043**2
_C2 = 0.1162414**2
_C3 = 9.896161**2

# Cladding correction and confinement-loss shape constants
_FILL_A = 0.08
_FILL_P = 1.5
_LOSS_ALPHA_MAX = 1.0e3
_LOSS_KAPPA = 3.0
_LOSS_S = 4.0

_DISP_PREF = 1.0e4 / 2.99792458
_FD_DENOM = 12.0 * FD_STEP_UM * FD_STEP_UM

# distinct wavelengths whose stencil stays memoised; a corpus uses two
_STENCIL_CACHE_SIZE = 256


def _sellmeier_n(lam: float) -> float:
    l2 = lam * lam
    s = (
        _B1 * l2 / (l2 - _C1)
        + _B2 * l2 / (l2 - _C2)
        + _B3 * l2 / (l2 - _C3)
    )
    return math.sqrt(1.0 + s)


class InvalidGeometry(ValueError):
    """Geometry violates a hard validity bound."""


class BandError(ValueError):
    """Wavelength outside the supported band."""


@dataclass(frozen=True)
class Geometry:
    pitch_um: float
    hole_d_um: float
    n_rings: int

    @property
    def dratio(self) -> float:
        return self.hole_d_um / self.pitch_um

    def param(self, name: str) -> float:
        if name == "pitch":
            return self.pitch_um
        if name == "hole_d":
            return self.hole_d_um
        if name == "n_rings":
            return float(self.n_rings)
        raise KeyError(name)

    def with_param(self, name: str, value: float) -> "Geometry":
        if name == "pitch":
            return Geometry(float(value), self.hole_d_um, self.n_rings)
        if name == "hole_d":
            return Geometry(self.pitch_um, float(value), self.n_rings)
        if name == "n_rings":
            return Geometry(self.pitch_um, self.hole_d_um, int(round(value)))
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "pitch_um": self.pitch_um,
            "hole_d_um": self.hole_d_um,
            "n_rings": self.n_rings,
        }


@dataclass(frozen=True)
class SimResult:
    n_eff: float
    dispersion_ps_nm_km: float
    loss_db_km: float
    lambda_um: float

    def metric(self, name: str) -> float:
        if name == "dispersion":
            return self.dispersion_ps_nm_km
        if name == "loss":
            return self.loss_db_km
        if name == "n_eff":
            return self.n_eff
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "n_eff": self.n_eff,
            "dispersion_ps_nm_km": self.dispersion_ps_nm_km,
            "loss_db_km": self.loss_db_km,
            "lambda_um": self.lambda_um,
        }


@dataclass(frozen=True)
class TargetSpec:
    dispersion_ps_nm_km: float
    loss_db_km: float
    lambda_um: float
    tol_dispersion: float = TOL_DISPERSION
    tol_loss: float = TOL_LOSS

    def as_dict(self) -> dict:
        return {
            "dispersion_ps_nm_km": self.dispersion_ps_nm_km,
            "loss_db_km": self.loss_db_km,
            "lambda_um": self.lambda_um,
            "tol_dispersion": self.tol_dispersion,
            "tol_loss": self.tol_loss,
        }


def target_from_dict(d: dict) -> TargetSpec:
    """The TargetSpec ``d`` describes; a non-finite value, an out-of-band
    wavelength or a tolerance at or below 0 raises ValueError."""
    target = TargetSpec(
        dispersion_ps_nm_km=float(d["dispersion_ps_nm_km"]),
        loss_db_km=float(d["loss_db_km"]),
        lambda_um=float(d["lambda_um"]),
        tol_dispersion=float(d.get("tol_dispersion", TOL_DISPERSION)),
        tol_loss=float(d.get("tol_loss", TOL_LOSS)),
    )
    # not vars(target): that would give every kept TargetSpec a __dict__
    for name, value in target.as_dict().items():
        if not math.isfinite(value):
            raise ValueError(f"target {name} {value!r} is not finite")
    validate_wavelength(target.lambda_um)
    if min(target.tol_dispersion, target.tol_loss) <= 0.0:
        raise ValueError(
            f"target tolerances {target.tol_dispersion!r} and {target.tol_loss!r} must be above 0"
        )
    return target


def geometry_from_dict(d: dict) -> Geometry:
    """The Geometry ``d`` describes; an ``n_rings`` that is not a JSON integer
    raises ValueError instead of being truncated."""
    n_rings = d["n_rings"]
    if type(n_rings) is not int:
        raise ValueError(f"n_rings {n_rings!r} is not an integer")
    return Geometry(float(d["pitch_um"]), float(d["hole_d_um"]), n_rings)


def sim_from_dict(d: dict) -> SimResult:
    """The SimResult ``d`` describes; a non-finite value or an out-of-band
    wavelength raises ValueError."""
    sim = SimResult(
        n_eff=float(d["n_eff"]),
        dispersion_ps_nm_km=float(d["dispersion_ps_nm_km"]),
        loss_db_km=float(d["loss_db_km"]),
        lambda_um=float(d["lambda_um"]),
    )
    for name, value in sim.as_dict().items():
        if not math.isfinite(value):
            raise ValueError(f"sim {name} {value!r} is not finite")
    validate_wavelength(sim.lambda_um)
    return sim


@dataclass
class CallCounter:
    """Simulation-call ledger; one tick per successful property evaluation."""

    total_calls: int = 0
    per_query_calls: int = 0

    def begin_query(self) -> None:
        self.per_query_calls = 0

    def tick(self) -> None:
        self.total_calls += 1
        self.per_query_calls += 1


def validate_geometry(geom: Geometry) -> None:
    if not (PITCH_MIN_UM <= geom.pitch_um <= PITCH_MAX_UM):
        raise InvalidGeometry(
            f"pitch {geom.pitch_um} um outside [{PITCH_MIN_UM}, {PITCH_MAX_UM}]"
        )
    if not geom.hole_d_um > 0.0:  # also rejects NaN
        raise InvalidGeometry(f"hole diameter {geom.hole_d_um} um must be > 0")
    if geom.dratio > DRATIO_MAX:
        raise InvalidGeometry(
            f"d/pitch {geom.dratio:.4f} exceeds {DRATIO_MAX} (hole overlap)"
        )
    if not (N_RINGS_MIN <= geom.n_rings <= N_RINGS_MAX):
        raise InvalidGeometry(
            f"n_rings {geom.n_rings} outside [{N_RINGS_MIN}, {N_RINGS_MAX}]"
        )


def validate_wavelength(lambda_um: float) -> None:
    if not (LAMBDA_MIN_UM <= lambda_um <= LAMBDA_MAX_UM):
        raise BandError(
            f"wavelength {lambda_um} um outside [{LAMBDA_MIN_UM}, {LAMBDA_MAX_UM}]"
        )


def geometry_valid(geom: Geometry) -> bool:
    try:
        validate_geometry(geom)
    except InvalidGeometry:
        return False
    return True


@functools.lru_cache(maxsize=_STENCIL_CACHE_SIZE)
def _stencil(lam: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The five dispersion-stencil wavelengths around ``lam`` and the silica
    index at each."""
    h = FD_STEP_UM
    lams = (lam - 2.0 * h, lam - h, lam, lam + h, lam + 2.0 * h)
    return lams, tuple(_sellmeier_n(w) for w in lams)


def _properties(geom: Geometry, lam: float) -> tuple[float, float, float]:
    """(n_eff, dispersion, loss) of ``geom`` at ``lam``; raises on invalid
    input before any lookup, so a bad wavelength is never memoised."""
    validate_geometry(geom)
    validate_wavelength(lam)
    lam = float(lam)  # a numpy scalar must not become a memo key
    pitch, dratio = geom.pitch_um, geom.dratio
    (w_m2, w_m1, _, w_p1, w_p2), (n_m2, n_m1, n_0, n_p1, n_p2) = _stencil(lam)
    # n_eff is the silica index less the air-fill term, at each stencil point
    fill = _FILL_A * dratio**_FILL_P
    rel = lam / pitch
    f_m2 = n_m2 - fill * (w_m2 / pitch) * (w_m2 / pitch)
    f_m1 = n_m1 - fill * (w_m1 / pitch) * (w_m1 / pitch)
    f_0 = n_0 - fill * rel * rel
    f_p1 = n_p1 - fill * (w_p1 / pitch) * (w_p1 / pitch)
    f_p2 = n_p2 - fill * (w_p2 / pitch) * (w_p2 / pitch)
    # 5-point central second derivative of n_eff wrt wavelength
    d2 = (-f_m2 + 16.0 * f_m1 - 30.0 * f_0 + 16.0 * f_p1 - f_p2) / _FD_DENOM
    alpha = _LOSS_ALPHA_MAX * math.exp(-_LOSS_KAPPA * float(geom.n_rings) * dratio)
    return float(f_0), float(-_DISP_PREF * lam * d2), float(alpha * rel**_LOSS_S)


def sellmeier_index(lambda_um: float) -> float:
    validate_wavelength(lambda_um)
    return float(_sellmeier_n(lambda_um))


def effective_index(geom: Geometry, lambda_um: float) -> float:
    return _properties(geom, lambda_um)[0]


def dispersion(geom: Geometry, lambda_um: float) -> float:
    return _properties(geom, lambda_um)[1]


def loss(geom: Geometry, lambda_um: float) -> float:
    return _properties(geom, lambda_um)[2]


def simulate(geom: Geometry, lambda_um: float, counter: CallCounter) -> SimResult:
    """One charged property evaluation. Raises (uncharged) on invalid input."""
    ne, dd, al = _properties(geom, lambda_um)
    counter.tick()
    return SimResult(n_eff=ne, dispersion_ps_nm_km=dd, loss_db_km=al, lambda_um=lambda_um)


def verify(result: SimResult, target: TargetSpec) -> bool:
    """Strict-< tolerance check on dispersion and loss at the target wavelength."""
    if result.lambda_um != target.lambda_um:
        return False
    return (
        abs(result.dispersion_ps_nm_km - target.dispersion_ps_nm_km)
        < target.tol_dispersion
        and abs(result.loss_db_km - target.loss_db_km) < target.tol_loss
    )


def target_errors(result: SimResult, target: TargetSpec) -> tuple[float, float]:
    """Tolerance-normalized target errors of dispersion and of loss."""
    return (
        abs(result.dispersion_ps_nm_km - target.dispersion_ps_nm_km)
        / target.tol_dispersion,
        abs(result.loss_db_km - target.loss_db_km) / target.tol_loss,
    )


def miss(result: SimResult, target: TargetSpec) -> float:
    """Max tolerance-normalized target error; < 1 iff verify() passes."""
    return max(target_errors(result, target))


def quality(result: SimResult, target: TargetSpec) -> float:
    """Graded closeness in (0, 1]: 1 / (1 + normalized miss)."""
    err = max(
        abs(result.dispersion_ps_nm_km - target.dispersion_ps_nm_km)
        / (target.tol_dispersion + 1e-9),
        abs(result.loss_db_km - target.loss_db_km) / (target.tol_loss + 1e-9),
    )
    return 1.0 / (1.0 + err)


_PARAM_PROBE = {"pitch": 0.05, "hole_d": 0.05, "n_rings": 1.0}


def metric_sign(
    geom: Geometry, param: str, metric: str, lambda_um: float, counter: CallCounter
) -> int:
    """Sign of d(metric)/d(param) by a charged central difference.

    Falls back to a one-sided probe at a validity bound. Returns -1, 0 or +1.
    """
    step = _PARAM_PROBE[param]
    lo = geom.with_param(param, geom.param(param) - step)
    hi = geom.with_param(param, geom.param(param) + step)
    if not geometry_valid(lo):
        lo = geom
    if not geometry_valid(hi):
        hi = geom
    if lo is geom and hi is geom:
        return 0
    a = simulate(lo, lambda_um, counter).metric(metric)
    b = simulate(hi, lambda_um, counter).metric(metric)
    if b > a:
        return 1
    if b < a:
        return -1
    return 0
