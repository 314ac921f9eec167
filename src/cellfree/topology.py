"""Wrap-around network topology, large-scale fading, and channel sampling.

APs and UEs are dropped uniformly on a square that wraps around like a torus,
approximating an infinitely large network at fixed density. Each AP-UE link
gets a distance-based pathloss with log-normal shadowing and an N x N spatial
correlation matrix from a local-scattering model on a half-wavelength uniform
linear array. Channel realizations are correlated Rayleigh: h = R^(1/2) z.
"""

import numpy as np

from .config import SimulationConfig
from .rng import complex_normal


class Topology:
    """Placements plus the large-scale statistics of every AP-UE link.

    Attributes
    ----------
    ap_pos, ue_pos : (L, 2) / (K, 2) float arrays in km.
    beta : (K, L) linear power gains, beta[k, l] = tr(R[k, l]) / N.
    R : (K, L, N, N) complex Hermitian PSD correlation matrices.
    """

    def __init__(self, ap_pos, ue_pos, beta, R, area_side_km, ap_height_m):
        self.ap_pos = ap_pos
        self.ue_pos = ue_pos
        self.beta = beta
        self.R = R
        self.area_side_km = float(area_side_km)
        self.ap_height_m = float(ap_height_m)
        self._R_sqrt = None

    @property
    def num_aps(self):
        return self.ap_pos.shape[0]

    @property
    def num_ues(self):
        return self.ue_pos.shape[0]

    @property
    def antennas_per_ap(self):
        return self.R.shape[-1]

    def correlation_sqrt(self) -> np.ndarray:
        """(K, L, N, N) Hermitian square roots of R, cached."""
        if self._R_sqrt is None:
            self._R_sqrt = hermitian_sqrt(self.R)
        return self._R_sqrt


def place_entities(cfg: SimulationConfig, rng) -> tuple:
    """I.i.d. uniform AP and UE positions on the wrap-around square."""
    ap_pos = rng.uniform(0.0, cfg.area_side_km, size=(cfg.num_aps, 2))
    ue_pos = rng.uniform(0.0, cfg.area_side_km, size=(cfg.num_ues, 2))
    return ap_pos, ue_pos


def toroidal_displacement(a, b, side: float) -> tuple:
    """Minimal displacement b - a on the torus, as one array per axis (x, y).

    a and b are (..., 2) positions that broadcast against each other. Each
    axis is computed on its own contiguous array: a trailing length-2 axis
    makes the elementwise passes and the reductions several times slower.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = [b[..., i] - a[..., i] for i in (0, 1)]
    return tuple(di - side * np.round(di / side) for di in d)


def toroidal_distance(a, b, side: float) -> np.ndarray:
    """Planar torus distance between (..., 2) positions (broadcasts)."""
    dx, dy = toroidal_displacement(a, b, side)
    return np.sqrt(dx * dx + dy * dy)


def wraparound_distance(a, b, side_km: float, height_m: float = 0.0) -> np.ndarray:
    """3-D distance in km with toroidal x/y wrap and a fixed height offset.

    a and b are (..., 2) positions that broadcast against each other; the
    result has their broadcast shape without the last axis (a NumPy float
    for two points).
    """
    planar = toroidal_distance(a, b, side_km)
    return np.sqrt(planar**2 + (height_m / 1000.0) ** 2)


def large_scale_coefficient(distance_km, shadow_db, cfg: SimulationConfig):
    """Linear channel gain 10^((-PL0 - slope*log10(d_m) + shadowing)/10)."""
    distance_km = np.asarray(distance_km, dtype=float)
    if np.any(distance_km <= 0):
        raise ValueError("pathloss model needs a strictly positive distance")
    gain_db = -cfg.pathloss_ref_db - cfg.pathloss_slope_db * np.log10(distance_km * 1000.0)
    return 10.0 ** ((gain_db + shadow_db) / 10.0)


def spatial_correlation_matrix(beta, nominal_angle_rad, angular_spread_rad, num_antennas):
    """Local-scattering correlation for a half-wavelength ULA (broadcasts).

    Entry (m, n) is
        beta * exp(j*pi*(m-n)*sin(phi)) * exp(-(spread*pi*(m-n)*cos(phi))^2 / 2)
    i.e. a Gaussian angular distribution around the nominal angle phi. The
    result is Hermitian with trace N*beta by construction. With one antenna
    the only entry is beta, and it is returned without evaluating the
    exponentials (the same bits).
    """
    beta = np.asarray(beta, dtype=float)
    phi = np.asarray(nominal_angle_rad, dtype=float)
    if num_antennas == 1:
        shape = np.broadcast_shapes(beta.shape, phi.shape)
        return np.broadcast_to(beta, shape)[..., None, None].astype(complex)
    offsets = np.arange(num_antennas)
    delta = offsets[:, None] - offsets[None, :]  # (N, N) of m - n
    phase = np.exp(1j * np.pi * delta * np.sin(phi)[..., None, None])
    envelope = np.exp(-0.5 * (angular_spread_rad * np.pi * delta) ** 2
                      * np.cos(phi)[..., None, None] ** 2)
    return beta[..., None, None] * phase * envelope


def generate_topology(cfg: SimulationConfig, rng) -> Topology:
    """Drop the network and build beta / R for every AP-UE pair."""
    ap_pos, ue_pos = place_entities(cfg, rng)
    shadow_db = rng.normal(0.0, cfg.shadow_std_db, size=(cfg.num_ues, cfg.num_aps))

    if cfg.num_ues == 0:
        beta = np.zeros((0, cfg.num_aps))
        R = np.zeros((0, cfg.num_aps, cfg.antennas_per_ap, cfg.antennas_per_ap), complex)
        return Topology(ap_pos, ue_pos, beta, R, cfg.area_side_km, cfg.ap_height_m)

    dx, dy = toroidal_displacement(ap_pos[None, :, :], ue_pos[:, None, :], cfg.area_side_km)
    dist = np.sqrt(dx * dx + dy * dy + (cfg.ap_height_m / 1000.0) ** 2)
    beta = large_scale_coefficient(dist, shadow_db, cfg)
    # azimuth of the minimal-displacement vector AP -> UE; one antenna has no
    # angular structure, and the correlation ignores the angle there
    angles = np.arctan2(dy, dx) if cfg.antennas_per_ap > 1 else 0.0
    R = spatial_correlation_matrix(
        beta, angles, np.deg2rad(cfg.angular_spread_deg), cfg.antennas_per_ap
    )
    return Topology(ap_pos, ue_pos, beta, R, cfg.area_side_km, cfg.ap_height_m)


def hermitian_sqrt(R: np.ndarray) -> np.ndarray:
    """Stacked Hermitian PSD square root via eigendecomposition.

    Eigenvalues slightly negative from rounding (>= -1e-10 * tr/N) are
    clipped to zero; anything more negative means the input was not PSD.
    """
    vals, vecs = np.linalg.eigh(R)
    n = R.shape[-1]
    floor = -1e-10 * np.real(np.trace(R, axis1=-2, axis2=-1)) / n
    if np.any(vals < floor[..., None]):
        raise np.linalg.LinAlgError("correlation matrix is not positive semi-definite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def sample_channels(topology: Topology, rng, batch: int = 1) -> np.ndarray:
    """Draw correlated Rayleigh realizations h ~ CN(0, R).

    Returns a C-contiguous (batch, K, L, N) array; independent across
    realizations, UEs, and APs.
    """
    K, L = topology.beta.shape
    N = topology.antennas_per_ap
    z = complex_normal(rng, (batch, K, L, N))
    if N == 1:
        # the square root of beta is real: one product per entry, as in the einsum
        return topology.correlation_sqrt()[..., 0] * z
    # one stacked (N, N) @ (N, batch) product per (UE, AP) pair on BLAS; the
    # copy back to realization-major order keeps later reshapes free of copies
    h = topology.correlation_sqrt() @ np.moveaxis(z, 0, -1)              # (K, L, N, batch)
    return np.ascontiguousarray(np.moveaxis(h, -1, 0))
