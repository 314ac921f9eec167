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
    R : (K, L, N, N) complex Hermitian PSD correlation matrices. Passed as
        None, they are built on first use from beta and the AP-UE angles
        for `antennas_per_ap` antennas and `angular_spread_rad`, and then
        cached; admission never reads them. Assigning R replaces them and
        drops the cached square roots.
    """

    def __init__(self, ap_pos, ue_pos, beta, R, area_side_km,
                 antennas_per_ap=None, angular_spread_rad=None):
        self.ap_pos = ap_pos
        self.ue_pos = ue_pos
        self.beta = beta
        self.area_side_km = float(area_side_km)
        self._antennas = antennas_per_ap
        self._angular_spread_rad = angular_spread_rad
        self.R = R

    @property
    def R(self) -> np.ndarray:
        if self._R is None:
            # azimuth of the minimal-displacement vector AP -> UE; one antenna
            # has no angular structure, and the correlation ignores the angle
            # there
            angles = 0.0
            if self._antennas > 1:
                dx, dy = _displacement(self.ap_pos[None, :, :], self.ue_pos[:, None, :],
                                       self.area_side_km)
                angles = np.arctan2(dy, dx)
            self._R = spatial_correlation_matrix(self.beta, angles, self._angular_spread_rad,
                                                 self._antennas)
        return self._R

    @R.setter
    def R(self, value):
        self._R = value
        self._R_sqrt = None
        if value is not None:
            self._antennas = value.shape[-1]

    @property
    def antennas_per_ap(self):
        return self._antennas

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


def _displacement(a, b, side: float) -> list:
    """Minimal displacement b - a on the torus, as [dx, dy] arrays.

    a and b are (..., 2) positions that broadcast against each other. Each
    axis is computed on its own contiguous array: a trailing length-2 axis
    makes the elementwise passes and the reductions several times slower.
    Each wrap d - side * round(d / side) runs in place, in that order, in one
    scratch array shared by the two axes: three arrays of the broadcast shape
    at most.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)[:-1]
    d = [np.subtract(b[..., i], a[..., i], out=np.empty(shape)) for i in (0, 1)]
    wraps = np.empty(shape)
    for di in d:
        np.divide(di, side, out=wraps)
        np.round(wraps, out=wraps)
        wraps *= side
        di -= wraps
    return d


def _squared_norm(dx, dy) -> np.ndarray:
    """dx*dx + dy*dy, in dx's memory (dy is overwritten too)."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def toroidal_distance(a, b, side: float) -> np.ndarray:
    """Planar torus distance between (..., 2) positions (broadcasts),
    computed in the memory of the x displacement."""
    dist = _squared_norm(*_displacement(a, b, side))
    return np.sqrt(dist, out=dist)


def large_scale_coefficient(distance_km, shadow_db, cfg: SimulationConfig, out=None):
    """Linear channel gain 10^((-PL0 - slope*log10(d_m) + shadowing)/10).

    The passes run in place, in that order, in `out` (which may be the
    distance array itself) or in one new array (0-d for scalar inputs).
    """
    distance_km = np.asarray(distance_km, dtype=float)
    if np.any(distance_km <= 0):
        raise ValueError("pathloss model needs a strictly positive distance")
    if out is None:
        out = np.empty(np.broadcast_shapes(distance_km.shape, np.shape(shadow_db)))
    gain = np.multiply(distance_km, 1000.0, out=out)
    np.log10(gain, out=gain)
    gain *= cfg.pathloss_slope_db
    np.subtract(-cfg.pathloss_ref_db, gain, out=gain)
    gain += shadow_db
    gain /= 10.0
    return np.power(10.0, gain, out=gain)


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


# values per temporary of one row block: of a drop, of the Step-3 distance
# table, and of the per-batch work of a campaign (realizations, or estimate
# pairs, at a time). 2^15 floats take 256 kB, so a block's few temporaries
# stay in L2, where whole passes sweep L3
BLOCK_VALUES = 2 ** 15


def row_blocks(count: int, per_row: int, least: int = 1) -> list:
    """Slices over count rows of per_row values each, about BLOCK_VALUES
    values a block and at least least rows (a shorter remainder joins the
    block before it; one block may have fewer when count has)."""
    rows = max(least, BLOCK_VALUES // max(1, per_row))
    starts = list(range(0, count, rows))
    if len(starts) > 1 and count - starts[-1] < least:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [count])]


def generate_topology(cfg: SimulationConfig, rng) -> Topology:
    """Drop the network and compute beta for every AP-UE pair; R is built on
    first use.

    The stream is read positions first and then the whole (K, L) shadowing
    draw. Displacement, distance and pathloss then run on blocks of UE rows
    of about BLOCK_VALUES entries, and each block's beta is written over
    its shadowing rows, so the drop holds one (K, L) float array and one
    block's temporaries.
    """
    ap_pos, ue_pos = place_entities(cfg, rng)
    beta = rng.normal(0.0, cfg.shadow_std_db, size=(cfg.num_ues, cfg.num_aps))
    for block in row_blocks(cfg.num_ues, cfg.num_aps):
        dist = _squared_norm(*_displacement(ap_pos[None, :, :], ue_pos[block, None, :],
                                            cfg.area_side_km))
        dist += (cfg.ap_height_m / 1000.0) ** 2
        np.sqrt(dist, out=dist)
        beta[block] = large_scale_coefficient(dist, beta[block], cfg, out=dist)
    return Topology(ap_pos, ue_pos, beta, None, cfg.area_side_km,
                    cfg.antennas_per_ap, np.deg2rad(cfg.angular_spread_deg))


def hermitian_sqrt(R: np.ndarray) -> np.ndarray:
    """Stacked Hermitian PSD square root via eigendecomposition.

    Eigenvalues slightly negative from rounding (>= -1e-10 * tr/N) are
    clipped to zero; anything more negative means the input was not PSD.
    A 1 x 1 matrix is its own eigenvalue, real on the diagonal: its root is
    the elementwise square root of Re R, the bits of the eigendecomposition
    route without running it.
    """
    n = R.shape[-1]
    if n == 1:
        vals = R.real
        if np.any(vals < 0):
            raise np.linalg.LinAlgError("correlation matrix is not positive semi-definite")
        return np.sqrt(vals).astype(complex)
    vals, vecs = np.linalg.eigh(R)
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
        # the square root of beta is real: one product per entry, as in the
        # einsum, scaled into the draw's memory
        z *= topology.correlation_sqrt()[..., 0]
        return z
    # one stacked (N, N) @ (N, batch) product per (UE, AP) pair on BLAS; the
    # copy back to realization-major order keeps later reshapes free of
    # copies, and the draw is released before it is made
    h = topology.correlation_sqrt() @ np.moveaxis(z, 0, -1)              # (K, L, N, batch)
    del z
    return np.ascontiguousarray(np.moveaxis(h, -1, 0))
