"""Topology and channel gain generation for indoor small cell scenarios.

Four deployment scenarios are supported, differing only in the pathloss law
between link endpoints:

  urban-indoor      single-slope law, inner-wall penetration
  urban-outdoor     dual-slope law, inner and outer wall penetration
  suburban-indoor   single-slope law, no wall terms
  suburban-outdoor  dual-slope law, outer wall only

Unit conventions used throughout the package: linear powers are mW, distances
are meters, gains are linear power ratios.  Normalized direct gains divide the
raw channel gain by the noise power over one tone, so gain (1/mW) times
transmit power (mW) is a plain per-tone SNR.
"""

from dataclasses import dataclass, fields, replace
import numpy as np

SCENARIOS = ("urban-indoor", "urban-outdoor", "suburban-indoor", "suburban-outdoor")

# dual-slope scenarios add the outer-wall loss; indoor urban adds inner walls
_DUAL_SLOPE = ("urban-outdoor", "suburban-outdoor")
_INNER_WALL = ("urban-indoor", "urban-outdoor")

MIN_DISTANCE_M = 1.0  # clamp below this to dodge near-field blowup on coincident drops


@dataclass
class ScenarioConfig:
    """Deployment parameters for one experiment.

    Defaults reproduce the reference setup: 25 m cell, 10 tones of 180 kHz,
    20 dBm per-link budget, one inner wall, receivers 25 m deep indoors.
    """

    scenario: str = "urban-indoor"
    cell_radius_m: float = 25.0
    num_links: int = 4
    num_tones: int = 10
    tone_bandwidth_hz: float = 180e3
    noise_density_dbm_hz: float = -174.0
    max_power_dbm: float = 20.0
    indoor_dist_m: float = 25.0
    num_floors: int = 0
    num_walls: int = 1
    inner_wall_loss_db: float = 5.0
    outer_wall_loss_db: float = 20.0
    shadow_sigma_db: float = 3.0
    rng_seed: int = 1234

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.num_links < 1 or self.num_tones < 1:
            raise ValueError("need at least one link and one tone")
        if self.cell_radius_m <= 0 or self.tone_bandwidth_hz <= 0:
            raise ValueError("cell_radius_m and tone_bandwidth_hz must be positive")
        for name in ("num_floors", "num_walls", "indoor_dist_m", "shadow_sigma_db"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        for f in fields(self):
            if f.type in (float, "float") and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        return self

    @property
    def noise_power_mw(self) -> float:
        """Linear noise power over one tone bandwidth."""
        return 10.0 ** ((self.noise_density_dbm_hz + 10.0 * np.log10(self.tone_bandwidth_hz)) / 10.0)

    @property
    def max_power_mw(self) -> float:
        return 10.0 ** (self.max_power_dbm / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One frozen draw of the channel.

    cross_gain[i, j, k] is the linear gain from transmitter i to receiver j on
    tone k.  direct_gain[i, k] = cross_gain[i, i, k] / noise_power_mw.
    positions[2i] is transmitter i, positions[2i+1] is receiver i.
    """

    cross_gain: np.ndarray        # (I, I, K), dimensionless
    direct_gain: np.ndarray       # (I, K), 1/mW
    positions: np.ndarray         # (2I, 2), meters
    noise_power_mw: float
    tone_bandwidth_hz: float

    @property
    def num_links(self) -> int:
        return self.cross_gain.shape[0]

    @property
    def num_tones(self) -> int:
        return self.cross_gain.shape[2]


def config_from_file(path, **overrides) -> ScenarioConfig:
    """Read a flat key=value config file; keyword overrides win over the file.

    Keys match ScenarioConfig field names.  Blank lines and '#' comments are
    skipped.  Unknown keys raise.
    """
    ftypes = {f.name: f.type for f in fields(ScenarioConfig)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in ftypes:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(ftypes[key], val)
    cfg = replace(ScenarioConfig(), **values)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg.validate()


def _coerce(ftype, text):
    if ftype in (int, "int"):
        return int(text)
    if ftype in (float, "float"):
        return float(text)
    return text


def drop_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Drop all endpoints uniformly in the cell disk.

    Returns a (2I, 2) array, transmitter i at row 2i and its receiver at row
    2i+1.  The draw is laid out per link so that a longer link list with the
    same generator state reproduces the shorter list as a prefix.
    """
    u = rng.random((cfg.num_links, 2, 2))
    r = cfg.cell_radius_m * np.sqrt(u[..., 0])  # sqrt for uniform area density
    phi = 2.0 * np.pi * u[..., 1]
    pos = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    return pos.reshape(2 * cfg.num_links, 2)


def pathloss_db(cfg: ScenarioConfig, distance_m):
    """Scenario pathloss in dB at the given distance(s).

    Distances below 1 m are clamped to 1 m.  Non-positive distances raise.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    d = np.maximum(d, MIN_DISTANCE_M)

    base = 38.46 + 20.0 * np.log10(d)
    if cfg.scenario in _DUAL_SLOPE:
        base = np.maximum(base, 15.3 + 37.6 * np.log10(d))

    n = cfg.num_floors
    floor_term = 0.0 if n == 0 else 18.3 * n ** ((n + 2.0) / (n + 1.0) - 0.46)
    pl = base + 0.7 * cfg.indoor_dist_m + floor_term
    if cfg.scenario in _INNER_WALL:
        pl = pl + cfg.num_walls * cfg.inner_wall_loss_db
    if cfg.scenario in _DUAL_SLOPE:
        pl = pl + cfg.outer_wall_loss_db
    return pl if np.ndim(distance_m) else float(pl)


def realize_channels(cfg: ScenarioConfig, positions: np.ndarray, rng) -> ChannelRealization:
    """Draw the full cross-gain tensor for a dropped topology.

    Per (tx, rx, tone) triple the gain is the scenario pathloss plus an
    independent zero-mean log-normal shadowing term of shadow_sigma_db.

    rng may be a numpy Generator (one stream for the whole tensor) or a seed
    key tuple; with a key the shadowing of pair (i, j) comes from its own
    substream, so draws for a shared pair coincide across runs that differ
    only in link count.
    """
    I, K = cfg.num_links, cfg.num_tones
    tx = positions[0::2]
    rx = positions[1::2]
    dist = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
    pl = pathloss_db(cfg, np.maximum(dist, MIN_DISTANCE_M))

    if isinstance(rng, np.random.Generator):
        shadow = rng.normal(0.0, cfg.shadow_sigma_db, size=(I, I, K)) if cfg.shadow_sigma_db > 0 \
            else np.zeros((I, I, K))
    else:
        key = tuple(rng) if not isinstance(rng, (int, np.integer)) else (int(rng),)
        shadow = np.empty((I, I, K))
        for i in range(I):
            for j in range(I):
                sub = np.random.default_rng(key + (i, j))
                shadow[i, j] = sub.normal(0.0, cfg.shadow_sigma_db, size=K)

    cross = 10.0 ** (-(pl[:, :, None] + shadow) / 10.0)
    noise = cfg.noise_power_mw
    direct = np.einsum("iik->ik", cross) / noise
    if not (np.all(np.isfinite(cross)) and np.all(cross > 0.0)):
        raise FloatingPointError("non-finite or non-positive channel gain")
    return ChannelRealization(
        cross_gain=cross,
        direct_gain=direct,
        positions=np.array(positions, dtype=float),
        noise_power_mw=noise,
        tone_bandwidth_hz=cfg.tone_bandwidth_hz,
    )
