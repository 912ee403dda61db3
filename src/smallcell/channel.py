"""Topology and channel gain generation for indoor small cell scenarios.

Four deployment scenarios are supported, differing only in the pathloss law
between link endpoints:

  urban-indoor      single-slope law, inner-wall penetration
  urban-outdoor     dual-slope law, inner and outer wall penetration
  suburban-indoor   single-slope law, no wall terms
  suburban-outdoor  dual-slope law, outer wall only

Gains come from one formula, _path_gains: the tx-rx lengths clamped at
MIN_DISTANCE_M, the scenario pathloss, the shadowing and the dB-to-linear
step under one overflow guard.  realize_channels draws the cross-gain tensor
of a topology with it, and scenario_gain_samples the direct-gain samples
behind the signaling codebook; a gain past the float range is inf and is
rejected in one line, by ChannelRealization or build_cdf_table.

Unit conventions used throughout the package: linear powers are mW, distances
are meters, gains are linear power ratios.  Normalized direct gains divide the
raw channel gain by the noise power over one tone, so gain (1/mW) times
transmit power (mW) is a plain per-tone SNR.
"""

from dataclasses import dataclass, field, fields, replace
import math
import sys
import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .tssolver import _check_finite, _check_int

SCENARIOS = ("urban-indoor", "urban-outdoor", "suburban-indoor", "suburban-outdoor")

# dual-slope scenarios add the outer-wall loss; indoor urban adds inner walls
_DUAL_SLOPE = ("urban-outdoor", "suburban-outdoor")
_INNER_WALL = ("urban-indoor", "urban-outdoor")

MIN_DISTANCE_M = 1.0  # clamp below this to dodge near-field blowup on coincident drops
# endpoints lie in the cell disk, so each coordinate of a tx-rx difference is
# at most twice the radius, and the squared length at most 8 radius^2
MAX_RADIUS_M = math.sqrt(sys.float_info.max / 8.0)
GAIN_SAMPLES = 2048   # scenario gain samples behind the signaling codebook


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.cell_radius_m <= 0 or self.tone_bandwidth_hz <= 0:
            raise ValueError("cell_radius_m and tone_bandwidth_hz must be positive")
        for name in ("indoor_dist_m", "shadow_sigma_db"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type is int:
                _check_int(f.name, value, 1 if f.name in ("num_links", "num_tones") else 0)
            # pathloss_db scales a dB term by these counts as floats
            if f.name in ("num_floors", "num_walls") and value > sys.float_info.max:
                raise ValueError(f"{f.name} must be at most {sys.float_info.max!r}, the largest float")
        if self.cell_radius_m > MAX_RADIUS_M:
            raise ValueError(f"cell_radius_m must be at most sqrt(float max / 8) = {MAX_RADIUS_M!r}, "
                             f"so that endpoint distances squared stay finite, got {self.cell_radius_m!r}")
        for derived, settings in (("noise_power_mw", "noise_density_dbm_hz and tone_bandwidth_hz"),
                                  ("max_power_mw", "max_power_dbm")):
            try:
                value = getattr(self, derived)
            except OverflowError:  # what a float power raises where numpy's gives inf
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(f"{derived} from {settings} is {value!r}, not finite and positive")

    @property
    def noise_power_mw(self) -> float:
        """Linear noise power over one tone bandwidth."""
        return 10.0 ** ((self.noise_density_dbm_hz + 10.0 * float(np.log10(self.tone_bandwidth_hz))) / 10.0)

    @property
    def max_power_mw(self) -> float:
        return 10.0 ** (self.max_power_dbm / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One frozen draw of the channel.

    cross_gain[i, j, k] is the linear gain from transmitter i to receiver j on
    tone k.  direct_gain[i, k] = cross_gain[i, i, k] / noise_power_mw is derived
    when it is built, which rejects bad input; both arrays are read-only copies.
    """

    cross_gain: np.ndarray        # (I, I, K), dimensionless
    noise_power_mw: float
    direct_gain: np.ndarray = field(init=False)    # (I, K), 1/mW

    def __post_init__(self):
        cross, noise = np.array(self.cross_gain, dtype=float), self.noise_power_mw
        if cross.ndim != 3 or cross.shape[0] != cross.shape[1] or 0 in cross.shape:
            raise ValueError(f"cross_gain must have shape (I, I, K) with I, K >= 1, got {cross.shape}")
        _check_finite("cross gains", cross, False)
        _check_finite("noise_power_mw", noise, True, ())
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            direct = np.einsum("iik->ik", cross) / noise
        if not direct.item(direct.argmax()) < math.inf:
            raise ValueError(f"direct gains cross_gain[i, i, k] / {noise!r} overflow")
        cross.flags.writeable = direct.flags.writeable = False
        object.__setattr__(self, "cross_gain", cross)
        object.__setattr__(self, "direct_gain", direct)

    @property
    def num_links(self) -> int:
        return self.cross_gain.shape[0]

    @property
    def num_tones(self) -> int:
        return self.cross_gain.shape[2]


def config_from_file(path, **overrides) -> ScenarioConfig:
    """Read a flat key=value config file; keyword overrides win over the file.

    Keys match ScenarioConfig field names, values parse as the field's type.
    Blank lines and '#' comments are skipped.  Unknown keys, bad values and a
    key given twice raise.
    """
    ftypes = {f.name: f.type for f in fields(ScenarioConfig)}
    values, first_line = {}, {}
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
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: {key} given twice (first on line {first_line[key]})")
            first_line[key] = lineno
            try:
                values[key] = ftypes[key](val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} expects {ftypes[key].__name__}, got {val!r}") from None
    return ScenarioConfig(**values | {k: v for k, v in overrides.items() if v is not None})


def drop_topology(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Drop all endpoints uniformly in the cell disk.

    Returns a (2I, 2) array, transmitter i at row 2i and its receiver at row
    2i+1.  The draw is laid out per link so that a longer link list with the
    same generator state reproduces the shorter list as a prefix.
    """
    u = rng.random((cfg.num_links, 2, 2))
    r = cfg.cell_radius_m * np.sqrt(u[..., 0])  # sqrt for uniform area density
    phi = 2.0 * np.pi * u[..., 1]
    return np.stack((r * np.cos(phi), r * np.sin(phi)), axis=-1).reshape(2 * cfg.num_links, 2)


def pathloss_db(cfg: ScenarioConfig, distance_m):
    """Scenario pathloss in dB at the given distance(s).

    Distances below 1 m are clamped to 1 m.  Non-positive and NaN distances raise.
    """
    d = np.asarray(distance_m, dtype=float)
    if not (d > 0.0).all():
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


def realize_channels(cfg: ScenarioConfig, positions: np.ndarray, key) -> ChannelRealization:
    """Draw the full cross-gain tensor for a dropped topology.

    Per (tx, rx, tone) triple the gain is the scenario pathloss plus an
    independent zero-mean log-normal shadowing term of shadow_sigma_db.
    positions must be (2I, 2) for the config's I links, laid out as
    drop_topology returns them.

    key is a seed key: a non-negative int or a tuple of them.  Pair (i, j)
    draws its K shadowing terms from its own substream, exactly what
    np.random.default_rng(key + (i, j)).normal(0.0, shadow_sigma_db, K)
    would draw, so the draws of a shared pair coincide across runs that
    differ only in link count.  The substreams' PCG64 seeds come from one
    vectorized pass of numpy's SeedSequence hash over all I^2 keys
    (_pair_seed_words).
    """
    I, K = cfg.num_links, cfg.num_tones
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (2 * I, 2):
        raise ValueError(f"positions must have shape ({2 * I}, 2) for {I} links, got {positions.shape}")
    key = key if isinstance(key, tuple) else (key,)
    shadow = np.empty((I * I, K))
    for row, words in zip(shadow, _pair_seed_words(key, I)):
        sub = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        row[:] = sub.normal(0.0, cfg.shadow_sigma_db, size=K)
    cross = _path_gains(cfg, positions[0::2, None, :], positions[None, 1::2, :], shadow.reshape(I, I, K))
    return ChannelRealization(cross_gain=cross, noise_power_mw=cfg.noise_power_mw)


def scenario_gain_samples(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw GAIN_SAMPLES direct-gain samples from the scenario distribution.

    Used to build the shared quantization codebook: fresh endpoint pairs and
    shadowing draws, independent of any particular realization.  A sample
    past the float range is inf, and build_cdf_table rejects it.
    """
    pos = drop_topology(replace(cfg, num_links=GAIN_SAMPLES), rng)
    shadow = rng.normal(0.0, cfg.shadow_sigma_db, size=GAIN_SAMPLES)
    return _path_gains(cfg, pos[0::2], pos[1::2], shadow[:, None], cfg.noise_power_mw)[:, 0]


def _path_gains(cfg: ScenarioConfig, tx, rx, shadow, noise_mw=None):
    """Linear gains 10 ** (-(pathloss + shadow) / 10) of the links from tx to
    rx (positions on the last axis, broadcast against each other), with each
    link's shadowing draws in dB on shadow's last axis; divided by noise_mw
    when it is given.  Lengths are clamped at MIN_DISTANCE_M, since
    realize_channels takes positions from outside and a coincident pair must
    not raise.  A gain past the float range is inf, which the caller rejects
    in one line, without numpy's overflow warning.
    """
    pl = pathloss_db(cfg, np.maximum(np.linalg.norm(tx - rx, axis=-1), MIN_DISTANCE_M))
    with np.errstate(over="ignore"):
        gains = 10.0 ** (-(pl[..., None] + shadow) / 10.0)
        return gains if noise_mw is None else gains / noise_mw


# Keyed substreams.  default_rng(seed) seeds PCG64 with the four uint64 words
# SeedSequence(seed).generate_state(4, np.uint64) returns.  SeedSequence
# (numpy/random/bit_generator.pyx) splits the seed's ints into 32-bit entropy
# words, hashes them into a pool of four words, mixes the pool and hashes it
# out again, all in uint32 arithmetic.  _pair_seed_words runs those steps on
# one (I, I, words) uint32 array holding the entropy of every key + (i, j),
# and each step updates the whole pool at once: pool words on the last axis,
# and a row of four hash constants per step.
_MULT_A = 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# The hash constant before each of the pool's hashes, and after the last, in
# order: its four entropy words, pool word src into the other three for each
# src, then four per further entropy word.  One row of _POOL_XOR and _POOL_MUL
# holds the constants before and after the hashes of one whole-pool step; in
# row 1 + src, column src mixes the word into itself, which the caller undoes,
# so its constant, index -1, is a dummy.
_POOL_CONSTS = np.multiply.accumulate(np.array([0x43B0D7E5] + [_MULT_A] * 20, np.uint32), dtype=np.uint32)
_POOL_ORDER = np.array([[0, 1, 2, 3], [-1, 4, 5, 6], [7, -1, 8, 9], [10, 11, -1, 12],
                        [13, 14, 15, -1], [16, 17, 18, 19]])
_POOL_XOR, _POOL_MUL = _POOL_CONSTS[_POOL_ORDER], _POOL_CONSTS[_POOL_ORDER + 1]
# each further entropy word's constants are the last word's times _MULT_A ** 4
_WORD_STEP = np.uint32(_MULT_A ** 4 & 0xFFFFFFFF)
# generate_state(4, np.uint64) hashes the pool words 0 1 2 3 0 1 2 3 in turn
_STATE_CONSTS = np.multiply.accumulate(np.array([0x8B51F9DD] + [0x58F38DED] * 8, np.uint32), dtype=np.uint32)
_STATE_XOR, _STATE_MUL = _STATE_CONSTS[:-1].reshape(2, 4), _STATE_CONSTS[1:].reshape(2, 4)


def _hashmix(value, xor_const, mul_const):
    x = (value ^ xor_const) * mul_const
    return x ^ x >> 16


def _mix(x, y):
    x = _MIX_L * x - _MIX_R * y
    return x ^ x >> 16


def _pair_seed_words(key, I):
    """PCG64 seed words of default_rng(key + (i, j)) for every pair: an
    (I * I, 4) uint64 array, row i * I + j, the words
    SeedSequence(key + (i, j)).generate_state(4, np.uint64) returns.

    key is a tuple of non-negative ints; an int of any size contributes its
    32-bit words, least significant first, as SeedSequence splits it.  One
    array pass replaces I * I SeedSequence objects, whose construction
    dominated a keyed draw: at 16 links and 64 tones, 6.5 of the 8.4 ms
    that 256 default_rng draws take, against 0.2 ms for this pass (Python
    3.11, numpy 2.4, one core of a shared 2-vCPU x86-64 host).
    """
    words = []
    for value in key:
        value = _check_int("seed key element", value, 0)
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    n = len(words)
    # the entropy words, zeros past the end up to the pool's four
    entropy = np.zeros((I, I, max(n + 2, 4)), dtype=np.uint32)
    entropy[..., :n] = words
    entropy[..., n] = np.arange(I, dtype=np.uint32)[:, None]
    entropy[..., n + 1] = np.arange(I, dtype=np.uint32)
    # the first four entropy words hash into the pool,
    pool = _hashmix(entropy[..., :4], _POOL_XOR[0], _POOL_MUL[0])
    # each pool word is mixed into the other three,
    for src in range(4):
        mixed = _mix(pool, _hashmix(pool[..., src, None], _POOL_XOR[1 + src], _POOL_MUL[1 + src]))
        mixed[..., src] = pool[..., src]
        pool = mixed
    # and each further entropy word into all four
    xor, mul = _POOL_XOR[5], _POOL_MUL[5]
    for word in range(4, entropy.shape[-1]):
        pool = _mix(pool, _hashmix(entropy[..., word, None], xor, mul))
        xor, mul = xor * _WORD_STEP, mul * _WORD_STEP
    state = _hashmix(pool[..., None, :], _STATE_XOR, _STATE_MUL)    # (I, I, 2, 4)
    # the eight uint32 words pair up little-endian into four uint64 words
    return state.reshape(I * I, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """Hands PCG64 seed words computed elsewhere."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words
