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
from numpy.random.bit_generator import ISeedSequence

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
        check_seed("rng_seed", self.rng_seed)
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


def check_seed(name: str, value) -> int:
    """Return value as an int; raise ValueError naming it unless it is a
    non-negative integer, the only seed numpy's SeedSequence takes."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


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
    positions must be (2I, 2) for the config's I links, laid out as
    drop_topology returns them.

    rng is a numpy Generator, one stream for the whole tensor, or a seed key:
    a non-negative int or a tuple of them.  With a key, pair (i, j) draws its
    K shadowing terms from its own substream, exactly what
    np.random.default_rng(key + (i, j)).normal(0.0, shadow_sigma_db, K)
    would draw, so the draws of a shared pair coincide across runs that
    differ only in link count.  The substreams' PCG64 seeds come from one
    vectorized pass of numpy's SeedSequence hash over all I^2 keys
    (_pair_seed_words); PCG64 seeds itself from them.
    """
    I, K = cfg.num_links, cfg.num_tones
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (2 * I, 2):
        raise ValueError(f"positions must have shape ({2 * I}, 2) for {I} links, got {positions.shape}")
    tx = positions[0::2]
    rx = positions[1::2]
    dist = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
    pl = pathloss_db(cfg, np.maximum(dist, MIN_DISTANCE_M))

    if isinstance(rng, np.random.Generator):
        shadow = rng.normal(0.0, cfg.shadow_sigma_db, size=(I, I, K)) if cfg.shadow_sigma_db > 0 \
            else np.zeros((I, I, K))
    else:
        key = (rng,) if isinstance(rng, (int, np.integer)) else tuple(rng)
        shadow = np.empty((I * I, K))
        for row, words in zip(shadow, _pair_seed_words(key, I)):
            sub = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            row[:] = sub.normal(0.0, cfg.shadow_sigma_db, size=K)
        shadow = shadow.reshape(I, I, K)

    cross = 10.0 ** (-(pl[:, :, None] + shadow) / 10.0)
    noise = cfg.noise_power_mw
    direct = np.einsum("iik->ik", cross) / noise
    if not (np.all(np.isfinite(cross)) and np.all(cross > 0.0)):
        raise FloatingPointError("non-finite or non-positive channel gain")
    return ChannelRealization(
        cross_gain=cross,
        direct_gain=direct,
        positions=positions.copy(),
        noise_power_mw=noise,
        tone_bandwidth_hz=cfg.tone_bandwidth_hz,
    )


# Keyed substreams.  default_rng(seed) seeds PCG64 with the four uint64 words
# SeedSequence(seed).generate_state(4, np.uint64) returns.  SeedSequence
# (numpy/random/bit_generator.pyx) splits the seed's ints into 32-bit entropy
# words, hashes them into a pool of four words, mixes the pool and hashes it
# out again, all in uint32 arithmetic.  _pair_seed_words runs those steps for
# the entropy of every key + (i, j) at once.  Words that only depend on the
# key stay Python ints (masked to 32 bits); words that depend on i or j are
# uint32 arrays broadcasting over (i, j), and a step that updates several
# pool words does them as one array with the words on its last axis.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875    # hash constants of the pool's mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED    # and of generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# the same constants as uint32 arrays, for operations on array words
_SHIFT, _MIX_L32, _MIX_R32 = (np.array(c, dtype=np.uint32) for c in (16, _MIX_L, _MIX_R))


def _hash_constants(init, mult, count):
    """The hash constant before each of count successive hashes, and after the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# generate_state(4, np.uint64) hashes the pool words 0 1 2 3 0 1 2 3 in turn
_STATE_CONSTS = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)
_STATE_XOR, _STATE_MUL = _STATE_CONSTS[:-1].reshape(2, 4), _STATE_CONSTS[1:].reshape(2, 4)


def _fold(x):
    """x ^ (x >> 16) of a uint32 word; a Python int is masked to 32 bits first."""
    if isinstance(x, int):
        x &= _MASK32
        return x ^ x >> 16
    return x ^ x >> _SHIFT


def _hashmix(value, xor_const, mul_const):
    return _fold((value ^ xor_const) * mul_const)


def _mix(x, y):
    x = _MIX_L * x & _MASK32 if isinstance(x, int) else _MIX_L32 * x
    y = _MIX_R * y & _MASK32 if isinstance(y, int) else _MIX_R32 * y
    return _fold(x - y)


def _stack(words):
    """The words (ints or arrays) broadcast against each other and stacked on a last axis."""
    if all(isinstance(w, int) for w in words):
        return np.array(words, dtype=np.uint32)
    out = np.empty(np.broadcast(*words).shape + (len(words),), dtype=np.uint32)
    for n, w in enumerate(words):
        out[..., n] = w
    return out


def _mix_into(pool, src, consts):
    """Mix pool word src into the other three in turn: pool[d] = mix(pool[d],
    hashmix(pool[src])), the n-th hashmix going from hash constant consts[n]
    to consts[n + 1]."""
    dsts = [d for d in range(4) if d != src]
    value = pool[src]
    if isinstance(value, int):
        for n, d in enumerate(dsts):
            pool[d] = _mix(pool[d], _hashmix(value, consts[n], consts[n + 1]))
        return
    c = np.array(consts[:4], dtype=np.uint32)
    mixed = _mix(_stack([pool[d] for d in dsts]), _hashmix(value[..., None], c[:-1], c[1:]))
    for n, d in enumerate(dsts):
        pool[d] = mixed[..., n]


def _pair_seed_words(key, I):
    """PCG64 seed words of default_rng(key + (i, j)) for every pair: an
    (I * I, 4) uint64 array, row i * I + j."""
    entropy = []
    for value in key:
        value = check_seed("seed key element", value)
        entropy.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            entropy.append(value & _MASK32)
    index = np.arange(I, dtype=np.uint32)
    entropy += [index[:, None], index[None, :]]
    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(len(entropy) - 4, 0))
    # the first four entropy words (zeros past the end) hash into the pool,
    pool = [_hashmix(entropy[d] if d < len(entropy) else 0, consts[d], consts[d + 1])
            for d in range(4)]
    # each pool word is mixed into the other three,
    for src in range(4):
        _mix_into(pool, src, consts[4 + 3 * src:])
    # and each further entropy word into all four
    pool = _stack(pool)
    for n, word in enumerate(entropy[4:]):
        c = np.array(consts[16 + 4 * n:21 + 4 * n], dtype=np.uint32)
        pool = _mix(pool, _hashmix(word if isinstance(word, int) else word[..., None], c[:-1], c[1:]))
    state = _hashmix(pool[..., None, :], _STATE_XOR, _STATE_MUL)    # (I, I, 2, 4)
    # the eight uint32 words pair up little-endian into four uint64 words
    return state.reshape(I * I, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """Hands PCG64 seed words computed elsewhere."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words
