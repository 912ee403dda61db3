"""Gain exchange through paired power levels.

Each link announces its per-tone direct gain without any feedback payload: it
broadcasts one reference burst at full power P0 and a second burst at
P0 * f(g), where f is a public monotone map from quantized gain levels into
(0, 1].  Any listener recovers f(g) as the received power ratio of the two
bursts; the unknown cross-channel attenuation cancels in the ratio, and a
table lookup inverts f.

One signaling slot is divided into sub-slots, one transmitting link per
sub-slot.

The two-burst formula is written once, over arrays: encode_powers maps gains
to transmit power pairs and decode_levels maps received power pairs back to
levels.  run_signaling_slot pushes every (sender, receiver, tone) burst pair
of a slot through them at once, one receiver at a time.
"""

from dataclasses import dataclass
import numpy as np

from .tssolver import _check_finite, _check_int

# a received ratio s2/s1 above 1 + RATIO_TOL cannot come from a valid pair
RATIO_TOL = 0.1


@dataclass(frozen=True)
class QuantizationTable:
    """Public gain codebook: sorted levels and their f values in (0, 1].

    Both arrays are read as float and must be 1-D of one length >= 2, the
    levels finite, positive and strictly increasing and the f values
    strictly increasing within (0, 1]; anything else raises ValueError when
    the table is built, since level_index's searchsorted and decode_levels'
    nearest-f lookup misread any other table.
    """

    gain_levels: np.ndarray   # strictly increasing, 1/mW
    f_values: np.ndarray      # strictly increasing, in (0, 1]

    def __post_init__(self):
        levels = np.asarray(self.gain_levels, dtype=float)
        f = np.asarray(self.f_values, dtype=float)
        object.__setattr__(self, "gain_levels", levels)
        object.__setattr__(self, "f_values", f)
        if levels.ndim != 1 or f.shape != levels.shape or levels.size < 2:
            raise ValueError("gain_levels and f_values must be 1-D of one length >= 2, "
                             f"got shapes {levels.shape} and {f.shape}")
        # strictly increasing, and NaN fails every comparison, so the two
        # ends bound every entry
        if not (levels[0] > 0.0 and levels[-1] < np.inf and (levels[1:] > levels[:-1]).all()):
            raise ValueError("gain_levels must be finite, positive and strictly increasing")
        if not (f[0] > 0.0 and f[-1] <= 1.0 and (f[1:] > f[:-1]).all()):
            raise ValueError("f_values must be strictly increasing within (0, 1]")

    @property
    def size(self) -> int:
        return len(self.gain_levels)

    def level_index(self, g):
        """Index of the smallest level at or above each g, clamped to the top level."""
        return np.minimum(np.searchsorted(self.gain_levels, g, side="left"), self.size - 1)


@dataclass
class GainView:
    """What one receiver decoded about everybody's direct gains.

    gains[i, k] is the decoded (quantized) direct gain of link i on tone k;
    missing[i, k] marks erased broadcasts.  Downstream consumers treat a
    missing entry as gain zero, i.e. a tone not worth claiming.
    """

    gains: np.ndarray     # (I, K), 1/mW
    missing: np.ndarray   # (I, K), bool

    def effective_gains(self) -> np.ndarray:
        return np.where(self.missing, 0.0, self.gains)


def build_cdf_table(gain_samples, num_levels: int) -> QuantizationTable:
    """Build the codebook from the empirical gain distribution.

    Levels sit at the empirical quantiles j/M for j = 1..M, and f maps level j
    to j/M.  The levels are numpy's linear quantiles (np.quantile's default
    method, with its bits) read from one sort of the samples by
    _linear_quantiles: 31-35 us for 2,048 samples and 16 levels, against
    113-117 us through np.quantile, whose wrapper is most of its cost
    (Python 3.11, numpy 2.4, one core of a shared 2-vCPU x86-64 host).
    num_levels must be an integer >= 2 and samples finite and positive, and
    sample sets too coarse to give M distinct levels raise; all are
    ValueError.
    """
    _check_int("num_levels", num_levels, 2)
    ordered = np.sort(_check_finite("gain samples", gain_samples, True), axis=None)
    if ordered.size == 0:
        raise ValueError("empty sample set")
    probs = np.arange(1, num_levels + 1) / num_levels
    levels = _linear_quantiles(ordered, probs)
    if not (levels[1:] > levels[:-1]).all():
        raise ValueError("duplicate quantization levels, need more distinct samples")
    return QuantizationTable(gain_levels=levels, f_values=probs)


def _linear_quantiles(ordered, probs):
    """np.quantile(ordered, probs) of sorted, NaN-free 1-D samples, bit for bit.

    numpy's linear method: virtual index v = (n - 1) q, between its floor and
    the next index, both moved to the last index where v >= n - 1.  With
    gamma = v - floor, the lower end plus gamma times the difference gives
    the quantile below gamma = 0.5, and the upper end minus (1 - gamma) times
    it from there on.  np.quantile partitions where this sorts; both put
    the same values at the indices read.
    """
    n = ordered.size
    virtual = (n - 1) * probs
    below = np.floor(virtual)
    above = below + 1.0
    top = virtual >= n - 1
    below[top] = -1.0
    above[top] = -1.0
    lower = ordered[below.astype(np.intp)]
    upper = ordered[above.astype(np.intp)]
    gamma = virtual - below
    diff = upper - lower
    return np.where(gamma >= 0.5, upper - diff * (1.0 - gamma), lower + diff * gamma)


def encode_powers(gains, table: QuantizationTable, p0_mw: float):
    """Transmit powers (reference, scaled) announcing each gain in an array.

    The reference burst goes out at p0_mw, the scaled one at p0_mw * f(level)
    where level is the quantized gain.  p0_mw must be one finite, positive
    number.
    """
    _check_finite("reference power", p0_mw, True, ())
    return p0_mw, p0_mw * table.f_values[table.level_index(gains)]


def decode_levels(s1, s2, table: QuantizationTable):
    """Recover the announced gain levels from arrays of received burst powers.

    The power ratio s2/s1 equals f(level) regardless of the propagation
    gain; the nearest table entry in f-space wins, the lowest index on ties.
    Received powers must be finite and positive, and ratios outside
    (0, 1 + RATIO_TOL] cannot come from a valid pair; both raise.
    """
    s1 = _check_finite("received powers", s1, True)
    s2 = _check_finite("received powers", s2, True)
    ratio = s2 / s1
    if (ratio > 1.0 + RATIO_TOL).any():
        raise ValueError(f"malformed signal pair, ratio {ratio.max():.4g} "
                         f"outside (0, {1 + RATIO_TOL:.2f}]")
    idx = np.abs(table.f_values - ratio[..., None]).argmin(axis=-1)
    return table.gain_levels[idx]


def run_signaling_slot(realization, table: QuantizationTable, p0_mw: float, loss_mask=None):
    """Simulate one full signaling slot and return every receiver's view,
    receiver j's at index j.

    Links broadcast sequentially in index order.  Receiver j hears sender i on
    tone k through cross_gain[i, j, k]; the decoded value is the sender's
    quantized direct gain whenever the broadcast gets through.

    Every sender's burst powers are encoded once for all tones.  Each
    receiver then forms the received pairs s1 = h * P0 and s2 = h * P0 * f
    over its (I, K) slice of the cross-gain tensor and decodes every pair it
    heard in one decode_levels call, so the work is I array passes instead
    of I*I*K scalar decodes, and no temporary grows past (I*K, levels).

    Losses: loss_mask is an (I, I, K) boolean array, True where the
    (sender, receiver, tone) broadcast is erased; None means lossless.  The
    caller draws it, so it can hold losses fixed across slots to model
    persistent propagation failures.
    """
    I, K = realization.num_links, realization.num_tones
    lost = np.zeros((I, I, K), dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
    if lost.shape != (I, I, K):
        raise ValueError(f"loss_mask must have shape {(I, I, K)}, got {lost.shape}")

    tx1, tx2 = encode_powers(realization.direct_gain, table, p0_mw)
    views = []
    for j in range(I):
        missing = lost[:, j, :].copy()
        heard = ~missing
        h = realization.cross_gain[:, j, :][heard]
        gains = np.zeros((I, K))
        gains[heard] = decode_levels(h * tx1, h * tx2[heard], table)
        views.append(GainView(gains=gains, missing=missing))
    return views
