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

from .tssolver import _check_count

# a received ratio s2/s1 above 1 + RATIO_TOL cannot come from a valid pair
RATIO_TOL = 0.1


@dataclass(frozen=True)
class QuantizationTable:
    """Public gain codebook: sorted levels and their f values in (0, 1]."""

    gain_levels: np.ndarray   # strictly increasing, 1/mW
    f_values: np.ndarray      # strictly increasing, in (0, 1]

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
    to j/M.  Sample sets too coarse to give M distinct levels raise.
    """
    if _check_count("num_levels", num_levels) < 2:
        raise ValueError("need at least two quantization levels")
    samples = np.asarray(gain_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample set")
    probs = np.arange(1, num_levels + 1) / num_levels
    levels = np.quantile(samples, probs)
    if np.any(np.diff(levels) <= 0.0):
        raise ValueError("duplicate quantization levels, need more distinct samples")
    return QuantizationTable(gain_levels=levels, f_values=probs)


def encode_powers(gains, table: QuantizationTable, p0_mw: float):
    """Transmit powers (reference, scaled) announcing each gain in an array.

    The reference burst goes out at p0_mw, the scaled one at p0_mw * f(level)
    where level is the quantized gain.
    """
    if not p0_mw > 0.0:
        raise ValueError("reference power must be positive")
    return p0_mw, p0_mw * table.f_values[table.level_index(gains)]


def decode_levels(s1, s2, table: QuantizationTable):
    """Recover the announced gain levels from arrays of received burst powers.

    The power ratio s2/s1 equals f(level) regardless of the propagation
    gain; the nearest table entry in f-space wins, the lowest index on ties.
    Received powers must be finite and positive, and ratios outside
    (0, 1 + RATIO_TOL] cannot come from a valid pair; both raise.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if not (np.all((s1 > 0.0) & (s1 < np.inf)) and np.all((s2 > 0.0) & (s2 < np.inf))):
        raise ValueError("received powers must be finite and positive")
    ratio = s2 / s1
    if np.any(ratio > 1.0 + RATIO_TOL):
        raise ValueError(f"malformed signal pair, ratio {ratio.max():.4g} "
                         f"outside (0, {1 + RATIO_TOL:.2f}]")
    idx = np.argmin(np.abs(table.f_values - ratio[..., None]), axis=-1)
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
