"""Raw audio to log-mel features.

Frontend: Hann-windowed power spectrogram over a 40 ms window / 20 ms hop
(defaults), projected onto a 64-band triangular mel filterbank, then
log-compressed with a 1e-10 floor. Fixed choices, documented here because
they matter for reproducibility: HTK mel scale 2595*log10(1+f/700),
symmetric Hann window, FFT size = smallest power of two >= window length,
no pre-emphasis, no per-clip normalization. Stereo input is averaged to
mono; clips are processed at their native sample rate.

Frames are windowed, transformed, projected onto the filterbank and
log-compressed in fixed chunks through reused buffers, straight into the
float32 output, so transient memory does not grow with clip length. The
output is bitwise the same as transforming every frame at once, as long
as BLAS rounds each row of the mel product alike whatever its row block
(OpenBLAS on x86-64 does, at 1 and 2 threads).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import FeatureSequence

LOG_FLOOR = 1e-10

# Values in the zero-padded frame buffer: 128 frames at n_fft = 2048
# (44.1 kHz defaults). In a probe on a 30 s clip (1 BLAS thread), 16-512
# frames per chunk took the same time within 2% and all 1,499 frames at
# once about 25% longer. Sizing by values, not frames, keeps the buffer
# bounded for long windows.
_FRAME_BUFFER_VALUES = 128 * 2048


class DspError(ValueError):
    """Unreadable audio or invalid frontend parameters."""


@dataclass(frozen=True)
class WaveForm:
    """Mono PCM audio in [-1, 1]."""

    samples: np.ndarray  # float64, shape (N,)
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise DspError(f"sample_rate must be positive, got {self.sample_rate}")
        samples = np.asarray(self.samples, dtype=np.float64)
        if not np.isfinite(samples).all():
            raise DspError("non-finite sample values")
        object.__setattr__(self, "samples", samples)


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def read_wav(path: str | Path) -> WaveForm:
    """Read a RIFF/WAVE file: PCM 16-bit, mono or stereo.

    Stereo is averaged to mono; sample s maps to s/32768.
    """
    path = Path(path)
    data = memoryview(path.read_bytes())
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DspError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = bytes(data[offset : offset + 4])
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if body_start + chunk_size > len(data):
            raise DspError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DspError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start : body_start + chunk_size]
        offset = body_start + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise DspError(f"{path}: missing fmt chunk")
    if payload is None:
        raise DspError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise DspError(f"{path}: unsupported encoding (format {audio_format}, want PCM=1)")
    if bits != 16:
        raise DspError(f"{path}: unsupported bit depth {bits}, want 16")
    if channels not in (1, 2):
        raise DspError(f"{path}: {channels} channels, want mono or stereo")
    frame_bytes = 2 * channels
    if len(payload) % frame_bytes != 0:
        raise DspError(f"{path}: truncated chunk b'data'")

    pcm = np.frombuffer(payload, dtype="<i2")
    if channels == 2:  # (l + r) / 65536 is exactly (l/32768 + r/32768) * 0.5
        samples = np.add(pcm[0::2], pcm[1::2], dtype=np.float64)
        samples *= 1 / 65536
    else:
        samples = pcm / 32768.0
    return WaveForm(samples=samples, sample_rate=sample_rate)


def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int, f_min: float = 0.0,
                   f_max: float | None = None) -> np.ndarray:
    """(n_mels, n_bins) triangular mel filters, equally spaced in mel, over n_fft's rfft bins."""
    if f_max is None:
        f_max = sample_rate / 2.0
    if not (0 <= f_min < f_max <= sample_rate / 2.0):
        raise DspError(
            f"need 0 <= f_min < f_max <= Nyquist, got f_min={f_min} f_max={f_max} sr={sample_rate}"
        )
    if n_mels < 1:
        raise DspError(f"n_mels must be >= 1, got {n_mels}")
    if n_fft < 2:
        raise DspError(f"n_fft must be >= 2, got {n_fft}")

    n_bins = n_fft // 2 + 1
    mel_points = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins, dtype=np.float64) * sample_rate / n_fft

    # band m rises over [hz[m], hz[m+1]] and falls over [hz[m+1], hz[m+2]], so it
    # has a nonzero weight exactly where a bin lies strictly inside (hz[m], hz[m+2])
    empty = (np.searchsorted(bin_freqs, hz_points[:-2], side="right")
             >= np.searchsorted(bin_freqs, hz_points[2:], side="left"))
    if empty.any():
        raise DspError(
            f"mel filter {int(np.argmax(empty))} has empty support; n_fft={n_fft} is too "
            f"small for {n_mels} bands over [{f_min}, {f_max}] Hz"
        )
    # max(0, min(rising, falling)) built in place: two (n_mels, n_bins) matrices
    left, center, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    weights = np.subtract(bin_freqs, left)
    weights /= center - left
    falling = np.subtract(right, bin_freqs)
    falling /= right - center
    np.minimum(weights, falling, out=weights)
    np.maximum(0.0, weights, out=weights)
    return weights


def frame_count(n_samples: int, win: int, hop: int) -> int:
    """Closed-form frame count: floor((N - win)/hop) + 1."""
    if n_samples < win:
        raise DspError(f"clip of {n_samples} samples is shorter than one window ({win})")
    return (n_samples - win) // hop + 1


def log_mel_features(
    wave: WaveForm,
    n_mels: int = 64,
    win_ms: float = 40.0,
    hop_ms: float = 20.0,
    f_min: float = 0.0,
    f_max: float | None = None,
    source: str = "",
) -> FeatureSequence:
    """Extract T x n_mels log-mel features from a waveform.

    Window and hop lengths are derived from the clip's native sample
    rate (rounded to the nearest sample). Output cells are
    log(mel_power + 1e-10); all-zero input therefore yields a uniform
    log(1e-10) matrix.
    """
    sr = wave.sample_rate
    win_len, hop_len = sr * win_ms / 1000.0, sr * hop_ms / 1000.0
    if not (math.isfinite(win_len) and math.isfinite(hop_len)):
        raise DspError(f"window/hop not finite at sr={sr}: win_ms={win_ms} hop_ms={hop_ms}")
    win, hop = int(round(win_len)), int(round(hop_len))
    if win < 2 or hop < 1:
        raise DspError(f"window/hop too short at sr={sr}: win={win} hop={hop}")
    n = len(wave.samples)
    t_frames = frame_count(n, win, hop)

    n_fft = 1 << (win - 1).bit_length()  # the least power of two >= win
    weights = mel_filterbank(sr, n_fft, n_mels, f_min, f_max)

    window = np.hanning(win)
    frames = np.lib.stride_tricks.sliding_window_view(wave.samples, win)[::hop]
    chunk = min(t_frames, max(1, _FRAME_BUFFER_VALUES // n_fft))
    padded = np.zeros((chunk, n_fft))  # columns from win on stay zero
    power = np.empty((chunk, n_fft // 2 + 1))
    mel = np.empty((chunk, n_mels))
    out = np.empty((t_frames, n_mels), dtype=np.float32)
    for start in range(0, t_frames, chunk):
        m = min(chunk, t_frames - start)
        np.multiply(frames[start : start + m], window, out=padded[:m, :win])
        spectrum = np.fft.rfft(padded[:m], axis=1).view(np.float64)
        np.square(spectrum, out=spectrum)
        np.add(spectrum[:, 0::2], spectrum[:, 1::2], out=power[:m])  # re*re + im*im
        del spectrum  # free it before the next chunk's spectrum is allocated
        rows = np.matmul(power[:m], weights.T, out=mel[:m])
        rows += LOG_FLOOR
        out[start : start + m] = np.log(rows, out=rows)
    return FeatureSequence(frames=out, source_file=source)
