"""Audio frontend tests: WAV decoding, mel filterbank, log-mel features."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from audiotext import dsp
from audiotext.dsp import (
    LOG_FLOOR,
    DspError,
    WaveForm,
    frame_count,
    hz_to_mel,
    log_mel_features,
    mel_filterbank,
    mel_to_hz,
    read_wav,
)

from helpers import mel_band_centers, sine_wav, write_wav
from oracles import decode_pcm16_reference, log_mel_reference, mel_filterbank_reference


# ---------------------------------------------------------------- mel scale


def test_mel_scale_anchor_values():
    # 2595 * log10(2) at 700 Hz
    assert hz_to_mel(700.0) == pytest.approx(781.1728387480312, abs=1e-9)
    assert hz_to_mel(0.0) == 0.0
    assert mel_to_hz(0.0) == 0.0


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 10.0, 440.0, 1000.0, 4000.0, 22050.0])
    assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)
    mels = np.linspace(0.0, 3000.0, 13)
    assert np.allclose(hz_to_mel(mel_to_hz(mels)), mels, atol=1e-9)


def test_mel_scale_monotonic():
    freqs = np.linspace(0.0, 8000.0, 200)
    mels = hz_to_mel(freqs)
    assert (np.diff(mels) > 0).all()


# ---------------------------------------------------------------- waveform


def test_waveform_rejects_bad_sample_rate():
    with pytest.raises(DspError):
        WaveForm(samples=np.zeros(10), sample_rate=0)
    with pytest.raises(DspError):
        WaveForm(samples=np.zeros(10), sample_rate=-8000)


def test_waveform_rejects_non_finite():
    with pytest.raises(DspError):
        WaveForm(samples=np.array([0.0, np.nan]), sample_rate=16000)
    with pytest.raises(DspError):
        WaveForm(samples=np.array([np.inf]), sample_rate=16000)


def test_waveform_casts_to_float64():
    w = WaveForm(samples=np.zeros(4, dtype=np.float32), sample_rate=8000)
    assert w.samples.dtype == np.float64


# ---------------------------------------------------------------- read_wav


def test_read_wav_scaling(tmp_path):
    p = tmp_path / "one.wav"
    write_wav(p, np.array([16384, -16384, 0, 32767], dtype=np.int16), 16000)
    wave = read_wav(p)
    assert wave.sample_rate == 16000
    assert wave.samples.dtype == np.float64
    assert wave.samples[0] == 0.5
    assert wave.samples[1] == -0.5
    assert wave.samples[2] == 0.0
    assert wave.samples[3] == pytest.approx(32767 / 32768)


def test_read_wav_stereo_averages_to_mono(tmp_path):
    p = tmp_path / "two.wav"
    frames = np.array([[16384, -16384], [16384, 16384]], dtype=np.int16)
    write_wav(p, frames, 44100, channels=2)
    wave = read_wav(p)
    assert wave.samples.shape == (2,)
    assert wave.samples[0] == 0.0
    assert wave.samples[1] == 0.5


@pytest.mark.parametrize("channels", [1, 2])
def test_read_wav_matches_reference_decode(tmp_path, channels):
    extremes = np.array([32767, -32767, -32768, 0, 1, -1], dtype=np.int16)
    if channels == 2:  # every (left, right) pair of extremes
        extremes = np.array(list(itertools.product(extremes, repeat=2)), dtype=np.int16)
    noise = np.random.default_rng(21).integers(-32768, 32768, size=4000 * channels)
    silence = np.zeros(500 * channels)
    pcm = np.concatenate([extremes.ravel(), noise, silence]).astype("<i2")
    p = write_wav(tmp_path / "pcm.wav", pcm.reshape(-1, channels), 44100, channels=channels)
    samples = read_wav(p).samples
    assert samples.dtype == np.float64
    assert np.array_equal(samples, decode_pcm16_reference(pcm.tobytes(), channels))


def test_read_wav_stereo_peak_memory(tmp_path):
    # a 29.4 s stereo 44.1 kHz clip: reading it may hold the file's bytes and
    # the float64 mono samples plus half as much again, no more (a decode
    # through a float64 copy of both channels peaks at 1.75 times that)
    frames = int(29.4 * 44100)
    pcm = np.random.default_rng(24).integers(-32768, 32768, size=(frames, 2)).astype("<i2")
    path = write_wav(tmp_path / "long.wav", pcm, 44100, channels=2)
    bound = path.stat().st_size + 1.5 * 8 * frames
    tracemalloc.start()
    try:
        wave = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(wave.samples, decode_pcm16_reference(pcm.tobytes(), 2))
    assert peak < bound, (peak, bound)


def _wav_bytes(audio_format=1, channels=1, sample_rate=16000, bits=16, payload=b"\x00\x00"):
    block = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", audio_format, channels, sample_rate, sample_rate * block, block, bits
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_read_wav_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"OGGS" + b"\x00" * 40)
    with pytest.raises(DspError, match="not a RIFF/WAVE"):
        read_wav(p)


def test_read_wav_rejects_float_encoding(tmp_path):
    # IEEE float WAVs use format code 3
    p = tmp_path / "float.wav"
    p.write_bytes(_wav_bytes(audio_format=3, bits=32, payload=b"\x00" * 8))
    with pytest.raises(DspError, match="unsupported encoding"):
        read_wav(p)


def test_read_wav_rejects_wrong_bit_depth(tmp_path):
    p = tmp_path / "eight.wav"
    p.write_bytes(_wav_bytes(bits=8, payload=b"\x00"))
    with pytest.raises(DspError, match="bit depth"):
        read_wav(p)


def test_read_wav_rejects_too_many_channels(tmp_path):
    p = tmp_path / "quad.wav"
    p.write_bytes(_wav_bytes(channels=4, payload=b"\x00" * 8))
    with pytest.raises(DspError, match="channels"):
        read_wav(p)


def test_read_wav_rejects_truncated_chunk(tmp_path):
    p = tmp_path / "trunc.wav"
    good = _wav_bytes(payload=b"\x00\x00" * 4)
    p.write_bytes(good[:-3])
    with pytest.raises(DspError, match="truncated"):
        read_wav(p)


def test_read_wav_rejects_odd_data_payload(tmp_path):
    # 3 bytes cannot hold a whole number of 16-bit mono samples
    p = tmp_path / "odd.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 3) + b"\x00\x00\x00" + b"\x00"  # pad byte
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DspError, match="truncated"):
        read_wav(p)


def test_read_wav_rejects_missing_chunks(tmp_path):
    p = tmp_path / "nofmt.wav"
    body = b"WAVE" + b"data" + struct.pack("<I", 2) + b"\x00\x00"
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DspError, match="missing fmt"):
        read_wav(p)

    p2 = tmp_path / "nodata.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    p2.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DspError, match="missing data"):
        read_wav(p2)


def test_read_wav_skips_extra_chunks(tmp_path):
    # a LIST chunk between fmt and data must be ignored
    p = tmp_path / "list.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"LIST" + struct.pack("<I", 4) + b"INFO"
    body += b"data" + struct.pack("<I", 2) + struct.pack("<h", 16384)
    p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    wave = read_wav(p)
    assert wave.sample_rate == 8000
    assert wave.samples.tolist() == [0.5]


# ---------------------------------------------------------------- filterbank


def test_filterbank_shapes_and_support():
    weights = mel_filterbank(16000, 1024, 64)
    assert isinstance(weights, np.ndarray)
    assert weights.shape == (64, 513)
    assert (weights >= 0).all()
    # every band must respond to something
    assert ((weights > 0).sum(axis=1) >= 1).all()
    # and the bands rise with frequency
    assert (np.diff(weights.argmax(axis=1)) >= 0).all()


def test_filterbank_centers_equally_spaced_on_mel_axis():
    # each triangle rises up to and falls away from its center, the centers
    # equally spaced on the mel axis, and peaks within one bin of it
    sr, n_fft = 22050, 1024
    weights = mel_filterbank(sr, n_fft, 32)
    centers = mel_band_centers(sr, 32)
    bins = np.arange(n_fft // 2 + 1) * sr / n_fft
    for band, center in zip(weights, centers):
        assert (np.diff(band[bins <= center]) >= 0).all()
        assert (np.diff(band[bins >= center]) <= 0).all()
    assert (np.abs(bins[weights.argmax(axis=1)] - centers) < sr / n_fft).all()


def test_filterbank_rejects_bad_ranges():
    with pytest.raises(DspError):
        mel_filterbank(16000, 1024, 64, f_min=4000.0, f_max=2000.0)
    with pytest.raises(DspError):
        mel_filterbank(16000, 1024, 64, f_max=9000.0)  # beyond Nyquist
    with pytest.raises(DspError):
        mel_filterbank(16000, 1024, 0)
    with pytest.raises(DspError):
        mel_filterbank(16000, 1, 4)


def test_filterbank_rejects_empty_bands():
    # 64 triangles over 513 Hz of bandwidth with a 16-point FFT cannot
    # all straddle a bin
    with pytest.raises(DspError, match="empty support"):
        mel_filterbank(16000, 16, 64)


def test_filterbank_matches_band_by_band_loop():
    # seeded settings on both sides of the empty-band limit: the weights are
    # bitwise those of the per-band loop, and the error names its first
    # empty band
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(120):
        sr = int(rng.choice([200, 8000, 16000, 22050, 44100, 48000]))
        n_fft = int(rng.choice([2, 8, 64, 256, 1024, 2048]))
        n_mels = int(rng.integers(1, 130))
        f_min = float(rng.choice([0.0, rng.uniform(0.0, sr / 4)]))
        f_max = float(rng.choice([sr / 2, rng.uniform(f_min + 1.0, sr / 2)]))
        want = mel_filterbank_reference(sr, n_fft, n_mels, f_min, f_max)
        if isinstance(want, int):
            with pytest.raises(DspError) as err:
                mel_filterbank(sr, n_fft, n_mels, f_min, f_max)
            assert str(err.value) == (
                f"mel filter {want} has empty support; n_fft={n_fft} is too small "
                f"for {n_mels} bands over [{f_min}, {f_max}] Hz")
        else:
            assert mel_filterbank(sr, n_fft, n_mels, f_min, f_max).tobytes() == want.tobytes()
        outcomes.add(isinstance(want, int))
    assert outcomes == {True, False}


# ---------------------------------------------------------------- framing


def test_frame_count_examples():
    # 1 s at 16 kHz with the default 40/20 ms windows
    assert frame_count(16000, 640, 320) == 49
    assert frame_count(640, 640, 320) == 1
    assert frame_count(959, 640, 320) == 1
    assert frame_count(960, 640, 320) == 2


def test_frame_count_matches_stepping_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        win = int(rng.integers(2, 400))
        hop = int(rng.integers(1, win + 1))
        n = int(rng.integers(win, 5000))
        count = 0
        start = 0
        while start + win <= n:
            count += 1
            start += hop
        assert frame_count(n, win, hop) == count


def test_frame_count_rejects_short_clip():
    with pytest.raises(DspError, match="shorter than one window"):
        frame_count(100, 200, 80)


# ---------------------------------------------------------------- log-mel


def test_log_mel_shape_and_dtype():
    rng = np.random.default_rng(0)
    wave = WaveForm(samples=rng.uniform(-0.5, 0.5, 16000), sample_rate=16000)
    feats = log_mel_features(wave, source="clip.wav")
    assert feats.frames.shape == (49, 64)
    assert feats.frames.dtype == np.float32
    assert feats.source_file == "clip.wav"


def test_log_mel_window_derivation_at_44100():
    # win = round(44100 * 0.040) = 1764, hop = 882, 1 s -> 49 frames
    rng = np.random.default_rng(1)
    wave = WaveForm(samples=rng.uniform(-0.5, 0.5, 44100), sample_rate=44100)
    feats = log_mel_features(wave)
    assert feats.frames.shape == (49, 64)


def test_log_mel_silence_hits_floor():
    wave = WaveForm(samples=np.zeros(16000), sample_rate=16000)
    feats = log_mel_features(wave)
    floor = np.float32(np.log(LOG_FLOOR))
    assert (feats.frames == floor).all()


@pytest.mark.parametrize("sr", [16000, 44100])
def test_log_mel_sine_peaks_in_matching_band(sr):
    wave = WaveForm(
        samples=0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(sr) / sr), sample_rate=sr
    )
    feats = log_mel_features(wave)
    expected = int(np.argmin(np.abs(mel_band_centers(sr, 64) - 1000.0)))

    peaks = feats.frames.argmax(axis=1)
    assert (peaks == expected).all()


def test_log_mel_sine_round_trips_through_wav(tmp_path):
    p = tmp_path / "tone.wav"
    sine_wav(p, 1000.0, 16000)
    feats = log_mel_features(read_wav(p))
    expected = int(np.argmin(np.abs(mel_band_centers(16000, 64) - 1000.0)))
    assert (feats.frames.argmax(axis=1) == expected).all()


def test_log_mel_monotone_under_gain():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.2, 0.2, 12000)
    lo = log_mel_features(WaveForm(samples=x, sample_rate=16000))
    hi = log_mel_features(WaveForm(samples=3.0 * x, sample_rate=16000))
    assert (hi.frames >= lo.frames).all()
    assert (hi.frames > lo.frames).any()


def test_log_mel_shift_by_one_hop_drops_first_frame():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.5, 0.5, 16000)
    full = log_mel_features(WaveForm(samples=x, sample_rate=16000))
    shifted = log_mel_features(WaveForm(samples=x[320:], sample_rate=16000))
    t = shifted.frames.shape[0]
    assert np.array_equal(shifted.frames[: t], full.frames[1 : t + 1])


def test_log_mel_custom_band_count():
    rng = np.random.default_rng(5)
    wave = WaveForm(samples=rng.uniform(-0.5, 0.5, 8000), sample_rate=8000)
    feats = log_mel_features(wave, n_mels=24)
    assert feats.frames.shape[1] == 24


def test_log_mel_rejects_short_clip():
    wave = WaveForm(samples=np.zeros(100), sample_rate=16000)
    with pytest.raises(DspError, match="shorter than one window"):
        log_mel_features(wave)


def test_log_mel_rejects_degenerate_rates():
    wave = WaveForm(samples=np.zeros(100), sample_rate=20)
    # win = round(20 * 0.04) = 1 < 2
    with pytest.raises(DspError, match="window/hop too short"):
        log_mel_features(wave)


def test_log_mel_rejects_non_finite_window():
    wave = WaveForm(samples=np.zeros(16000), sample_rate=16000)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DspError, match="window/hop not finite"):
            log_mel_features(wave, win_ms=bad)
        with pytest.raises(DspError, match="window/hop not finite"):
            log_mel_features(wave, hop_ms=bad)
    with pytest.raises(DspError, match="window/hop not finite"):
        log_mel_features(wave, win_ms=1e308)  # finite, but not as a sample count


# ------------------------------------------- log-mel against the whole-clip oracle

# frames per chunk at the 44.1 kHz defaults (n_fft = 2048)
CHUNK_44K = dsp._FRAME_BUFFER_VALUES // 2048


def _noise(n_samples, seed):
    return np.random.default_rng(seed).integers(-32768, 32768, n_samples) / 32768.0


def _assert_log_mel_matches_reference(samples, sr, n_mels=64, win_ms=40.0, hop_ms=20.0,
                                      f_min=0.0, f_max=None):
    feats = log_mel_features(WaveForm(samples=samples, sample_rate=sr), n_mels=n_mels,
                             win_ms=win_ms, hop_ms=hop_ms, f_min=f_min, f_max=f_max)
    win = int(round(sr * win_ms / 1000.0))
    n_fft = 1 << (win - 1).bit_length()
    weights = mel_filterbank(sr, n_fft, n_mels, f_min, f_max)
    expected = log_mel_reference(samples, sr, weights, win_ms=win_ms, hop_ms=hop_ms)
    assert feats.frames.dtype == expected.dtype == np.float32
    assert feats.frames.shape == expected.shape
    assert np.array_equal(feats.frames, expected)
    return feats


@pytest.mark.parametrize("t_frames", [1, 2, CHUNK_44K - 1, CHUNK_44K, CHUNK_44K + 1,
                                      2 * CHUNK_44K + 1])
def test_log_mel_matches_reference_at_chunk_edges(t_frames):
    assert CHUNK_44K > 2
    win, hop = 1764, 882
    n = win + (t_frames - 1) * hop + hop - 1  # the longest clip with t_frames frames
    feats = _assert_log_mel_matches_reference(_noise(n, t_frames), 44100)
    assert feats.frames.shape == (t_frames, 64)


def test_log_mel_matches_reference_on_30s_stereo_clip(tmp_path):
    rng = np.random.default_rng(22)
    t = np.arange(30 * 44100) / 44100
    tone = 8000.0 * np.sin(2 * np.pi * 440.0 * t)
    pcm = np.stack([tone + rng.normal(0.0, 3000.0, t.size), -tone], axis=1)
    pcm = np.clip(np.round(pcm), -32768, 32767).astype("<i2")
    wave = read_wav(write_wav(tmp_path / "long.wav", pcm, 44100, channels=2))
    assert np.array_equal(wave.samples, decode_pcm16_reference(pcm.tobytes(), 2))
    feats = _assert_log_mel_matches_reference(wave.samples, 44100)
    assert feats.frames.shape == (1499, 64)


@pytest.mark.parametrize("sr", [8000, 16000, 22050, 44100, 48000])
def test_log_mel_matches_reference_across_sample_rates(sr):
    _assert_log_mel_matches_reference(_noise(int(1.5 * sr), sr), sr)


@pytest.mark.parametrize("params", [
    dict(n_mels=24),
    dict(n_mels=40, win_ms=25.0, hop_ms=10.0),
    dict(n_mels=80, win_ms=50.0, hop_ms=12.5, f_min=50.0),
    dict(n_mels=32, f_min=300.0, f_max=7000.0),
    dict(win_ms=1000.0, hop_ms=20.0),  # n_fft = 16384: a few frames per chunk
], ids=["mels", "short_window", "fmin", "band", "long_window"])
def test_log_mel_matches_reference_with_custom_parameters(params):
    _assert_log_mel_matches_reference(_noise(3 * 16000, 7), 16000, **params)


@pytest.mark.parametrize("sr, win_ms, t_frames", [(16000, 1000.0, 17), (16000, 1000.0, 33),
                                                 (44100, 1000.0, 9)])
def test_log_mel_matches_reference_with_one_row_last_chunk_at_long_window(sr, win_ms,
                                                                         t_frames):
    # a few frames per chunk (16 at 16 kHz, 4 at 44.1 kHz), and one in the last
    win, hop = int(round(sr * win_ms / 1000.0)), int(round(sr * 0.02))
    n_fft = 1 << (win - 1).bit_length()
    assert (t_frames - 1) % (dsp._FRAME_BUFFER_VALUES // n_fft) == 0
    feats = _assert_log_mel_matches_reference(_noise(win + (t_frames - 1) * hop, 31), sr,
                                              win_ms=win_ms)
    assert feats.frames.shape == (t_frames, 64)


@pytest.mark.parametrize("sr, win_ms, seconds", [(44100, 40.0, 30), (16000, 1000.0, 5),
                                                 (44100, 1000.0, 10)],
                         ids=["30s_44k", "long_window", "long_window_44k"])
def test_log_mel_peak_memory_is_bounded_by_its_buffers(sr, win_ms, seconds):
    # the whole-clip transform holds (T, win) windowed frames and a (T, n_bins)
    # complex spectrum at once, and a whole-clip mel product the (T, n_bins)
    # power matrix (118 MB for the 10 s clip at win_ms=1000, n_fft = 65536);
    # working in chunks must peak below the chunk buffers, one chunk's power
    # and mel rows, the float32 output and the filterbank with its one build
    # temporary (the falling slopes, alive with the weights)
    win, hop = int(round(sr * win_ms / 1000.0)), int(round(sr * 0.02))
    n_fft = 1 << (win - 1).bit_length()
    n_bins = n_fft // 2 + 1
    wave = WaveForm(samples=_noise(seconds * sr, 23), sample_rate=sr)
    t_frames = frame_count(len(wave.samples), win, hop)
    chunk = min(t_frames, max(1, dsp._FRAME_BUFFER_VALUES // n_fft))
    chunk_buffers = 2 * chunk * (n_fft + 2) * 8  # padded frames, their spectrum
    chunk_rows = chunk * (n_bins + 64) * 8  # power and mel rows
    output = t_frames * 64 * 4
    filterbank = 2 * 64 * n_bins * 8
    bound = chunk_buffers + chunk_rows + output + filterbank
    tracemalloc.start()
    try:
        feats = log_mel_features(wave, win_ms=win_ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.frames.shape == (t_frames, 64)
    assert peak < bound, (peak, bound)
