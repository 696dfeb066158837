"""Dataset ingestion: caption CSVs, embedding tables, feature matrices, manifests.

All loaders are pure functions of file contents and return immutable
structures, so they are safe to call concurrently on distinct paths.
Caption text is normalized with one deterministic rule set; see
:func:`normalize_caption`.

File formats
------------
Caption CSV   UTF-8, RFC-4180, header exactly
              ``file_name,caption_1,caption_2,caption_3,caption_4,caption_5``.
FMAT          magic ``FMAT``, u32-LE version (=1), u32-LE rows, u32-LE cols,
              then rows*cols IEEE-754 binary32 little-endian, row-major.
EVEC          magic ``EVEC``, u32-LE count, u32-LE dim, then per record:
              u16-LE key byte-length, UTF-8 key, dim binary32-LE values.
Word vectors  text; first line ``count dim``, then ``word v1 ... v_dim``
              per line, space-separated.
"""

from __future__ import annotations

import csv
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CAPTIONS_PER_AUDIO = 5
_CSV_HEADER = ["file_name"] + [f"caption_{i}" for i in range(1, 6)]
_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789'")

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
EVEC_MAGIC = b"EVEC"


class CorpusError(ValueError):
    """Malformed dataset input (CSV, FMAT, EVEC, or embedding text)."""


@dataclass(frozen=True)
class CaptionRecord:
    """One caption of one audio clip; ``caption_index`` runs 1-5."""

    file_name: str
    caption_index: int
    raw_text: str
    tokens: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{self.file_name}#{self.caption_index}"


@dataclass(frozen=True)
class FeatureSequence:
    """Time-major T x F matrix of audio frame features."""

    frames: np.ndarray  # float32, shape (T, F)
    feature_kind: str  # "log_mel_64" or "external"
    source_file: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise CorpusError(f"feature matrix must be T x F with T,F >= 1, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise CorpusError(f"non-finite value in features from {self.source_file!r}")
        object.__setattr__(self, "frames", frames)
        if self.feature_kind not in ("log_mel_64", "external"):
            raise CorpusError(f"unknown feature_kind {self.feature_kind!r}")


@dataclass(frozen=True)
class EmbeddingTable:
    """Key -> vector table: row ``index[key]`` of one float32 ``(N, D)`` matrix.

    The loaders number the rows in file order.
    """

    index: dict[str, int]
    matrix: np.ndarray  # float32, shape (len(index), dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self.index[key]]

    def __len__(self) -> int:
        return len(self.index)


class CaptionEmbeddingTable(EmbeddingTable):
    """Frozen caption-level vectors keyed ``file_name#caption_index``."""


@dataclass(frozen=True)
class ManifestItem:
    """One clip and its caption records in ``caption_index`` order."""

    file_name: str
    captions: tuple[CaptionRecord, ...]


@dataclass(frozen=True)
class DatasetManifest:
    """One split's audio clips, each with the captions that describe it."""

    split: str  # development | validation | evaluation
    items: tuple[ManifestItem, ...]


def normalize_caption(raw: str) -> list[str]:
    """Lowercase, replace every char outside [a-z0-9'] with space, split.

    Idempotent; may return an empty list (caller decides whether that
    is an error).
    """
    lowered = raw.lower()
    cleaned = "".join(ch if ch in _TOKEN_CHARS else " " for ch in lowered)
    return cleaned.split()


@contextmanager
def open_text(path: str | Path, error: type[Exception] = CorpusError, newline=None):
    """Open a UTF-8 text file for reading; a byte sequence that does not
    decode raises ``error`` naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise error(f"{path}: {e}") from e


def load_captions(csv_path: str | Path) -> list[CaptionRecord]:
    """Parse a five-captions-per-clip CSV into 5 records per data row.

    Raises CorpusError naming the offending row (1-based, header = row 1)
    for column-count mismatches, duplicate file names, empty captions,
    and captions that normalize to no tokens.
    """
    path = Path(csv_path)
    records: list[CaptionRecord] = []
    seen: set[str] = set()
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError(f"{path}: empty file, expected header row") from None
        if header != _CSV_HEADER:
            raise CorpusError(
                f"{path}: bad header {header!r}, expected {','.join(_CSV_HEADER)!r}"
            )
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(_CSV_HEADER):
                raise CorpusError(
                    f"{path}: row {row_no}: column count {len(row)}, expected {len(_CSV_HEADER)}"
                )
            file_name = row[0]
            if not file_name:
                raise CorpusError(f"{path}: row {row_no}: empty file_name")
            if file_name in seen:
                raise CorpusError(f"{path}: row {row_no}: duplicate file_name {file_name!r}")
            seen.add(file_name)
            for idx in range(1, CAPTIONS_PER_AUDIO + 1):
                raw = row[idx]
                if not raw:
                    raise CorpusError(f"{path}: row {row_no}: empty caption_{idx}")
                tokens = normalize_caption(raw)
                if not tokens:
                    raise CorpusError(
                        f"{path}: row {row_no}: caption_{idx} normalizes to no tokens"
                    )
                records.append(
                    CaptionRecord(
                        file_name=file_name,
                        caption_index=idx,
                        raw_text=raw,
                        tokens=tuple(tokens),
                    )
                )
    return records


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Write ``path`` through a temp file beside it, which replaces ``path``
    when the block completes and is removed when the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_fmat(path: str | Path, matrix: np.ndarray | FeatureSequence) -> None:
    """Write a T x F float32 matrix in the FMAT layout (bit-exact round trip)."""
    frames = matrix.frames if isinstance(matrix, FeatureSequence) else np.asarray(matrix)
    frames = frames.astype(np.float32, copy=False)
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise CorpusError(f"FMAT needs a T x F matrix with T,F >= 1, got shape {frames.shape}")
    if not np.isfinite(frames).all():
        raise CorpusError("refusing to write non-finite values to FMAT")
    rows, cols = frames.shape
    with atomic_write(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<III", FMAT_VERSION, rows, cols))
        fh.write(frames.astype("<f4", copy=False).tobytes(order="C"))


def read_fmat(path: str | Path, feature_kind: str = "external") -> FeatureSequence:
    """Read an FMAT file; errors on bad magic, zero dims, truncation, or a
    log_mel_64 file whose width is not 64."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 16:
        raise CorpusError(f"{path}: truncated header")
    if data[:4] != FMAT_MAGIC:
        raise CorpusError(f"{path}: bad magic {data[:4]!r}")
    version, rows, cols = struct.unpack_from("<III", data, 4)
    if version != FMAT_VERSION:
        raise CorpusError(f"{path}: unsupported FMAT version {version}")
    if rows == 0 or cols == 0:
        raise CorpusError(f"{path}: zero dimension ({rows} x {cols})")
    if feature_kind == "log_mel_64" and cols != 64:
        raise CorpusError(f"{path}: log_mel_64 features need 64 columns, got {cols}")
    expected = 16 + 4 * rows * cols
    if len(data) != expected:
        raise CorpusError(f"{path}: truncated payload, {len(data)} bytes, expected {expected}")
    frames = np.frombuffer(data, dtype="<f4", offset=16).reshape(rows, cols)
    return FeatureSequence(frames=frames.copy(), feature_kind=feature_kind, source_file=str(path))


_WORD_CHUNK = 64  # lines per parse; bounds the parser's extra memory


def load_word_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a word2vec-style text table; header line is ``count dim``.
    Every value must be finite in float32.

    Lines are parsed in chunks into the table's one float32 matrix.
    """
    path = Path(path)
    rows: dict[str, int] = {}
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise CorpusError(f"{path}: header must be 'count dim', got {header!r}")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise CorpusError(f"{path}: non-integer header {header!r}") from None
        if count < 0 or dim < 1:
            raise CorpusError(f"{path}: invalid header count={count} dim={dim}")
        # a row takes at least 2*dim+1 bytes, so an overstated count in a
        # regular file allocates no more (a pipe has no size to go by)
        st = os.fstat(fh.fileno())
        cap = st.st_size // (2 * dim + 1) if stat.S_ISREG(st.st_mode) else count
        matrix = np.empty((min(count, cap), dim), dtype=np.float32)
        chunk: list[tuple[int, str, str]] = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split(None, 1)
            if parts:  # blank lines are tolerated
                chunk.append((line_no, parts[0], parts[1] if len(parts) > 1 else ""))
            if len(chunk) == _WORD_CHUNK:
                _add_word_rows(path, chunk, rows, matrix, dim)
                chunk = []
        if chunk:
            _add_word_rows(path, chunk, rows, matrix, dim)
    if len(rows) != count:
        raise CorpusError(f"{path}: header declares {count} words, found {len(rows)}")
    return EmbeddingTable(index=rows, matrix=matrix)


def _add_word_rows(path: Path, chunk: list[tuple[int, str, str]], rows: dict[str, int],
                   matrix: np.ndarray, dim: int) -> None:
    """Parse ``(line_no, word, values text)`` lines into the next rows of ``matrix``.

    A chunk the fast parser rejects, or one holding a non-finite value,
    is re-checked line by line, so the first offending line raises, and
    values ``float`` reads but the fast parser does not (such as ``1_0``)
    still load.
    """
    _, words, texts = zip(*chunk)
    values = None
    if all(texts):  # a line without values is left to the per-line rules
        try:
            values = np.loadtxt(texts, dtype=np.float32, comments=None, ndmin=2)
        except ValueError:
            pass
    if (values is None or values.shape != (len(chunk), dim) or not np.isfinite(values).all()
            or len(set(words)) != len(words) or not rows.keys().isdisjoint(words)):
        checked = []
        for line_no, word, text in chunk:
            if word in rows or word in words[:len(checked)]:
                raise CorpusError(f"{path}: line {line_no}: duplicate word {word!r}")
            parts = text.split()
            if len(parts) != dim:
                raise CorpusError(
                    f"{path}: line {line_no}: {len(parts)} values, expected dim {dim}"
                )
            try:
                with np.errstate(over="ignore"):  # beyond float32 range: inf, rejected below
                    row = np.array([float(v) for v in parts], dtype=np.float32)
            except ValueError:
                raise CorpusError(f"{path}: line {line_no}: non-numeric value") from None
            if not np.isfinite(row).all():
                raise CorpusError(f"{path}: line {line_no}: non-finite value")
            checked.append(row)
        values = np.stack(checked)
    start = len(rows)
    rows.update((word, start + k) for k, word in enumerate(words))
    # rows past the declared count are checked but not kept: the load fails
    matrix[start:start + len(chunk)] = values[:max(0, len(matrix) - start)]


def _check_caption_key(key: str, where: str) -> None:
    if "#" not in key:
        raise CorpusError(f"{where}: malformed key {key!r} (no '#')")
    name, _, idx = key.rpartition("#")
    if not name:
        raise CorpusError(f"{where}: malformed key {key!r} (empty file name)")
    if not idx.isdigit() or not 1 <= int(idx) <= CAPTIONS_PER_AUDIO:
        raise CorpusError(f"{where}: malformed key {key!r} (index must be 1..5)")


def load_caption_embeddings(path: str | Path) -> CaptionEmbeddingTable:
    """Load frozen caption vectors from an EVEC file."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12:
        raise CorpusError(f"{path}: truncated header")
    if data[:4] != EVEC_MAGIC:
        raise CorpusError(f"{path}: bad magic {data[:4]!r}")
    count, dim = struct.unpack_from("<II", data, 4)
    if dim == 0:
        raise CorpusError(f"{path}: zero dimension")
    # a record takes at least 2 + 4*dim bytes, so an overstated count
    # allocates no more than the file can hold
    matrix = np.empty((min(count, (len(data) - 12) // (2 + 4 * dim)), dim), dtype=np.float32)
    index: dict[str, int] = {}
    offset = 12
    for i in range(count):
        if offset + 2 > len(data):
            raise CorpusError(f"{path}: truncated at record {i}")
        (key_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + key_len + 4 * dim > len(data):
            raise CorpusError(f"{path}: truncated at record {i}")
        try:
            key = data[offset : offset + key_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorpusError(f"{path}: record {i}: {e}") from e
        offset += key_len
        _check_caption_key(key, f"{path}: record {i}")
        if key in index:
            raise CorpusError(f"{path}: record {i}: duplicate key {key!r}")
        matrix[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        if not np.isfinite(matrix[i]).all():
            raise CorpusError(f"{path}: record {i}: non-finite value")
        offset += 4 * dim
        index[key] = i
    if offset != len(data):
        raise CorpusError(f"{path}: {len(data) - offset} trailing bytes")
    return CaptionEmbeddingTable(index=index, matrix=matrix)


def write_caption_embeddings(path: str | Path, table: CaptionEmbeddingTable) -> None:
    """Write an EVEC file (records in the order of the table's index)."""
    with atomic_write(path, "wb") as fh:
        fh.write(EVEC_MAGIC)
        fh.write(struct.pack("<II", len(table), table.dim))
        for key, row in table.index.items():
            _check_caption_key(key, "write_caption_embeddings")
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CorpusError(f"key too long: {key!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(table.matrix[row].astype("<f4").tobytes())


class FeatureDirectory:
    """Lazy ``file_name -> FeatureSequence`` view of an FMAT directory.

    Files are read on first access and cached; the mapping is keyed by
    the clip's file_name, resolving ``<file_name>.fmat`` underneath.
    """

    def __init__(self, root: str | Path, feature_kind: str = "log_mel_64"):
        self.root = Path(root)
        self.feature_kind = feature_kind
        self._cache: dict[str, FeatureSequence] = {}

    def __getitem__(self, file_name: str) -> FeatureSequence:
        cached = self._cache.get(file_name)
        if cached is None:
            cached = read_fmat(self.root / f"{file_name}.fmat", feature_kind=self.feature_kind)
            self._cache[file_name] = cached
        return cached

    def __contains__(self, file_name: str) -> bool:
        return file_name in self._cache or (self.root / f"{file_name}.fmat").is_file()


def build_manifest(
    captions: list[CaptionRecord], feature_dir: str | Path, split: str
) -> DatasetManifest:
    """Group captions by clip, checking each clip has ``<file_name>.fmat``.

    Items are ordered by file_name ascending (byte order) and each item's
    captions by caption_index, so two builds from the same inputs are
    equal. Missing feature files are reported all at once.
    """
    if split not in ("development", "validation", "evaluation"):
        raise CorpusError(f"unknown split {split!r}")
    feature_dir = Path(feature_dir)
    by_file: dict[str, list[CaptionRecord]] = {}
    for rec in captions:
        by_file.setdefault(rec.file_name, []).append(rec)

    missing = [name for name in sorted(by_file) if not (feature_dir / f"{name}.fmat").is_file()]
    if missing:
        raise CorpusError(f"missing feature files under {feature_dir}: {', '.join(missing)}")

    items = tuple(
        ManifestItem(name, tuple(sorted(by_file[name], key=lambda r: r.caption_index)))
        for name in sorted(by_file))
    return DatasetManifest(split=split, items=items)
