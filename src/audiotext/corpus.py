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
import json
import os
import stat
import struct
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
    """Word -> vector table of fixed dimension."""

    dim: int
    entries: dict[str, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __getitem__(self, word: str) -> np.ndarray:
        return self.entries[word]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CaptionEmbeddingTable:
    """Frozen caption-level vectors keyed ``file_name#caption_index``."""

    dim: int
    entries: dict[str, np.ndarray]

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __getitem__(self, key: str) -> np.ndarray:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ManifestItem:
    file_name: str
    feature_path: str
    caption_keys: tuple[str, ...]


@dataclass(frozen=True)
class DatasetManifest:
    """One split's audio clips with resolvable feature paths and caption keys."""

    split: str  # development | validation | evaluation
    items: tuple[ManifestItem, ...]

    def caption_records(self, captions: list[CaptionRecord]) -> list[CaptionRecord]:
        """Filter/order caption records to this manifest's item order."""
        by_key = {c.key: c for c in captions}
        out = []
        for item in self.items:
            for key in item.caption_keys:
                out.append(by_key[key])
        return out

    def to_json(self) -> str:
        """Canonical serialization; byte-identical for identical inputs."""
        payload = {
            "split": self.split,
            "items": [
                {
                    "file_name": it.file_name,
                    "feature_path": it.feature_path,
                    "caption_keys": list(it.caption_keys),
                }
                for it in self.items
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def normalize_caption(raw: str) -> list[str]:
    """Lowercase, replace every char outside [a-z0-9'] with space, split.

    Idempotent; may return an empty list (caller decides whether that
    is an error).
    """
    lowered = raw.lower()
    cleaned = "".join(ch if ch in _TOKEN_CHARS else " " for ch in lowered)
    return cleaned.split()


def load_captions(csv_path: str | Path) -> list[CaptionRecord]:
    """Parse a five-captions-per-clip CSV into 5 records per data row.

    Raises CorpusError naming the offending row (1-based, header = row 1)
    for column-count mismatches, duplicate file names, empty captions,
    and captions that normalize to no tokens.
    """
    path = Path(csv_path)
    records: list[CaptionRecord] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
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


def write_captions(records: list[CaptionRecord], csv_path: str | Path) -> None:
    """Write records (5 per file_name, indices 1-5) back to the CSV layout."""
    by_file: dict[str, dict[int, CaptionRecord]] = {}
    for rec in records:
        by_file.setdefault(rec.file_name, {})[rec.caption_index] = rec
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for file_name in by_file:  # preserve first-seen order
            per = by_file[file_name]
            if sorted(per) != list(range(1, CAPTIONS_PER_AUDIO + 1)):
                raise CorpusError(
                    f"{file_name!r}: need caption indices 1..5, got {sorted(per)}"
                )
            writer.writerow([file_name] + [per[i].raw_text for i in range(1, 6)])


def write_fmat(path: str | Path, matrix: np.ndarray | FeatureSequence) -> None:
    """Write a T x F float32 matrix in the FMAT layout (bit-exact round trip)."""
    frames = matrix.frames if isinstance(matrix, FeatureSequence) else np.asarray(matrix)
    frames = frames.astype(np.float32, copy=False)
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise CorpusError(f"FMAT needs a T x F matrix with T,F >= 1, got shape {frames.shape}")
    if not np.isfinite(frames).all():
        raise CorpusError("refusing to write non-finite values to FMAT")
    rows, cols = frames.shape
    with open(path, "wb") as fh:
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

    Lines are parsed in chunks into one float32 matrix whose rows are
    the table's vectors.
    """
    path = Path(path)
    rows: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
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
    return EmbeddingTable(dim=dim, entries={word: matrix[i] for word, i in rows.items()})


def _add_word_rows(path: Path, chunk: list[tuple[int, str, str]], rows: dict[str, int],
                   matrix: np.ndarray, dim: int) -> None:
    """Parse ``(line_no, word, values text)`` lines into the next rows of ``matrix``.

    A chunk the fast parser rejects is re-checked line by line, so the
    first offending line raises, and values ``float`` reads but the fast
    parser does not (such as ``1_0``) still load.
    """
    _, words, texts = zip(*chunk)
    values = None
    if all(texts):  # a line without values is left to the per-line rules
        try:
            values = np.loadtxt(texts, dtype=np.float32, comments=None, ndmin=2)
        except ValueError:
            pass
    if (values is None or values.shape != (len(chunk), dim)
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
                checked.append([float(v) for v in parts])
            except ValueError:
                raise CorpusError(f"{path}: line {line_no}: non-numeric value") from None
        values = np.array(checked, dtype=np.float32)
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
    entries: dict[str, np.ndarray] = {}
    offset = 12
    for i in range(count):
        if offset + 2 > len(data):
            raise CorpusError(f"{path}: truncated at record {i}")
        (key_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + key_len + 4 * dim > len(data):
            raise CorpusError(f"{path}: truncated at record {i}")
        key = data[offset : offset + key_len].decode("utf-8")
        offset += key_len
        _check_caption_key(key, f"{path}: record {i}")
        if key in entries:
            raise CorpusError(f"{path}: record {i}: duplicate key {key!r}")
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).copy()
        offset += 4 * dim
        entries[key] = vec
    if offset != len(data):
        raise CorpusError(f"{path}: {len(data) - offset} trailing bytes")
    return CaptionEmbeddingTable(dim=dim, entries=entries)


def write_caption_embeddings(path: str | Path, table: CaptionEmbeddingTable) -> None:
    """Write an EVEC file (records in insertion order of the table)."""
    with open(path, "wb") as fh:
        fh.write(EVEC_MAGIC)
        fh.write(struct.pack("<II", len(table.entries), table.dim))
        for key, vec in table.entries.items():
            _check_caption_key(key, "write_caption_embeddings")
            raw = key.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CorpusError(f"key too long: {key!r}")
            if vec.shape != (table.dim,):
                raise CorpusError(f"{key!r}: vector length {vec.shape}, expected ({table.dim},)")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


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
    """Group captions by clip and resolve ``<file_name>.fmat`` feature paths.

    Items are ordered by file_name ascending (byte order) so two builds
    from the same inputs serialize identically. Missing feature files
    are reported all at once.
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

    items = []
    for name in sorted(by_file):
        recs = sorted(by_file[name], key=lambda r: r.caption_index)
        items.append(
            ManifestItem(
                file_name=name,
                feature_path=str(feature_dir / f"{name}.fmat"),
                caption_keys=tuple(r.key for r in recs),
            )
        )
    return DatasetManifest(split=split, items=tuple(items))
