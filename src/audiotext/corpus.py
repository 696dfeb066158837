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
Word cache    sidecar ``.<name>.audiotext-cache`` beside a word-vector text:
              magic ``WVCC``, u32-LE version (=2), the text's 32-byte SHA-256,
              the text's identity when it was hashed (u64-LE st_dev, u64-LE
              st_ino, u64-LE size, i64-LE st_mtime_ns, i64-LE st_ctime_ns),
              u64-LE count, u64-LE dim, u64-LE byte-length of the words, the
              ``\n``-joined UTF-8 words, then count*dim binary32-LE values,
              row-major.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

CAPTIONS_PER_AUDIO = 5
SPLITS = ("development", "validation", "evaluation")
FEATURE_KINDS = ("log_mel_64", "external")
_CAPTION_INDICES = range(1, CAPTIONS_PER_AUDIO + 1)
_CSV_HEADER = ["file_name"] + [f"caption_{i}" for i in _CAPTION_INDICES]
# UTF-8 byte -> itself for the token bytes [a-z0-9'], else a space; every
# byte of a character outside ASCII is >= 0x80, so such a character separates
_TOKEN_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789'" else 32
                     for b in range(256))

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
EVEC_MAGIC = b"EVEC"
WORD_CACHE_MAGIC = b"WVCC"
WORD_CACHE_VERSION = 2
# magic, version, SHA-256 of the text, the text's identity (see _file_identity),
# count, dim, byte-length of the words
_WORD_CACHE_HEAD = struct.Struct("<4sI32sQQQqqQQQ")
_DIGEST_BLOCK = 1 << 20


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
    source_file: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise CorpusError(f"feature matrix must be T x F with T,F >= 1, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise CorpusError(f"non-finite value in features from {self.source_file!r}")
        object.__setattr__(self, "frames", frames)


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

    items: tuple[ManifestItem, ...]


def normalize_caption(raw: str) -> list[str]:
    """Lowercase, then the maximal runs of [a-z0-9']: every other char,
    as if replaced with a space, separates tokens. A char outside ASCII
    after lowercasing separates too ("\u0130" lowercases to "i" and a
    combining dot, so it gives "i"). One pass over the UTF-8 bytes; lone
    surrogates (as from ``surrogateescape``) encode to bytes >= 0x80.

    Idempotent; may return an empty list (caller decides whether that
    is an error).
    """
    utf8 = raw.lower().encode("utf-8", "surrogatepass")
    return utf8.translate(_TOKEN_BYTES).decode("ascii").split()


@contextmanager
def open_text(path: str | Path, error: type[Exception] = CorpusError, newline=None):
    """Open a UTF-8 text file for reading; a byte sequence that does not
    decode, or a CSV the csv module cannot parse (such as a field over its
    size limit), raises ``error`` naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error) as e:
            raise error(f"{path}: {e}") from e


def parse_json(text: str | bytes, path, error: type[Exception], what: str):
    """Parse structured text (bytes as UTF-8); bad UTF-8 or syntax, an
    integer too long to convert, or nesting too deep for the parser raises
    ``error`` naming the file: ``{path}: {what}: ...``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except RecursionError:
        raise error(f"{path}: {what}: nested too deeply") from None
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise error(f"{path}: {what}: {e}") from e


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
            captions = row[1:]
            tokens = [tuple(normalize_caption(raw)) for raw in captions]
            if () in tokens:  # the first caption with no tokens, which an empty one has
                idx = tokens.index(()) + 1
                if not row[idx]:
                    raise CorpusError(f"{path}: row {row_no}: empty caption_{idx}")
                raise CorpusError(f"{path}: row {row_no}: caption_{idx} normalizes to no tokens")
            records += map(CaptionRecord, repeat(file_name), _CAPTION_INDICES, captions, tokens)
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
    """Write a T x F float32 matrix in the FMAT layout (bit-exact round trip);
    an array is checked as a :class:`FeatureSequence` is."""
    if not isinstance(matrix, FeatureSequence):
        matrix = FeatureSequence(frames=matrix, source_file=str(path))
    with atomic_write(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<III", FMAT_VERSION, *matrix.frames.shape))
        fh.write(matrix.frames.astype("<f4", copy=False).tobytes(order="C"))


def read_fmat(path: str | Path, feature_kind: str = "external") -> FeatureSequence:
    """Read an FMAT file; errors on an unknown kind, bad magic, zero dims,
    truncation, or a log_mel_64 file whose width is not 64."""
    if feature_kind not in FEATURE_KINDS:
        raise CorpusError(f"unknown feature_kind {feature_kind!r}")
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
    return FeatureSequence(frames=frames.copy(), source_file=str(path))


_WORD_CHUNK = 64  # lines per parse; bounds the parser's extra memory


def load_word_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a word2vec-style text table; header line is ``count dim``.
    Every value must be finite in float32.

    Lines are parsed in chunks into the table's one float32 matrix. A
    regular file that parses gets a sidecar ``.<name>.audiotext-cache``
    keyed by the SHA-256 of its bytes; a later load of the same bytes reads
    the sidecar instead, giving the same index and a bitwise-equal matrix.
    No byte of the text is read while the file's identity is the one the
    sidecar records and that ctime is older than the sidecar's mtime (git's
    racy-clean rule: any edit moves the ctime); otherwise the text is
    hashed, and a digest match rewrites the sidecar with the identity. A
    sidecar that does not match, or cannot be read or written, is silently
    ignored, so deleting one is always safe. Pipes and other non-regular
    paths are parsed every time.
    """
    path = Path(path)
    try:
        st = os.stat(path)
    except OSError:
        st = None
    if st is None or not stat.S_ISREG(st.st_mode):
        return _parse_word_embeddings(path)  # which reports a path it cannot open
    cache = path.with_name(f".{path.name}.audiotext-cache")
    table = _read_word_cache(cache, identity=_file_identity(st))
    if table is not None:
        return table
    source = _digest_regular_file(path)
    if source is None:
        return _parse_word_embeddings(path)
    table = _read_word_cache(cache, digest=source[0])
    if table is None:
        table = _parse_word_embeddings(path)
    _write_word_cache(path, cache, source, table)
    return table


def _file_identity(st: os.stat_result) -> tuple[int, int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _digest_regular_file(path: Path) -> tuple[bytes, tuple[int, ...]] | None:
    """The SHA-256 of a file, read in blocks, and the file's identity when it
    was opened; None for a path that cannot be read (the parse then reports
    it)."""
    try:
        with open(path, "rb") as fh:
            identity = _file_identity(os.fstat(fh.fileno()))
            sha = hashlib.sha256()
            for block in iter(lambda: fh.read(_DIGEST_BLOCK), b""):
                sha.update(block)
    except OSError:
        return None
    return sha.digest(), identity


def _read_word_cache(cache: Path, digest: bytes | None = None,
                     identity: tuple[int, ...] | None = None) -> EmbeddingTable | None:
    """The table a sidecar holds for text of SHA-256 ``digest``, or, without
    one, for a text of ``identity`` that has not changed since the sidecar
    was written; None when it is missing, unreadable, another user's, of
    another format or text, or its sizes do not add up (each checked before
    anything is allocated)."""
    try:
        with open(cache, "rb") as fh:
            st = os.fstat(fh.fileno())
            head = fh.read(_WORD_CACHE_HEAD.size)
            if st.st_uid != os.getuid() or len(head) != _WORD_CACHE_HEAD.size:
                return None
            magic, version, key, *recorded, count, dim, words_size = _WORD_CACHE_HEAD.unpack(head)
            if digest is None:  # recorded[-1] is the text's ctime when it was hashed
                matches = tuple(recorded) == identity and recorded[-1] < st.st_mtime_ns
            else:
                matches = key == digest
            if ((magic, version) != (WORD_CACHE_MAGIC, WORD_CACHE_VERSION) or not matches
                    or dim < 1 or len(head) + words_size + 4 * count * dim != st.st_size):
                return None
            words = fh.read(words_size).decode("utf-8").split("\n") if words_size else []
            matrix = np.fromfile(fh, dtype="<f4", count=count * dim).reshape(count, dim)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError, as is a short read
        return None
    index = dict(zip(words, range(count)))
    if len(words) != count or len(index) != count:
        return None
    return EmbeddingTable(index=index, matrix=matrix.astype(np.float32, copy=False))


def _write_word_cache(path: Path, cache: Path, source: tuple[bytes, tuple],
                      table: EmbeddingTable) -> None:
    """Write ``table`` to its sidecar, unless the text changed since it was
    hashed; a sidecar that cannot be written is skipped."""
    digest, identity = source
    try:
        if _file_identity(os.stat(path)) != identity:
            return
        with atomic_write(cache, "wb") as fh:
            words = "\n".join(table.index).encode("utf-8")
            fh.write(_WORD_CACHE_HEAD.pack(WORD_CACHE_MAGIC, WORD_CACHE_VERSION, digest,
                                           *identity, len(table), table.dim, len(words)))
            fh.write(words)
            fh.write(table.matrix.astype("<f4", copy=False).tobytes())
    except OSError:
        pass


def _parse_word_embeddings(path: Path) -> EmbeddingTable:
    """Parse and check a word-vector text table; the only code that validates one."""
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
        # a row takes at least 2*dim+1 bytes, so an overstated count in a regular
        # file allocates no more; a pipe's matrix starts empty and grows with its rows
        st = os.fstat(fh.fileno())
        cap = st.st_size // (2 * dim + 1) if stat.S_ISREG(st.st_mode) else 0
        try:
            matrix = np.empty((min(count, cap), dim), dtype=np.float32)
        except ValueError:  # a dim no array can hold
            raise CorpusError(f"{path}: invalid header count={count} dim={dim}") from None
        chunk: list[tuple[int, str, str]] = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split(None, 1)
            if parts:  # blank lines are tolerated
                chunk.append((line_no, parts[0], parts[1] if len(parts) > 1 else ""))
            if len(chunk) == _WORD_CHUNK:
                _add_word_rows(path, chunk, rows, matrix, count)
                chunk = []
        if chunk:
            _add_word_rows(path, chunk, rows, matrix, count)
    if len(rows) != count:
        raise CorpusError(f"{path}: header declares {count} words, found {len(rows)}")
    return EmbeddingTable(index=rows, matrix=matrix)


def _add_word_rows(path: Path, chunk: list[tuple[int, str, str]], rows: dict[str, int],
                   matrix: np.ndarray, count: int) -> None:
    """Parse ``(line_no, word, values text)`` lines into the next rows of ``matrix``,
    grown in place (doubling, to at most ``count`` rows) when full.

    A chunk the fast parser rejects, or one holding a non-finite value,
    is re-checked line by line, so the first offending line raises, and
    values ``float`` reads but the fast parser does not (such as ``1_0``)
    still load.
    """
    _, words, texts = zip(*chunk)
    values, dim = None, matrix.shape[1]
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
    end = max(start, min(count, start + len(chunk)))
    if end > len(matrix):  # the matrix holds no views: it can be reallocated
        matrix.resize((min(count, 2 * end), dim), refcheck=False)
    matrix[start:end] = values[:end - start]


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


def build_manifest(
    captions: list[CaptionRecord], feature_dir: str | Path, split: str
) -> DatasetManifest:
    """Group captions by clip, checking each clip has ``<file_name>.fmat``.

    Items are ordered by file_name ascending (byte order) and each item's
    captions by caption_index, so two builds from the same inputs are
    equal. Missing feature files are reported all at once. A split without
    clips is an error, as no command can use one.
    """
    if split not in SPLITS:
        raise CorpusError(f"unknown split {split!r}")
    if not captions:
        raise CorpusError(f"no clips in the {split} split")
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
    return DatasetManifest(items=items)
