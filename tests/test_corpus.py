import contextlib
import io
import os
import struct

import numpy as np
import pytest

from audiotext import cli as cli_module
from audiotext import corpus as corpus_module
from audiotext.corpus import (
    CaptionEmbeddingTable,
    CorpusError,
    FeatureDirectory,
    FeatureSequence,
    atomic_write,
    build_manifest,
    load_caption_embeddings,
    load_captions,
    load_word_embeddings,
    normalize_caption,
    read_fmat,
    write_caption_embeddings,
    write_fmat,
)
from audiotext.nnet.checkpoint import save_checkpoint
from audiotext.nnet.tensor import Tensor
from audiotext.optim import EpochLog, write_epoch_log
from helpers import embedding_table, write_caption_csv
from oracles import load_word_embeddings_reference

FIVE = ["a dog barks", "rain falls hard", "a man speaks", "birds chirp", "wind blows"]


# ---------------------------------------------------------------------------
# normalization


def test_normalize_strips_punctuation_and_case():
    assert normalize_caption("A man, laughing.") == ["a", "man", "laughing"]


def test_normalize_keeps_apostrophes_and_digits():
    assert normalize_caption("it's 3 o'clock") == ["it's", "3", "o'clock"]


def test_normalize_degenerate_and_idempotent():
    assert normalize_caption("!!!") == []
    for raw in ("A man, laughing.", "it's 3 o'clock", "  Tabs\tand\nnewlines "):
        once = normalize_caption(raw)
        assert normalize_caption(" ".join(once)) == once


# ---------------------------------------------------------------------------
# caption CSV


def test_load_captions_five_records_per_row(tmp_path):
    path = write_caption_csv(tmp_path / "caps.csv", [("x.wav", FIVE)])
    records = load_captions(path)
    assert len(records) == 5
    assert [r.key for r in records] == [f"x.wav#{i}" for i in range(1, 6)]
    assert records[0].tokens == ("a", "dog", "barks")
    assert records[0].raw_text == "a dog barks"


def test_load_captions_header_only_gives_empty_list(tmp_path):
    path = write_caption_csv(tmp_path / "caps.csv", [])
    assert load_captions(path) == []


def test_load_captions_bad_header(tmp_path):
    p = tmp_path / "caps.csv"
    p.write_text("file_name,caption_1\nx.wav,hello\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad header"):
        load_captions(p)


def test_load_captions_column_count_names_row(tmp_path):
    p = tmp_path / "caps.csv"
    p.write_text(
        "file_name,caption_1,caption_2,caption_3,caption_4,caption_5\n"
        "x.wav,a,b,c,d\n",
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match="row 2: column count"):
        load_captions(p)


def test_load_captions_duplicate_file_name(tmp_path):
    path = write_caption_csv(tmp_path / "caps.csv", [("x.wav", FIVE), ("x.wav", FIVE)])
    with pytest.raises(CorpusError, match="duplicate file_name"):
        load_captions(path)


def test_load_captions_empty_and_tokenless_cells(tmp_path):
    path = write_caption_csv(tmp_path / "a.csv", [("x.wav", ["a", "", "c", "d", "e"])])
    with pytest.raises(CorpusError, match="empty caption_2"):
        load_captions(path)
    path = write_caption_csv(tmp_path / "b.csv", [("x.wav", ["a", "b", "!!!", "d", "e"])])
    with pytest.raises(CorpusError, match="caption_3 normalizes to no tokens"):
        load_captions(path)


# ---------------------------------------------------------------------------
# FMAT


def test_fmat_round_trip_bit_exact(tmp_path):
    mat = np.array([[1.5, -2.25], [0.0, 3.125], [7.0, -0.5]], dtype=np.float32)
    path = tmp_path / "x.fmat"
    write_fmat(path, mat)
    seq = read_fmat(path, feature_kind="external")
    assert seq.frames.dtype == np.float32
    assert np.array_equal(seq.frames, mat)
    # writing the read-back sequence reproduces the same bytes
    path2 = tmp_path / "y.fmat"
    write_fmat(path2, seq)
    assert path.read_bytes() == path2.read_bytes()


def test_fmat_bad_magic(tmp_path):
    p = tmp_path / "bad.fmat"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(CorpusError, match="bad magic"):
        read_fmat(p)


def test_fmat_truncated_payload(tmp_path):
    p = tmp_path / "x.fmat"
    write_fmat(p, np.ones((4, 4), dtype=np.float32))
    data = p.read_bytes()
    p.write_bytes(data[: 16 + 8 * 4])  # 8 floats of the 16 declared
    with pytest.raises(CorpusError, match="truncated"):
        read_fmat(p)


def test_fmat_rejects_bad_matrices(tmp_path):
    with pytest.raises(CorpusError):
        write_fmat(tmp_path / "z.fmat", np.ones((0, 3), dtype=np.float32))
    with pytest.raises(CorpusError, match="non-finite"):
        write_fmat(tmp_path / "n.fmat", np.array([[np.nan]], dtype=np.float32))


def test_feature_sequence_validation():
    with pytest.raises(CorpusError):
        FeatureSequence(frames=np.ones((3,), dtype=np.float32), feature_kind="external",
                        source_file="x")
    with pytest.raises(CorpusError, match="feature_kind"):
        FeatureSequence(frames=np.ones((2, 2), dtype=np.float32), feature_kind="mfcc",
                        source_file="x")


# ---------------------------------------------------------------------------
# word embeddings


def test_load_word_embeddings(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
    table = load_word_embeddings(p)
    assert table.dim == 3
    assert len(table) == 2
    assert "a" in table and "zzz" not in table
    assert table["b"].tolist() == [0.0, 1.0, 0.0]


def test_load_word_embeddings_errors(tmp_path):
    cases = {
        "count.txt": ("2 3\na 1 0 0\nb 0 1 0\nc 0 0 1\n", "declares 2 words"),
        "dim.txt": ("1 3\na 1 0\n", "expected dim 3"),
        "dup.txt": ("2 2\na 1 0\na 0 1\n", "duplicate word"),
        "nan.txt": ("1 2\na 1 x\n", "non-numeric"),
        "header.txt": ("3\na 1\n", "header"),
    }
    for name, (content, match) in cases.items():
        p = tmp_path / name
        p.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match=match):
            load_word_embeddings(p)


def _word_lines(n, dim, seed):
    """n table lines in a mix of number spellings."""
    rng = np.random.default_rng(seed)
    spell = (repr, lambda v: f"{v:.6f}", lambda v: f"{v:.3e}", lambda v: f"{v:+.9g}")
    lines = []
    for i in range(n):
        values = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
        lines.append(f"w{i} " + " ".join(spell[(i + j) % 4](float(v))
                                         for j, v in enumerate(values)))
    return lines


def _loaded_or_error(loader, path):
    try:
        return loader(path)
    except CorpusError as e:
        return str(e)


def _assert_loads_like_reference(path):
    want = _loaded_or_error(load_word_embeddings_reference, path)
    got = _loaded_or_error(load_word_embeddings, path)
    if isinstance(want, str):
        assert got == want
        return None
    dim, entries = want
    assert not isinstance(got, str), got
    assert got.dim == dim
    assert list(got.index) == list(entries)
    assert got.matrix.dtype == np.float32 and got.matrix.shape == (len(entries), dim)
    for word, vec in entries.items():
        assert got[word].dtype == np.float32 and got[word].shape == (dim,)
        assert got[word].tobytes() == vec.tobytes(), word
    return got


def test_load_word_embeddings_matches_line_reference(tmp_path):
    lines = _word_lines(200, 7, seed=1)  # several parse chunks
    lines[3] = "odd\t" + "  ".join(["1E2", "+3", "-.5", "0", "-0", "1e-40", "5."]) + "\t "
    lines[100] = "under 1_0 2 3 4 5 6 7"  # float() reads 1_0; the chunk parser does not
    lines.insert(150, "")
    lines.insert(151, "   \t")
    p = tmp_path / "vecs.txt"
    p.write_text("200 7\n" + "\n".join(lines) + "\n\n", encoding="utf-8")
    table = _assert_loads_like_reference(p)
    assert len(table) == 200
    assert table["under"].tolist() == [10.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_word_embeddings_reads_a_pipe():
    # a pipe reports size 0, which must not bound the table
    text = "3 2\n" + "\n".join(_word_lines(3, 2, seed=3)) + "\n"
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, text.encode("utf-8"))
        os.close(write_fd)
        table = load_word_embeddings(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert list(table.index) == ["w0", "w1", "w2"]
    assert table["w2"].shape == (2,)


def test_load_word_embeddings_errors_match_line_reference(tmp_path):
    lines = _word_lines(150, 3, seed=2)

    def table(edits, count=150, header=None):
        body = list(lines)
        for line_no, text in edits:  # line_no counts the header as line 1
            body[line_no - 2] = text
        return (header or f"{count} 3") + "\n" + "\n".join(body) + "\n"

    cases = {
        "more_words": (table([], count=149), "declares 149 words"),
        "fewer_words": (table([], count=151), "declares 151 words"),
        "huge_count": (table([], count=10**15), "declares 1000000000000000 words"),
        "short_line": (table([(90, "x 1 2")]), "line 90: 2 values"),
        "long_line": (table([(12, "x 1 2 3 4")]), "line 12: 4 values"),
        "word_only": (table([(120, "x")]), "line 120: 0 values"),
        "dup_in_chunk": (table([(80, "w70 1 2 3")]), "line 80: duplicate word 'w70'"),
        "dup_across_chunks": (table([(140, "w3 1 2 3")]), "line 140: duplicate word 'w3'"),
        "non_numeric": (table([(100, "x 1 two 3")]), "line 100: non-numeric"),
        "header_fields": (table([], header="150"), "header must be"),
        "header_int": (table([], header="150 3.0"), "non-integer header"),
        "header_dim": (table([], header="150 0"), "invalid header"),
        # two faults: the earlier line wins, whichever rule it breaks
        "dup_before_value": (table([(70, "w1 1 2 3"), (75, "x 1 y 3")]), "line 70: duplicate"),
        "value_before_dup": (table([(70, "x 1 y 3"), (75, "w1 1 2 3")]), "line 70: non-numeric"),
        "count_before_dup": (table([(66, "x 1"), (67, "w1 1 2 3")]), "line 66: 1 values"),
        # non-finite values: every spelling, in either parse path, and the
        # earlier line still wins against any other fault
        "nan": (table([(30, "x 1 nan 3")]), "line 30: non-finite value"),
        "inf": (table([(95, "x inf 2 3")]), "line 95: non-finite value"),
        "neg_infinity": (table([(140, "x 1 2 -Infinity")]), "line 140: non-finite value"),
        "nan_beside_1_0": (table([(20, "x 1_0 NaN 3")]), "line 20: non-finite value"),
        "float32_overflow": (table([(50, "x 1 2 3.5e38")]), "line 50: non-finite value"),
        "nan_before_dup": (table([(70, "x nan 2 3"), (75, "w1 1 2 3")]), "line 70: non-finite"),
        "dup_before_nan": (table([(70, "w1 1 2 3"), (75, "x nan 2 3")]), "line 70: duplicate"),
        "value_before_nan": (table([(70, "x 1 y 3"), (71, "z nan 2 3")]), "line 70: non-numeric"),
    }
    for name, (content, match) in cases.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match=match):
            load_word_embeddings(p)
        assert _assert_loads_like_reference(p) is None


# ---------------------------------------------------------------------------
# caption embeddings (EVEC)


def _caption_table(entries, dim=None):
    return embedding_table(entries, dim, CaptionEmbeddingTable)


def test_evec_round_trip(tmp_path):
    table = _caption_table({
        "y.wav#5": np.array([-1, 0, 1, 2], dtype=np.float32),
        "x.wav#1": np.array([1, 2, 3, 4], dtype=np.float32),
    })
    p = tmp_path / "caps.evec"
    write_caption_embeddings(p, table)
    loaded = load_caption_embeddings(p)
    assert isinstance(loaded, CaptionEmbeddingTable)
    assert loaded.dim == 4
    assert list(loaded.index) == list(table.index)  # file order is index order
    assert loaded.matrix.dtype == np.float32 and loaded.matrix.shape == (2, 4)
    for key in table.index:
        assert np.array_equal(loaded[key], table[key])


def test_evec_empty_table_ok(tmp_path):
    p = tmp_path / "empty.evec"
    write_caption_embeddings(p, _caption_table({}, dim=4))
    loaded = load_caption_embeddings(p)
    assert len(loaded) == 0
    assert loaded.dim == 4  # an empty table keeps its width


def test_evec_malformed_keys_rejected(tmp_path):
    for key in ("x.wav", "x.wav#0", "x.wav#6", "#3"):
        table = _caption_table({key: np.zeros(2, dtype=np.float32)})
        with pytest.raises(CorpusError, match="malformed key"):
            write_caption_embeddings(tmp_path / "bad.evec", table)


def test_evec_truncation_and_trailing_bytes(tmp_path):
    table = _caption_table({"x.wav#1": np.ones(2, dtype=np.float32)})
    p = tmp_path / "t.evec"
    write_caption_embeddings(p, table)
    data = p.read_bytes()
    p.write_bytes(data[:-3])
    with pytest.raises(CorpusError, match="truncated"):
        load_caption_embeddings(p)
    p.write_bytes(data + b"\x00")
    with pytest.raises(CorpusError, match="trailing"):
        load_caption_embeddings(p)
    for count in (2, 2**32 - 1):  # an overstated count, the largest too, sizes no allocation
        p.write_bytes(data[:4] + struct.pack("<I", count) + data[8:])
        with pytest.raises(CorpusError, match="truncated at record 1"):
            load_caption_embeddings(p)


def test_evec_non_finite_values_rejected(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        table = _caption_table({
            "x.wav#1": np.ones(2, dtype=np.float32),
            "x.wav#2": np.array([1.0, bad], dtype=np.float32),
        })
        p = tmp_path / "bad.evec"
        write_caption_embeddings(p, table)
        with pytest.raises(CorpusError, match="record 1: non-finite value"):
            load_caption_embeddings(p)


def test_evec_non_utf8_key_names_file_and_record(tmp_path):
    table = _caption_table({"x.wav#1": np.ones(2, dtype=np.float32)})
    p = tmp_path / "bad.evec"
    write_caption_embeddings(p, table)
    data = bytearray(p.read_bytes())
    data[14] = 0xFF  # first byte of record 0's key
    p.write_bytes(bytes(data))
    with pytest.raises(CorpusError, match=r"bad\.evec: record 0: 'utf-8' codec can't decode"):
        load_caption_embeddings(p)


# ---------------------------------------------------------------------------
# manifests


def _features_on_disk(tmp_path, names, shape=(3, 2)):
    for name in names:
        write_fmat(tmp_path / f"{name}.fmat", np.ones(shape, dtype=np.float32))


def test_build_manifest_sorted_and_complete(tmp_path):
    rows = [("b.wav", FIVE), ("a.wav", FIVE)]
    records = load_captions(write_caption_csv(tmp_path / "c.csv", rows))
    _features_on_disk(tmp_path, ["a.wav", "b.wav"])
    manifest = build_manifest(records, tmp_path, "development")
    assert [it.file_name for it in manifest.items] == ["a.wav", "b.wav"]
    assert tuple(r.key for r in manifest.items[0].captions) == tuple(
        f"a.wav#{i}" for i in range(1, 6))
    assert sum(len(it.captions) for it in manifest.items) == 10
    again = build_manifest(records, tmp_path, "development")
    assert manifest == again


def test_build_manifest_missing_features_all_named(tmp_path):
    rows = [("a.wav", FIVE), ("b.wav", FIVE), ("c.wav", FIVE)]
    records = load_captions(write_caption_csv(tmp_path / "c.csv", rows))
    _features_on_disk(tmp_path, ["b.wav"])
    with pytest.raises(CorpusError) as err:
        build_manifest(records, tmp_path, "development")
    assert "a.wav" in str(err.value) and "c.wav" in str(err.value)


def test_build_manifest_rejects_unknown_split(tmp_path):
    with pytest.raises(CorpusError, match="unknown split"):
        build_manifest([], tmp_path, "test")


def test_manifest_caption_records_follow_item_order(tmp_path):
    rows = [("b.wav", FIVE), ("a.wav", FIVE)]
    records = load_captions(write_caption_csv(tmp_path / "c.csv", rows))
    _features_on_disk(tmp_path, ["a.wav", "b.wav"])
    # records in reverse: the manifest restores item, then caption_index order
    manifest = build_manifest(records[::-1], tmp_path, "validation")
    ordered = [record for item in manifest.items for record in item.captions]
    assert [r.key for r in ordered] == [f"{name}#{i}" for name in ("a.wav", "b.wav")
                                        for i in range(1, 6)]
    assert set(ordered) == set(records)


def test_feature_directory_lazy_lookup(tmp_path):
    mat = np.arange(6, dtype=np.float32).reshape(3, 2)
    write_fmat(tmp_path / "x.wav.fmat", mat)
    feats = FeatureDirectory(tmp_path, feature_kind="external")
    assert "x.wav" in feats
    assert "y.wav" not in feats
    assert np.array_equal(feats["x.wav"].frames, mat)
    assert feats["x.wav"] is feats["x.wav"]  # cached
    with pytest.raises(FileNotFoundError):
        feats["y.wav"]


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_write_replaces_target_only_on_success(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old contents")
    with pytest.raises(RuntimeError):
        with atomic_write(target, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.bin"]
    with atomic_write(target, "w", encoding="utf-8") as fh:
        fh.write("new")
    assert target.read_text(encoding="utf-8") == "new"
    assert os.listdir(tmp_path) == ["out.bin"]
    # permissions follow the umask, as a plain open() would give them
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert target.stat().st_mode == plain.stat().st_mode


def _fail_fmat(path, monkeypatch):
    monkeypatch.setattr(corpus_module, "FMAT_VERSION", "not an int")  # after the magic
    with pytest.raises(struct.error):
        write_fmat(path, np.ones((3, 2), dtype=np.float32))


def _fail_checkpoint(path, monkeypatch):
    params = {"a": Tensor(np.ones(2)), "b": Tensor(np.array(["x"], dtype=object))}
    with pytest.raises(ValueError):  # after the header and the first parameter
        save_checkpoint(path, {}, params, 0, 0.0)


def _fail_epoch_log(path, monkeypatch):
    class Broken:
        def to_csv_row(self):
            raise RuntimeError("interrupted")
    rows = [EpochLog(1, 0.5, 0.1, 0.2, 0.3, 0.2, 1e-3), Broken()]
    with pytest.raises(RuntimeError):  # after the header and the first row
        write_epoch_log(path, rows)


def _fail_report(path, monkeypatch):
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(UnicodeEncodeError):
        cli_module._emit("R1 \ud800", str(path))  # a lone surrogate has no UTF-8 form


def _fail_evec(path, monkeypatch):
    table = _caption_table({"x.wav#1": np.ones(2, dtype=np.float32),
                            "x.wav#6": np.ones(2, dtype=np.float32)})
    with pytest.raises(CorpusError, match="malformed key"):  # after the header and record 0
        write_caption_embeddings(path, table)


@pytest.mark.parametrize("fail", [_fail_fmat, _fail_checkpoint, _fail_epoch_log, _fail_report,
                                  _fail_evec])
def test_failed_write_keeps_existing_output(tmp_path, monkeypatch, fail):
    target = tmp_path / "output"
    target.write_bytes(b"previous run")
    fail(target, monkeypatch)
    assert target.read_bytes() == b"previous run"
    assert os.listdir(tmp_path) == ["output"]
