from __future__ import annotations

import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dedent, engine_from_rules
from reachfuzz import demo, knowledge
from reachfuzz.errors import TaskError
from reachfuzz.knowledge import (
    BugInfo,
    Chunk,
    HashEmbedder,
    build_index,
    chunk_corpus,
    derive_program_usage,
    extract_bug_info,
    extract_definition,
    load_index,
    retrieve_top_k,
    save_index,
    summarize_function,
)


def brute_force_ranking(index, query_text: str, k: int):
    """Full-sort cosine oracle with pure-python accumulation."""
    embedder = HashEmbedder(index.dim)
    q = [float(x) for x in embedder.embed(query_text)]
    qnorm = math.sqrt(math.fsum(x * x for x in q))
    scored = []
    for i, chunk in enumerate(index.chunks):
        row = [float(x) for x in index.vectors[i]]
        rnorm = math.sqrt(math.fsum(x * x for x in row))
        if qnorm == 0.0 or rnorm == 0.0:
            score = -1.0
        else:
            score = math.fsum(a * b for a, b in zip(q, row)) / (qnorm * rnorm)
        scored.append((chunk.id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: min(k, len(scored))]


# --- chunking -------------------------------------------------------------------

def test_chunk_spans_example(tmp_path):
    (tmp_path / "file.txt").write_text("a" * 1000, encoding="utf-8")
    chunks = chunk_corpus([tmp_path], chunk_size_chars=400, overlap_chars=100)
    assert [c.byte_span for c in chunks] == [(0, 400), (300, 700), (600, 1000)]
    assert [c.id for c in chunks] == [0, 1, 2]


def test_chunk_empty_corpus(tmp_path):
    assert chunk_corpus([tmp_path]) == []


def test_chunk_skips_binary_and_empty(tmp_path):
    (tmp_path / "a.bin").write_bytes(b"\x00\x01\x02")
    (tmp_path / "b.txt").write_text("", encoding="utf-8")
    (tmp_path / "c.txt").write_text("hello", encoding="utf-8")
    chunks = chunk_corpus([tmp_path])
    assert [c.source_path for c in chunks] == ["c.txt"]


def test_chunk_validates_sizes(tmp_path):
    with pytest.raises(ValueError):
        chunk_corpus([tmp_path], chunk_size_chars=100, overlap_chars=100)


def test_chunk_traversal_is_lexicographic(tmp_path):
    for name in ("zz.txt", "aa.txt", "mm.txt"):
        (tmp_path / name).write_text(name, encoding="utf-8")
    chunks = chunk_corpus([tmp_path])
    assert [c.source_path for c in chunks] == ["aa.txt", "mm.txt", "zz.txt"]


def reconstruct(chunks: list[Chunk], overlap: int) -> str:
    out = chunks[0].text
    for chunk in chunks[1:]:
        out += chunk.text[overlap:]
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=400), min_size=1, max_size=4),
       st.integers(2, 50), st.integers(0, 30))
def test_chunk_reconstruction_property(tmp_path_factory, texts, size, overlap):
    if overlap >= size:
        overlap = size - 1
    root = tmp_path_factory.mktemp("corpus")
    names = []
    for i, text in enumerate(texts):
        name = f"f{i:02d}.txt"
        (root / name).write_text(text, encoding="utf-8")
        names.append((name, text))
    chunks = chunk_corpus([root], chunk_size_chars=size, overlap_chars=overlap)
    for name, text in names:
        file_chunks = [c for c in chunks if c.source_path == name]
        if "\x00" in text[:4096] or not text:
            assert file_chunks == []
            continue
        assert reconstruct(file_chunks, overlap) == text
        # spans index the utf-8 bytes of the file
        raw = text.encode("utf-8")
        for c in file_chunks:
            assert raw[c.byte_span[0]:c.byte_span[1]].decode("utf-8") == c.text


def test_chunk_lossy_decode_flagged(tmp_path):
    (tmp_path / "bad.txt").write_bytes(b"ok \xff\xfe more text")
    chunks = chunk_corpus([tmp_path])
    assert chunks and all(c.lossy for c in chunks)


# --- embedding and retrieval ------------------------------------------------------

def test_hash_embedder_deterministic():
    embedder = HashEmbedder()
    first = embedder.embed("the quick brown fox")
    second = HashEmbedder().embed("the quick brown fox")
    assert np.array_equal(first, second)
    assert first.shape == (384,)


def test_hash_embedder_unit_norm_property():
    rng = random.Random(3)
    embedder = HashEmbedder()
    words = ["alpha", "beta", "gamma", "delta", "row", "pixel", "header"]
    for _ in range(50):
        text = " ".join(rng.choices(words, k=rng.randint(1, 12)))
        norm = float(np.linalg.norm(embedder.embed(text)))
        assert 0.0 < norm < math.inf
        assert norm == pytest.approx(1.0, abs=1e-5)


def test_hash_embedder_no_tokens_zero_vector():
    assert float(np.linalg.norm(HashEmbedder().embed("!!! ..."))) == 0.0


def reference_embedding(text: str, dim: int = knowledge.EMBEDDING_DIM) -> np.ndarray:
    """The per-token loop that ``embed_many`` replaced, kept as its oracle."""
    vec = np.zeros(dim, dtype=np.float32)
    for token in re.findall(r"\w+", text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if h & 1 else -1.0
        vec[(h >> 1) % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def assert_embeds_like_reference(texts: list[str], dim: int = knowledge.EMBEDDING_DIM):
    embedder = HashEmbedder(dim)
    got = embedder.embed_many(texts)
    assert got.dtype == np.float32 and got.shape == (len(texts), dim)
    for i, text in enumerate(texts):
        assert got[i].tobytes() == reference_embedding(text, dim).tobytes(), repr(text)
        assert embedder.embed(text).tobytes() == got[i].tobytes(), repr(text)


def test_embed_many_matches_reference_on_demo_corpus(tmp_path):
    corpus = demo.build_workspace(tmp_path / "demo").parent / "corpus"
    chunks = chunk_corpus([corpus])
    assert chunks
    assert_embeds_like_reference([c.text for c in chunks])


EDGE_TEXTS = ["", "!!! ...", "   \n\t", "UPPER lower MiXeD", "x_1 __ 007 9lives",
              "İstanbul İİ", "ǅungla ß STRASSE", "ΌΣΟΣ σοφός", "ﬁne ﬀ ½ ²", "a" * 5000]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("aZq09_ İßΣσǅﬁ½.,;!-\n\t") | st.characters(),
                        max_size=60), max_size=12),
       st.sampled_from([1, 7, 64, knowledge.EMBEDDING_DIM]))
def test_embed_many_matches_reference_property(texts, dim):
    assert_embeds_like_reference(texts + EDGE_TEXTS, dim)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_embed_many_matches_reference_across_blocks(offset):
    rng = random.Random(offset)
    words = ["Alpha", "beta", "GAMMA", "δέλτα", "row_1", "pixel", "42", "İd", "--"]
    texts = [" ".join(rng.choices(words, k=rng.randint(0, 30)))
             for _ in range(knowledge.EMBED_BLOCK + offset)]
    assert_embeds_like_reference(texts)
    index = build_index(make_chunks(texts), HashEmbedder())
    assert not index.vectors.flags.writeable


def test_identical_rows_tie_exactly_across_score_blocks():
    rng = random.Random(11)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choices(words, k=rng.randint(1, 15)))
             for _ in range(3 * knowledge.SCORE_BLOCK + 5)]
    copies = [3, knowledge.SCORE_BLOCK - 1, knowledge.SCORE_BLOCK, knowledge.SCORE_BLOCK + 1,
              2 * knowledge.SCORE_BLOCK + 7, len(texts) - 1]
    for i in copies:
        texts[i] = "w1 w2 w2 w3 w5 w8 w13 w21"
    index = build_index(make_chunks(texts), HashEmbedder())
    scores = knowledge.cosine_scores(index, HashEmbedder().embed("w2 w3 w5 w7 w11"))
    assert len({scores[i].tobytes() for i in copies}) == 1
    ranked = [c.id for c, _ in retrieve_top_k(index, "w1 w2 w2 w3 w5 w8 w13 w21", k=6)]
    assert ranked == copies


def make_chunks(texts: list[str]) -> list[Chunk]:
    return [Chunk(i, f"f{i}.txt", (0, len(t.encode()))
                  , t) for i, t in enumerate(texts)]


def test_build_index_empty_preserves_dim():
    index = build_index([], HashEmbedder(dim=64))
    assert index.dim == 64
    assert index.vectors.shape == (0, 64)
    assert retrieve_top_k(index, "anything", k=10) == []


def test_index_vectors_immutable_after_build():
    index = build_index(make_chunks(["some text"]), HashEmbedder())
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 9.0


def test_bug_info_requires_function():
    with pytest.raises(ValueError, match="vulnerable function"):
        BugInfo("prog", [], "f.c", "   ", "Crash", "")


def test_build_index_rejects_non_finite():
    class BadEmbedder:
        dim = 4
        label = "bad"

        def embed_many(self, texts):
            return np.array([[np.nan, 0, 0, 0]] * len(texts), dtype=np.float32)

    with pytest.raises(ValueError, match="non-finite"):
        build_index(make_chunks(["x"]), BadEmbedder())


def test_retrieve_identical_text_scores_one():
    chunks = make_chunks(["red green blue", "width height pixels", "entry point main"])
    index = build_index(chunks, HashEmbedder())
    ranked = retrieve_top_k(index, "width height pixels", k=3)
    assert ranked[0][0].id == 1
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_retrieve_clamps_k():
    index = build_index(make_chunks(["a b", "c d", "e f", "g h"]), HashEmbedder())
    assert len(retrieve_top_k(index, "a", k=10)) == 4


def test_retrieve_zero_norm_chunk_ranked_last():
    chunks = make_chunks(["real words here", "..."])
    index = build_index(chunks, HashEmbedder())
    ranked = retrieve_top_k(index, "real words here", k=2)
    assert ranked[-1][0].id == 1
    assert ranked[-1][1] == -1.0


def test_retrieve_zero_norm_query_all_negative():
    index = build_index(make_chunks(["alpha", "beta"]), HashEmbedder())
    ranked = retrieve_top_k(index, "???", k=2)
    assert all(score == -1.0 for _, score in ranked)
    assert [c.id for c, _ in ranked] == [0, 1]  # id tie-break


def test_retrieve_matches_brute_force_smoke():
    rng = random.Random(5)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choices(words, k=rng.randint(1, 20))) for _ in range(200)]
    index = build_index(make_chunks(texts), HashEmbedder())
    query = " ".join(rng.choices(words, k=8))
    got = retrieve_top_k(index, query, k=10)
    expected = brute_force_ranking(index, query, k=10)
    assert [c.id for c, _ in got] == [cid for cid, _ in expected]
    for (_, score), (_, expected_score) in zip(got, expected):
        assert score == pytest.approx(expected_score, abs=1e-9)


def test_index_save_load_round_trip(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.txt").write_text("alpha beta " * 40, encoding="utf-8")
    (tmp_path / "src" / "b.txt").write_bytes(b"good text \xff\xfe tail " * 30)
    chunks = chunk_corpus([tmp_path / "src"], chunk_size_chars=64, overlap_chars=16)
    index = build_index(chunks, HashEmbedder())
    save_index(index, tmp_path / "index.rfix")
    raw = (tmp_path / "index.rfix").read_bytes()
    assert raw[:4] == b"RFIX"
    loaded = load_index(tmp_path / "index.rfix", tmp_path / "src")
    assert loaded.dim == index.dim
    assert np.array_equal(loaded.vectors, index.vectors)
    assert [(c.id, c.source_path, c.byte_span, c.text, c.lossy) for c in loaded.chunks] == \
        [(c.id, c.source_path, c.byte_span, c.text, c.lossy) for c in index.chunks]


# --- knowledge tasks ---------------------------------------------------------------

RDPPM_RULES = (
    "Extract the required bug information",
    dedent("""
        PROGRAM: cjpeg
        AFFECTED_VERSIONS:
        - 2.0.4
        VULNERABLE_FILE: rdppm.c
        VULNERABLE_FUNCTION: get_rgb_row
        BUG_TYPE: Heap Buffer Overflow
        CAUSE: Row reader writes past the row buffer for crafted PPM headers.
    """).strip(),
)


def test_extract_bug_info_fields(catalog):
    engine = engine_from_rules(catalog, RDPPM_RULES)
    bug = extract_bug_info("CVE-style report text", engine)
    assert bug.program == "cjpeg"
    assert bug.vulnerable_function == "get_rgb_row"
    assert bug.bug_type == "Heap Buffer Overflow"
    assert bug.vulnerable_file == "rdppm.c"
    assert bug.affected_versions == ["2.0.4"]


def test_extract_bug_info_blank_function_fails(catalog):
    engine = engine_from_rules(
        catalog,
        ("Extract the required bug information",
         "PROGRAM: cjpeg\nVULNERABLE_FUNCTION:\nBUG_TYPE: overflow"),
    )
    with pytest.raises(TaskError):
        extract_bug_info("report that names no function", engine)


def test_extract_bug_info_deterministic(catalog):
    engine = engine_from_rules(catalog, RDPPM_RULES)
    assert extract_bug_info("report", engine) == extract_bug_info("report", engine)


def test_extract_bug_info_requires_text(catalog):
    engine = engine_from_rules(catalog)
    with pytest.raises(ValueError):
        extract_bug_info("   ", engine)


CJPEG_MANUAL = dedent("""
    cjpeg compresses the named image file, or the standard input, and produces
    a JPEG/JFIF file. The input-file operand names a PPM, BMP, or Targa image.
    The -quality option selects the output quality from 0 to 100.
""")


def cjpeg_bug() -> BugInfo:
    return BugInfo("cjpeg", ["2.0.4"], "rdppm.c", "get_rgb_row",
                   "Heap Buffer Overflow", "row buffer overflow on PPM input")


def test_derive_usage_grounded(catalog, tmp_path):
    (tmp_path / "cjpeg.txt").write_text(CJPEG_MANUAL, encoding="utf-8")
    index = build_index(chunk_corpus([tmp_path]), HashEmbedder())
    engine = engine_from_rules(catalog, (
        "Summarize the usage of all command options",
        "OPTIONS:\n- input-file : image file to compress\n- -quality : output quality 0 to 100\n"
        "NOTES: the image file is the only required argument.",
    ))
    usage = derive_program_usage(cjpeg_bug(), index, engine)
    assert ("input-file", "image file to compress") in usage.options
    assert "-quality" in usage.flags()
    assert "ungrounded" not in usage.invocation_notes


def test_derive_usage_flags_ungrounded_options(catalog, tmp_path):
    (tmp_path / "cjpeg.txt").write_text(CJPEG_MANUAL, encoding="utf-8")
    index = build_index(chunk_corpus([tmp_path]), HashEmbedder())
    engine = engine_from_rules(catalog, (
        "Summarize the usage of all command options",
        "OPTIONS:\n- input-file : image file\n- --made-up : not in any chunk",
    ))
    usage = derive_program_usage(cjpeg_bug(), index, engine)
    assert "ungrounded options: --made-up" in usage.invocation_notes


def test_derive_usage_empty_index_flagged(catalog):
    index = build_index([], HashEmbedder())
    engine = engine_from_rules(catalog, (
        "Summarize the usage of all command options",
        "OPTIONS:\n- input-file : the file to process",
    ))
    usage = derive_program_usage(cjpeg_bug(), index, engine)
    assert "no retrieval context" in usage.invocation_notes


def test_derive_usage_objcopy_formats(catalog, tmp_path):
    (tmp_path / "objcopy.txt").write_text(dedent("""
        objcopy copies the contents of an object file to another. The option
        -I names the input format and the option -O names the output format,
        for example -I binary or -O elf64-x86-64. The input-file operand
        gives the object file to copy.
    """), encoding="utf-8")
    index = build_index(chunk_corpus([tmp_path]), HashEmbedder())
    engine = engine_from_rules(catalog, (
        "Summarize the usage of all command options",
        "OPTIONS:\n- -I : specifies the input format\n- -O : specifies the output format\n"
        "- input-file : object file to copy",
    ))
    bug = BugInfo("objcopy", [], "elf.c", "copy_sections", "Buffer Overflow", "")
    usage = derive_program_usage(bug, index, engine)
    flags = usage.flags()
    assert "-I" in flags and "-O" in flags
    assert "ungrounded" not in usage.invocation_notes


def test_derive_usage_duplicate_flags_kept_once(catalog):
    index = build_index([], HashEmbedder())
    engine = engine_from_rules(catalog, (
        "Summarize the usage of all command options",
        "OPTIONS:\n- -x : first\n- -x : second",
    ))
    usage = derive_program_usage(cjpeg_bug(), index, engine)
    assert usage.options.count(("-x", "first")) == 1
    assert len(usage.flags()) == 1


GET_RGB_ROW_SUMMARY = (
    "Summarize the function named get_rgb_row",
    dedent("""
        FUNCTIONALITY: Reads one row of RGB samples from the PPM input buffer
        into the decompression row buffer.
        PARAMETERS:
        - cinfo : compression state
        - sinfo : source image state
        KEY_OPERATIONS:
        - iterates over row pixels
        - rescales each color component
    """).strip(),
)


def test_summarize_function(catalog):
    engine = engine_from_rules(catalog, GET_RGB_ROW_SUMMARY)
    summary = summarize_function("get_rgb_row", "JSAMPROW get_rgb_row(...) { ... }", engine)
    assert "RGB" in summary.functionality
    assert summary.parameters[0][0] == "cinfo"
    assert len(summary.key_operations) == 2
    assert summary.function == "get_rgb_row"


def test_summarize_function_empty_definition(catalog):
    engine = engine_from_rules(catalog)
    with pytest.raises(ValueError):
        summarize_function("f", "  ", engine)


def test_summarize_function_repeat_identical(catalog):
    engine = engine_from_rules(catalog, GET_RGB_ROW_SUMMARY)
    one = summarize_function("get_rgb_row", "def get_rgb_row(): pass", engine)
    two = summarize_function("get_rgb_row", "def get_rgb_row(): pass", engine)
    assert one == two


def test_extract_definition_python():
    source = dedent("""
        import os

        def first():
            return 1

        def second(a, b):
            x = a + b
            return x

        def third():
            pass
    """)
    definition = extract_definition(source, "second")
    assert definition.startswith("def second(a, b):")
    assert "return x" in definition
    assert "third" not in definition


def test_extract_definition_fallback_window():
    source = "\n".join(f"line {i}" for i in range(10)) + "\nresult = helper(42)\n"
    assert "helper(42)" in extract_definition(source, "helper")
    with pytest.raises(TaskError):
        extract_definition(source, "missing_fn")
