"""The three knowledge artifacts the pipeline runs on.

Bug facts come from a structured extraction over the bug report, program
usage comes from a retrieval-grounded summarization over the code and docs
corpus, and function summaries are produced on demand from extracted
definitions.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import TaskError
from .query_engine import Engine

log = logging.getLogger(__name__)

DEFAULT_CHUNK_SIZE = 1200
DEFAULT_CHUNK_OVERLAP = 200
DEFAULT_TOP_K = 10
EMBEDDING_DIM = 384
EMBED_BLOCK = 256  # texts per bincount; bounds the token codes held at once
SCORE_BLOCK = 256  # index rows per float64 block in cosine_scores
_TOKEN = re.compile(r"\w+")

INDEX_MAGIC = b"RFIX"
INDEX_VERSION = 1


@dataclass
class BugInfo:
    program: str
    affected_versions: list[str]
    vulnerable_file: str
    vulnerable_function: str
    bug_type: str
    cause_summary: str

    def __post_init__(self):
        if not self.vulnerable_function.strip():
            raise ValueError("bug info must name the vulnerable function")

    def query_text(self) -> str:
        """Deterministic retrieval query composed from the extracted facts."""
        return " ".join(
            p for p in (self.program, self.bug_type, self.vulnerable_file,
                        self.vulnerable_function, self.cause_summary) if p
        )


@dataclass(frozen=True)
class Chunk:
    id: int
    source_path: str
    byte_span: tuple[int, int]
    text: str
    lossy: bool = False


@dataclass
class ProgramUsage:
    program: str
    options: list[tuple[str, str]]
    invocation_notes: str

    def flags(self) -> list[str]:
        return [flag for flag, _ in self.options]

    def render(self) -> str:
        lines = [f"{flag} : {desc}" for flag, desc in self.options]
        if self.invocation_notes:
            lines.append(self.invocation_notes)
        return "\n".join(lines)


@dataclass
class FunctionSummary:
    function: str
    functionality: str
    parameters: list[tuple[str, str]]
    key_operations: list[str]

    def render(self) -> str:
        lines = [f"Function {self.function}:", self.functionality]
        if self.parameters:
            lines.append("Parameters:")
            lines += [f"- {name} : {desc}" for name, desc in self.parameters]
        if self.key_operations:
            lines.append("Key operations:")
            lines += [f"- {op}" for op in self.key_operations]
        return "\n".join(lines)


def extract_bug_info(report_text: str, engine: Engine, stage: str = "sa") -> BugInfo:
    """Pull the structured bug facts out of a report.

    A report that names no vulnerable function fails loudly (the answer's
    required field stays empty through every repair), because guessing the
    target location would poison the whole pipeline.
    """
    if not report_text.strip():
        raise ValueError("report_text must be non-empty")
    answer = engine.run("bug_info", {"bug_report": report_text}, stage=stage)
    return BugInfo(
        program=answer.text("program"),
        affected_versions=answer.lines("affected_versions"),
        vulnerable_file=answer.values.get("vulnerable_file", "") or "",
        vulnerable_function=answer.text("vulnerable_function"),
        bug_type=answer.text("bug_type"),
        cause_summary=answer.values.get("cause", "") or "",
    )


def _looks_binary(data: bytes) -> bool:
    return b"\x00" in data[:4096]


def chunk_file(path: Path, rel_path: str, chunk_size: int, overlap: int,
               next_id: int) -> list[Chunk]:
    raw = path.read_bytes()
    if not raw or _looks_binary(raw):
        return []
    try:
        text = raw.decode("utf-8")
        lossy = False
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="replace")
        lossy = True
        log.warning("lossy decode of %s", rel_path)
    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    start = 0
    byte_start = 0
    while True:
        piece = text[start:start + chunk_size]
        byte_end = byte_start + len(piece.encode("utf-8"))
        chunks.append(Chunk(
            id=next_id + len(chunks),
            source_path=rel_path,
            byte_span=(byte_start, byte_end),
            text=piece,
            lossy=lossy,
        ))
        if start + chunk_size >= len(text):
            break
        byte_start += len(text[start:start + stride].encode("utf-8"))
        start += stride
    return chunks


def chunk_corpus(roots: list[str | Path], chunk_size_chars: int = DEFAULT_CHUNK_SIZE,
                 overlap_chars: int = DEFAULT_CHUNK_OVERLAP) -> list[Chunk]:
    """Split every readable text file under the roots into overlapping chunks.

    Traversal order is lexicographic over relative paths, so chunk ids are
    stable across runs. Consecutive chunks of one file overlap by exactly
    ``overlap_chars`` except the final, possibly shorter, chunk. Binary and
    unreadable files are skipped; empty files produce no chunks.
    """
    if not chunk_size_chars > overlap_chars >= 0:
        raise ValueError("require chunk_size_chars > overlap_chars >= 0")
    chunks: list[Chunk] = []
    for root in roots:
        root = Path(root)
        if root.is_file():
            files = [(root, root.name)]
        else:
            files = sorted(
                ((p, p.relative_to(root).as_posix()) for p in root.rglob("*") if p.is_file()),
                key=lambda pair: pair[1],
            )
        for path, rel in files:
            try:
                chunks += chunk_file(path, rel, chunk_size_chars, overlap_chars, len(chunks))
            except OSError as exc:
                log.warning("skipping unreadable file %s: %s", rel, exc)
    return chunks


class _TokenCodes(dict):
    """token -> ``bucket + dim * sign bit``, hashing each token on first sight."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        code = self[token] = (h >> 1) % self.dim + self.dim * (h & 1)
        return code


class HashEmbedder:
    """Deterministic token-hash bag-of-words embedding.

    Stands in for a sentence-transformer backend in tests and offline runs;
    identical text always maps to the identical unit vector. Each lowercased
    ``\\w+`` token is hashed with blake2b-8: the low bit picks the sign and
    the rest the bucket.
    """

    label = "hash-bow"

    def __init__(self, dim: int = EMBEDDING_DIM):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """Unit rows, shape ``(len(texts), dim)`` float32; empty texts give zero rows.

        Each distinct token is hashed once per call, and the token counts of
        a block of texts come from one ``np.bincount``. The counts are
        integers, and a row's float32 sum of squares is exact while it stays
        below 2**24 (any text of fewer than 4096 tokens), so such a row is
        bit-identical to adding up its tokens one by one.
        """
        dim = self.dim
        codes = _TokenCodes(dim)
        vectors = np.empty((len(texts), dim), dtype=np.float32)
        for lo in range(0, len(texts), EMBED_BLOCK):
            block = texts[lo:lo + EMBED_BLOCK]
            flat: list[int] = []
            lengths = []
            for text in block:
                tokens = _TOKEN.findall(text.lower())
                flat += map(codes.__getitem__, tokens)
                lengths.append(len(tokens))
            # shift each text's codes into its own run of 2 * dim counters
            flat_codes = np.array(flat, dtype=np.int64)
            flat_codes += np.repeat(np.arange(0, 2 * dim * len(block), 2 * dim), lengths)
            counts = np.bincount(flat_codes, minlength=2 * dim * len(block))
            counts = counts.reshape(len(block), 2, dim)
            rows = vectors[lo:lo + len(block)]
            np.subtract(counts[:, 1], counts[:, 0], out=rows, casting="unsafe")
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
            np.divide(rows, norms, out=rows, where=norms > 0)
        return vectors


@dataclass
class EmbeddingIndex:
    dim: int
    vectors: np.ndarray  # shape (n, dim), float32, immutable after build
    chunks: list[Chunk]
    backend_label: str

    def __len__(self) -> int:
        return len(self.chunks)


def build_index(chunks: list[Chunk], embedder) -> EmbeddingIndex:
    dim = embedder.dim
    vectors = embedder.embed_many([c.text for c in chunks])
    if vectors.shape != (len(chunks), dim):
        raise ValueError(f"embedder produced shape {vectors.shape}, expected ({len(chunks)}, {dim})")
    if not np.all(np.isfinite(vectors)):
        raise ValueError("embedder produced non-finite values")
    vectors.setflags(write=False)
    return EmbeddingIndex(dim=dim, vectors=vectors, chunks=list(chunks),
                          backend_label=getattr(embedder, "label", "unknown"))


def cosine_scores(index: EmbeddingIndex, query_vec: np.ndarray) -> np.ndarray:
    """Cosine similarity per chunk, float64; zero-norm vectors score -1 and rank last.

    Rows are taken in blocks so that no float64 copy of the whole matrix is
    held. Each dot product runs over its own row alone in ``einsum``, not in
    a BLAS kernel whose rounding may depend on a row's position, so
    identical rows get bit-identical scores and tie.
    """
    q = query_vec.astype(np.float64)
    qnorm = float(np.linalg.norm(q))
    scores = np.full(len(index), -1.0)
    if qnorm == 0.0:
        return scores
    for lo in range(0, len(index), SCORE_BLOCK):
        rows = index.vectors[lo:lo + SCORE_BLOCK].astype(np.float64)
        dots = np.einsum("ij,j->i", rows, q)
        rnorms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        np.divide(dots, qnorm * rnorms, out=scores[lo:lo + SCORE_BLOCK], where=rnorms > 0)
    return scores


def retrieve_top_k(index: EmbeddingIndex, query_text: str, k: int = DEFAULT_TOP_K,
                   embedder=None) -> list[tuple[Chunk, float]]:
    """Rank chunks by cosine similarity to the query, ties by ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        return []
    embedder = embedder or HashEmbedder(index.dim)
    scores = cosine_scores(index, embedder.embed(query_text))
    ids = np.array([c.id for c in index.chunks])
    order = np.lexsort((ids, -scores))[:k]
    return [(index.chunks[i], float(scores[i])) for i in order]


def save_index(index: EmbeddingIndex, path: str | Path):
    """Persist as: RFIX header, little-endian float32 matrix, chunk manifest."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<III", INDEX_VERSION, index.dim, len(index)))
        fh.write(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
        manifest = "".join(
            f"{c.id}\t{c.source_path}\t{c.byte_span[0]}\t{c.byte_span[1]}\t{int(c.lossy)}\n"
            for c in index.chunks
        )
        fh.write(manifest.encode("utf-8"))


def load_index(path: str | Path, corpus_root: str | Path,
               backend_label: str = "hash-bow") -> EmbeddingIndex:
    """Load a persisted index, re-reading chunk texts from the corpus files."""
    path = Path(path)
    corpus_root = Path(corpus_root)
    data = path.read_bytes()
    if data[:4] != INDEX_MAGIC:
        raise ValueError(f"{path}: bad index magic")
    version, dim, count = struct.unpack("<III", data[4:16])
    if version != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {version}")
    matrix_end = 16 + count * dim * 4
    vectors = np.frombuffer(data[16:matrix_end], dtype="<f4").reshape(count, dim).copy()
    chunks: list[Chunk] = []
    file_cache: dict[str, bytes] = {}
    for line in data[matrix_end:].decode("utf-8").splitlines():
        cid, rel, start, end, lossy = line.split("\t")
        if rel not in file_cache:
            raw = (corpus_root / rel).read_bytes()
            # Re-encoding a lossy decode reproduces the exact chunking bytes;
            # for valid UTF-8 it is the identity.
            file_cache[rel] = raw.decode("utf-8", errors="replace").encode("utf-8")
        start, end = int(start), int(end)
        text = file_cache[rel][start:end].decode("utf-8")
        chunks.append(Chunk(int(cid), rel, (start, end), text, lossy=bool(int(lossy))))
    vectors.setflags(write=False)
    return EmbeddingIndex(dim=dim, vectors=vectors, chunks=chunks, backend_label=backend_label)


def render_chunks(ranked: list[tuple[Chunk, float]]) -> str:
    parts = []
    for chunk, _score in ranked:
        parts.append(f"[chunk {chunk.id} from {chunk.source_path}]")
        parts.append(chunk.text)
    return "\n".join(parts)


def derive_program_usage(bug_info: BugInfo, index: EmbeddingIndex, engine: Engine,
                         k: int = DEFAULT_TOP_K, embedder=None,
                         stage: str = "rag") -> ProgramUsage:
    """Summarize command options grounded in the retrieved corpus chunks.

    Options whose flag text does not occur verbatim in any attached chunk are
    flagged as ungrounded in the invocation notes; an empty index degrades to
    a usage derived from the bug facts alone, flagged as such.
    """
    ranked = retrieve_top_k(index, bug_info.query_text(), k=k, embedder=embedder) if len(index) else []
    chunk_text = render_chunks(ranked) if ranked else "(no retrieved context)"
    answer = engine.run(
        "program_usage",
        {"bug_summary": bug_info.query_text(), "retrieved_chunks": chunk_text},
        stage=stage,
    )
    options: list[tuple[str, str]] = []
    seen: set[str] = set()
    for line in answer.lines("options"):
        flag, _, desc = line.partition(" : ")
        flag = flag.strip()
        if not flag or flag in seen:
            continue
        seen.add(flag)
        options.append((flag, desc.strip()))
    notes = answer.values.get("notes", "") or ""
    flagged: list[str] = []
    if not ranked:
        flagged.append("no retrieval context")
    else:
        corpus_text = "\n".join(chunk.text for chunk, _ in ranked)
        ungrounded = [flag for flag, _ in options if flag not in corpus_text]
        if ungrounded:
            flagged.append("ungrounded options: " + ", ".join(ungrounded))
    if flagged:
        notes = (notes + "\n" if notes else "") + "; ".join(flagged)
    return ProgramUsage(program=bug_info.program, options=options, invocation_notes=notes)


def summarize_function(function_name: str, definition_text: str, engine: Engine,
                       stage: str = "opt") -> FunctionSummary:
    """Summarize one function from its extracted declaration and definition."""
    if not definition_text.strip():
        raise ValueError("definition_text must be non-empty")
    answer = engine.run(
        "function_summary",
        {"function_name": function_name, "function_definition": definition_text},
        stage=stage,
    )
    params: list[tuple[str, str]] = []
    for line in answer.lines("parameters"):
        name, _, desc = line.partition(" : ")
        params.append((name.strip(), desc.strip()))
    return FunctionSummary(
        function=function_name,
        functionality=answer.text("functionality"),
        parameters=params,
        key_operations=answer.lines("key_operations"),
    )


def extract_definition(source_text: str, function_name: str) -> str:
    """Best-effort extraction of one function's definition from source text.

    Understands indentation-scoped ``def`` blocks; for anything else it falls
    back to a fixed-size window around the first definition-like mention.
    """
    lines = source_text.split("\n")
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)def\s+" + re.escape(function_name) + r"\s*\(", line)
        if not m:
            continue
        indent = len(m.group(1))
        end = i + 1
        while end < len(lines):
            stripped = lines[end].strip()
            if stripped and (len(lines[end]) - len(lines[end].lstrip())) <= indent:
                break
            end += 1
        return "\n".join(lines[i:end]).rstrip()
    pattern = re.compile(r"\b" + re.escape(function_name) + r"\s*\(")
    for i, line in enumerate(lines):
        if pattern.search(line):
            lo, hi = max(0, i - 2), min(len(lines), i + 40)
            return "\n".join(lines[lo:hi]).rstrip()
    raise TaskError(f"definition of {function_name!r} not found in source")


class SummaryCache:
    """Per-run cache so one function is summarized at most once."""

    def __init__(self, engine: Engine, definition_source):
        self.engine = engine
        self.definition_source = definition_source
        self._cache: dict[str, FunctionSummary] = {}

    def get(self, function_name: str, stage: str = "opt") -> FunctionSummary:
        if function_name not in self._cache:
            definition = self.definition_source(function_name)
            self._cache[function_name] = summarize_function(
                function_name, definition, self.engine, stage=stage
            )
        return self._cache[function_name]

    def snapshot(self) -> dict[str, FunctionSummary]:
        return dict(self._cache)
