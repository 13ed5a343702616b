"""Final-stage lossless byte compression.

SZ3 finishes with a general-purpose lossless pass (zstd upstream).  We
provide two interchangeable backends behind one two-byte-tagged format:

* ``"lz77"`` — a from-scratch hash-chain LZ77 with greedy matching and a
  simple literal/match token stream.  The encoder is a NumPy hash-chain
  matcher (rolling 4-byte keys from strided views, previous-occurrence
  chains from one stable argsort, match extension as chunked whole-slice
  compares), bit-exact with the original interpreted loop kept here as
  ``_lz77_compress_ref``, which the golden-stream tests and the kernel
  benchmark hold it to.  The decoder is the token loop: on the
  high-entropy Huffman streams this stage sees in production almost
  every token is a long literal run, i.e. one slice copy.
* ``"zlib"`` — the C-speed DEFLATE from the Python standard library,
  the default production backend.  DEFLATE is itself LZ77 + Huffman,
  i.e. the same algorithm family as zstd's literal path, so the residual
  redundancy removal the Jin model estimates behaves comparably.

Both produce streams decodable by :func:`lossless_decompress` regardless
of which backend encoded them.

Token format (unchanged since the first release, so old checkpoints
still decode): a control byte per token; ``0x00`` prefixes a literal run
(length byte + literals), ``0x01`` prefixes a match (2-byte
little-endian distance, 1-byte ``length - 4``).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..core.errors import CorruptStreamError, OptionError

_TAG_RAW = 0
_TAG_ZLIB = 1
_TAG_LZ77 = 2

_MIN_MATCH = 4
_MAX_MATCH = 255 + _MIN_MATCH
_WINDOW = 1 << 16
#: chunk size for the C-speed slice compares in match extension.
_EXTEND_CHUNK = 32


def _flush_literals(out: bytearray, literals: bytearray) -> None:
    """Emit pending literals as 255-byte-max literal-run tokens."""
    j = 0
    while j < len(literals):
        chunk = literals[j : j + 255]
        out.append(0x00)
        out.append(len(chunk))
        out.extend(chunk)
        j += 255
    literals.clear()


def _lz77_compress_ref(data: bytes) -> bytes:
    """Reference greedy hash-chain LZ77 (interpreted, byte at a time).

    This is the original implementation the vectorized encoder must
    match byte for byte; it is exercised only by the golden-stream tests
    and as the kernel benchmark baseline.
    """
    n = len(data)
    out = bytearray()
    literals = bytearray()
    head: dict[bytes, int] = {}
    i = 0

    while i < n:
        match_len = 0
        match_dist = 0
        if i + _MIN_MATCH <= n:
            key = data[i : i + _MIN_MATCH]
            cand = head.get(key)
            # NB: strictly less than _WINDOW — the distance field is a
            # 16-bit integer, so a match at distance exactly 2^16 would
            # overflow struct.pack (a crash the original `<=` had).
            if cand is not None and i - cand < _WINDOW:
                # Extend the candidate match as far as it goes.
                length = _MIN_MATCH
                limit = min(_MAX_MATCH, n - i)
                while length < limit and data[cand + length] == data[i + length]:
                    length += 1
                match_len = length
                match_dist = i - cand
            head[key] = i
        if match_len >= _MIN_MATCH:
            _flush_literals(out, literals)
            out.append(0x01)
            out.extend(struct.pack("<HB", match_dist, match_len - _MIN_MATCH))
            # Insert hash entries sparsely inside the match to bound cost.
            step = max(1, match_len // 8)
            for k in range(i + 1, min(i + match_len, n - _MIN_MATCH), step):
                head[data[k : k + _MIN_MATCH]] = k
            i += match_len
        else:
            literals.append(data[i])
            i += 1
    _flush_literals(out, literals)
    return bytes(out)


def _lz77_decompress(stream: bytes, expected_size: int) -> bytes:
    """Token-at-a-time LZ77 decoder.

    Literal runs are one slice copy each; a match is a byte loop only
    because overlapping copies (``dist < length``) are legal.  Corrupt
    streams raise at the first bad token in stream order.
    """
    out = bytearray()
    i = 0
    n = len(stream)
    while i < n:
        tag = stream[i]
        i += 1
        if tag == 0x00:
            if i >= n:
                raise CorruptStreamError("lz77 literal header truncated")
            count = stream[i]
            i += 1
            if i + count > n:
                raise CorruptStreamError("lz77 literal run truncated")
            out.extend(stream[i : i + count])
            i += count
        elif tag == 0x01:
            if i + 3 > n:
                raise CorruptStreamError("lz77 match token truncated")
            dist, extra = struct.unpack_from("<HB", stream, i)
            i += 3
            length = extra + _MIN_MATCH
            start = len(out) - dist
            if start < 0 or dist == 0:
                raise CorruptStreamError("lz77 match reaches before stream start")
            for _ in range(length):  # overlapping copies are legal in LZ77
                out.append(out[start])
                start += 1
        else:
            raise CorruptStreamError(f"unknown lz77 token {tag}")
    if len(out) != expected_size:
        raise CorruptStreamError("lz77 output size mismatch")
    return bytes(out)


def _lz77_compress(data: bytes) -> bytes:
    """Vectorized greedy hash-chain LZ77, bit-exact with the reference.

    The sequential dictionary of the reference encoder is replaced by
    three precomputed whole-array structures:

    * ``keys[i]`` — the 4-byte rolling key at every position (strided
      uint32 arithmetic, no per-position slicing);
    * ``chain[i]`` — the previous position with the same key, for every
      position at once, from one stable argsort of the keys;
    * ``next_cand[i]`` — the next position at or after ``i`` whose key
      has occurred before (a reversed cumulative minimum), so runs of
      first-occurrence positions become one literal-run skip instead of
      one Python iteration per byte.

    The reference dictionary maps each key to its most recent *inserted*
    position (parse positions plus a sparse grid inside matches).  That
    is recovered exactly by walking ``chain`` until an inserted position
    is found: occurrences are visited newest-first, and because the
    parse only moves forward, the inserted/skipped status of every
    position behind the cursor is final — which also makes the walk's
    path compression safe.  Match extension compares
    ``_EXTEND_CHUNK``-byte slices at C speed instead of byte pairs.

    Positions whose key never occurred before cannot match, so the parse
    only has to stop at *repeat* positions.  When repeats are sparse
    (high-entropy input — the production case, since this stage runs on
    Huffman-coded streams) the sorted repeat list drives the skips; when
    they are dense, a reversed cumulative minimum (``next_cand``) gives
    the next repeat at or after every position in O(1).
    """
    n = len(data)
    out = bytearray()
    literals = bytearray()
    if n < _MIN_MATCH:
        literals.extend(data)
        _flush_literals(out, literals)
        return bytes(out)
    arr = np.frombuffer(data, dtype=np.uint8)
    m = n - (_MIN_MATCH - 1)  # number of positions with a full 4-byte key
    keys = arr[:m].astype(np.uint32)
    keys <<= 8
    keys |= arr[1 : m + 1]
    keys <<= 8
    keys |= arr[2 : m + 2]
    keys <<= 8
    keys |= arr[3 : m + 3]
    # Stable sort by key via one unstable sort of (key << 32 | position):
    # equal keys tie-break on position, which is exactly stability, and
    # a direct np.sort of the composite is ~4x faster than a stable
    # argsort (no indirection, introsort instead of mergesort).  The
    # packing bounds payloads at 2^32 bytes, far above the 2^16 window.
    comp = keys.astype(np.uint64) << np.uint64(32)
    comp |= np.arange(m, dtype=np.uint64)
    comp.sort()
    if np.little_endian:
        halves = comp.view(np.uint32)
        order = halves[0::2].astype(np.int64)
        sorted_keys = halves[1::2]
    else:
        order = (comp & np.uint64(0xFFFFFFFF)).astype(np.int64)
        sorted_keys = (comp >> np.uint64(32)).astype(np.uint32)
    prev = np.full(m, -1, dtype=np.int64)
    repeats: list[int] = []
    if m > 1:
        same = sorted_keys[1:] == sorted_keys[:-1]
        repeat_pos = order[1:][same]
        prev[repeat_pos] = order[:-1][same]
        repeats = np.sort(repeat_pos).tolist()
    nrepeats = len(repeats)
    sparse = nrepeats * 16 < m
    if sparse:
        # Few repeat positions: drive the skips straight off the sorted
        # repeat list and index `prev` without materialising a list.
        chain = prev
        next_cand: list[int] = []
    else:
        candidate_at = np.where(prev >= 0, np.arange(m, dtype=np.int64), m)
        next_cand = np.minimum.accumulate(candidate_at[::-1])[::-1].tolist()
        chain = prev.tolist()
    inserted = bytearray(m)
    i = 0
    ptr = 0
    while i < n:
        if i >= m:
            # No full key fits: everything left is literal (and never
            # enters the dictionary, matching the reference bound).
            literals.extend(data[i:])
            break
        if sparse:
            while ptr < nrepeats and repeats[ptr] < i:
                ptr += 1
            j = repeats[ptr] if ptr < nrepeats else m
        else:
            j = next_cand[i]
        if j > i:
            # Keys in [i, j) occur for the first time — no candidate is
            # possible, so the whole run is literal.  Every position
            # still enters the dictionary.
            inserted[i:j] = b"\x01" * (j - i)
            literals.extend(data[i:j])
            i = j
            continue
        # Resolve the most recent *inserted* occurrence (the dict value)
        # by walking the occurrence chain, compressing the path.
        j = chain[i]
        if j >= 0 and not inserted[j]:
            path = []
            while j >= 0 and not inserted[j]:
                path.append(j)
                j = chain[j]
            for x in path:
                chain[x] = j
        cand = j
        inserted[i] = 1
        if cand < 0 or i - cand >= _WINDOW:
            literals.append(data[i])
            i += 1
            continue
        # Extend the match with chunked slice compares (both sides read
        # the original data, so overlapping matches behave identically).
        limit = min(_MAX_MATCH, n - i)
        length = _MIN_MATCH
        while length < limit:
            chunk = min(_EXTEND_CHUNK, limit - length)
            if data[cand + length : cand + length + chunk] == data[i + length : i + length + chunk]:
                length += chunk
                continue
            a = data[cand + length : cand + length + chunk]
            b = data[i + length : i + length + chunk]
            off = 0
            while a[off] == b[off]:
                off += 1
            length += off
            break
        _flush_literals(out, literals)
        dist = i - cand
        out.append(0x01)
        out.append(dist & 0xFF)
        out.append(dist >> 8)
        out.append(length - _MIN_MATCH)
        stop = min(i + length, n - _MIN_MATCH)
        step = max(1, length // 8)
        for k in range(i + 1, stop, step):
            inserted[k] = 1
        i += length
    _flush_literals(out, literals)
    return bytes(out)


def lossless_compress(data: bytes | np.ndarray, backend: str = "zlib", level: int = 6) -> bytes:
    """Compress a byte payload with the chosen backend.

    ``level`` is the zlib compression level (``-1`` for the zlib default,
    else 0–9); the ``lz77`` backend has a single effort setting and
    ignores it.  If the backend expands the data (incompressible input),
    the stream is stored raw — the decoder handles all three tags
    transparently.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    if backend == "zlib":
        level = int(level)
        if not -1 <= level <= 9:
            raise OptionError(f"zlib level must be -1..9, got {level}")
        body = zlib.compress(data, level)
        tag = _TAG_ZLIB
    elif backend == "lz77":
        body = _lz77_compress(data)
        tag = _TAG_LZ77
    else:
        raise OptionError(f"unknown lossless backend {backend!r}")
    if len(body) >= len(data):
        tag, body = _TAG_RAW, data
    return struct.pack("<BQ", tag, len(data)) + body


def lossless_decompress(stream: bytes) -> bytes:
    """Decompress a stream from :func:`lossless_compress` (any backend)."""
    if len(stream) < 9:
        raise CorruptStreamError("lossless stream too short")
    tag, size = struct.unpack_from("<BQ", stream, 0)
    body = stream[9:]
    if tag == _TAG_RAW:
        if len(body) != size:
            raise CorruptStreamError("raw stream size mismatch")
        return body
    if tag == _TAG_ZLIB:
        try:
            out = zlib.decompress(body)
        except zlib.error as exc:
            # Keep corrupt payloads inside the harness's error taxonomy
            # (Status mapping, checkpoint quarantine) instead of leaking
            # a raw zlib.error.
            raise CorruptStreamError(f"zlib body corrupt: {exc}") from exc
    elif tag == _TAG_LZ77:
        out = _lz77_decompress(body, size)
    else:
        raise CorruptStreamError(f"unknown lossless tag {tag}")
    if len(out) != size:
        raise CorruptStreamError("lossless output size mismatch")
    return out
