"""Unit tests for the kernel-vectorization bugfix batch.

Covers the headline float-width packing bug (``log2``-based widths
silently truncate codes once ``qmax >= 2**53``), the LZ77 window-edge
crash at distance exactly 65536, lossless wrapper hygiene (level
validation, ``zlib.error`` containment), and equivalence of the
vectorized canonical-table build with the per-symbol scatter loop it
replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorruptStreamError, OptionError
from repro.core.compressor import compressor_registry
import repro.compressors  # noqa: F401  (registers the plugins)
from repro.compressors.zfp import pack_width_groups, unpack_width_groups
from repro.encoding import huffman, uint_bit_length
from repro.encoding.lz import (
    _lz77_compress,
    _lz77_compress_ref,
    _lz77_decompress,
    lossless_compress,
    lossless_decompress,
)


class TestUintBitLength:
    def test_matches_int_bit_length_at_edges(self):
        edges = [
            0, 1, 2, 3, 4, 7, 8, 255, 256,
            2**31 - 1, 2**31, 2**32,
            2**52, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2,
            2**62, 2**63 - 1, 2**63, 2**64 - 1,
        ]
        got = uint_bit_length(np.array(edges, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in edges]

    def test_float_log2_idiom_is_wrong_above_2_53(self):
        """Documents the bug being fixed: float rounding loses the top bit."""
        q = 2**53
        float_width = int(np.floor(np.log2(float(q)))) + 1  # the old idiom
        assert float_width == 54  # looks fine here...
        q = 2**54 - 1  # ...but rounds *up* to 2**54 as a float
        float_width = int(np.floor(np.log2(float(q)))) + 1
        assert float_width == 55  # over-wide: wrong width grouping
        assert int(uint_bit_length(np.array([q], dtype=np.uint64))[0]) == 54


class TestSzxWidePacking:
    def test_qmax_above_2_53_roundtrips(self):
        """Regression for the headline bug: a block whose quantized span
        needs 54 bits must survive the width-grouped packing exactly.
        On the float-``log2`` widths this decoded the top code as 0."""
        eb = 0.5  # quantizer step 2*eb = 1.0: codes are the values themselves
        values = np.array([0.0, float(2**53), 1.0, 3.0], dtype=np.float64)
        comp = compressor_registry.create("szx")
        comp.set_options({"pressio:abs": eb, "szx:block_size": 4})
        stream = comp.compress_impl(values)
        decoded = comp.decompress_impl(stream, values.dtype, values.shape)
        assert float(np.abs(decoded - values).max()) <= eb

    def test_mixed_width_blocks_roundtrip(self):
        eb = 0.5
        values = np.concatenate(
            [
                [0.0, float(2**53), 1.0, 3.0],  # 54-bit block
                [0.0, 3.0, 1.0, 2.0],  # 2-bit block
                [5.0, 5.0, 5.0, 5.0],  # constant block
            ]
        )
        comp = compressor_registry.create("szx")
        comp.set_options({"pressio:abs": eb, "szx:block_size": 4})
        decoded = comp.decompress_impl(
            comp.compress_impl(values), values.dtype, values.shape
        )
        assert float(np.abs(decoded - values).max()) <= eb


class TestZfpWidthGroups:
    def test_widths_are_exact_bit_lengths(self):
        codes = np.array(
            [
                [0, 0, 0],
                [1, 0, 0],
                [2**53 - 1, 5, 0],
                [2**53, 1, 2],
                [2**64 - 1, 0, 0],
            ],
            dtype=np.uint64,
        )
        payload, widths = pack_width_groups(codes)
        assert widths.tolist() == [0, 1, 53, 54, 64]
        out = unpack_width_groups(payload, widths, codes.shape[1])
        assert np.array_equal(out, codes)

    def test_truncated_payload_raises(self):
        codes = np.array([[7, 1], [1000, 3]], dtype=np.uint64)
        payload, widths = pack_width_groups(codes)
        with pytest.raises(CorruptStreamError):
            unpack_width_groups(payload[:-1], widths, codes.shape[1])


class TestLosslessWrapper:
    def test_truncated_zlib_body_is_corrupt_stream_error(self):
        stream = lossless_compress(b"hello world, hello world " * 64, backend="zlib")
        with pytest.raises(CorruptStreamError, match="zlib body corrupt"):
            lossless_decompress(stream[:-5])

    def test_garbage_zlib_body_is_corrupt_stream_error(self):
        stream = lossless_compress(b"hello world, hello world " * 64, backend="zlib")
        mangled = stream[:9] + b"\xff" + stream[10:]
        with pytest.raises(CorruptStreamError):
            lossless_decompress(mangled)

    def test_zlib_level_validated(self):
        data = b"abc" * 100
        for level in (-1, 0, 6, 9):
            assert lossless_decompress(lossless_compress(data, level=level)) == data
        for level in (-2, 10, 42):
            with pytest.raises(OptionError, match="zlib level"):
                lossless_compress(data, level=level)

    def test_lz77_backend_ignores_level(self):
        data = b"the quick brown fox " * 50
        streams = {lossless_compress(data, backend="lz77", level=lv) for lv in (-1, 0, 9)}
        assert len(streams) == 1
        assert lossless_decompress(streams.pop()) == data


class TestLZ77WindowEdge:
    """Matches at distance exactly 65536 crashed the seed encoder
    (``struct.pack("<H", 65536)``); the window test must be strict."""

    MARKER = b"\xf0\xf1\xf2\xf3\xf4\xf5"

    def _payload(self, gap: int) -> bytes:
        # Filler bytes stay < 0x80 so no window ever equals the marker key.
        rng = np.random.default_rng(65536)
        filler = rng.integers(0, 128, gap, dtype=np.int64).astype(np.uint8).tobytes()
        return self.MARKER + filler + self.MARKER

    def test_distance_65535_still_matches(self):
        payload = self._payload(65535 - len(self.MARKER))
        stream = _lz77_compress(payload)
        assert stream == _lz77_compress_ref(payload)
        assert b"\x01\xff\xff" in stream  # match token at dist 0xFFFF
        assert _lz77_decompress(stream, len(payload)) == payload

    def test_distance_65536_is_rejected_not_crashed(self):
        payload = self._payload(65536 - len(self.MARKER))
        stream = _lz77_compress(payload)
        assert stream == _lz77_compress_ref(payload)
        assert b"\x01\x00\x00" not in stream  # no wrapped-distance token
        assert _lz77_decompress(stream, len(payload)) == payload


def _scatter_loop_tables(code: huffman.HuffmanCode) -> tuple[np.ndarray, np.ndarray]:
    """The retired per-symbol reference build."""
    width = max(code.max_length, 1)
    size = 1 << width
    sym_table = np.zeros(size, dtype=np.int64)
    len_table = np.zeros(size, dtype=np.int64)
    for i in range(code.symbols.size):
        l = int(code.lengths[i])
        if l == 0:
            continue
        b = int(code.codes[i]) << (width - l)
        s = 1 << (width - l)
        sym_table[b : b + s] = i
        len_table[b : b + s] = l
    return sym_table, len_table


class TestDecodeTables:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_build_matches_scatter_loop(self, seed):
        rng = np.random.default_rng(seed)
        sym = rng.integers(-40, 40, 5000, dtype=np.int64)
        code = huffman.build_code(sym)
        ref = _scatter_loop_tables(code)
        got = code.decode_tables()
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_single_symbol_code(self):
        code = huffman.build_code(np.zeros(10, dtype=np.int64))
        ref = _scatter_loop_tables(code)
        got = code.decode_tables()
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_non_canonical_fallback_matches_scatter_loop(self):
        """Gappy (non-tiling) code tables take the fallback branch and
        must preserve the later-code-overwrites semantics exactly."""
        code = huffman.HuffmanCode(
            symbols=np.array([5, 9], dtype=np.int64),
            lengths=np.array([2, 2], dtype=np.int64),
            codes=np.array([0, 3], dtype=np.uint64),
        )
        ref = _scatter_loop_tables(code)
        got = code.decode_tables()
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])
        overlap = huffman.HuffmanCode(
            symbols=np.array([1, 2, 3], dtype=np.int64),
            lengths=np.array([1, 1, 2], dtype=np.int64),
            codes=np.array([0, 0, 1], dtype=np.uint64),
        )
        ref = _scatter_loop_tables(overlap)
        got = overlap.decode_tables()
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])


class TestVectorizedReferenceEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=2000))
    def test_encode_matches_reference(self, payload):
        stream = _lz77_compress(payload)
        assert stream == _lz77_compress_ref(payload)
        assert _lz77_decompress(stream, len(payload)) == payload

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=1, max_size=64),
        st.integers(min_value=1, max_value=200),
    )
    def test_repetitive_payloads_match_reference(self, motif, reps):
        payload = motif * reps
        stream = _lz77_compress(payload)
        assert stream == _lz77_compress_ref(payload)
        assert _lz77_decompress(stream, len(payload)) == payload
