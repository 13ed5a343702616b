"""Golden-stream bit-exactness: the kernel rewrite contract.

The fixtures under ``tests/golden/`` were generated from the original
interpreted kernel implementations *before* the vectorization rewrite.
These tests pin three properties for every compressor variant and every
LZ77 payload shape:

1. **byte-identical encode** — the current encoders reproduce the frozen
   streams exactly (so old checkpoints hash-match and the Jin/Khan
   models see the same stage sizes);
2. **exact decode** — the frozen bytes decode to the same values the
   current pipeline produces, within the promised error bound;
3. **reference equivalence** — the retired byte-at-a-time LZ77 encoder
   (kept as ``_lz77_compress_ref``) and the vectorized encoder agree, and
   corrupt streams decode to pinned outcomes (error strings included).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

import repro.compressors  # noqa: F401  (registers the plugins)
from repro.core.compressor import compressor_registry
from repro.core.errors import CorruptStreamError
from repro.encoding import huffman
from repro.encoding.lz import (
    _lz77_compress,
    _lz77_compress_ref,
    _lz77_decompress,
    lossless_compress,
    lossless_decompress,
)
from tests import golden_kernels as gk


#: Digest of the decoder's outcome (output bytes or error string) over
#: each payload's seeded corrupt cases, recorded when the token-loop
#: decoder was still checked against a second, independent decoder.
_LZ77_CORRUPT_OUTCOMES = {
    "motif": "d5be3a6c252cce28",
    "periodic": "0c161d60234378d2",
    "random": "4b9428acf608bc3d",
    "residuals": "5e305fb20f83a167",
    "runs": "62cdbfc2831daa5e",
    "tiny": "f452b33081c329d0",
}


def _fixture(name: str) -> bytes:
    path = os.path.join(gk.GOLDEN_DIR, name)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "name,comp_id,options,kind",
    gk.GOLDEN_COMPRESSOR_VARIANTS,
    ids=[v[0] for v in gk.GOLDEN_COMPRESSOR_VARIANTS],
)
class TestGoldenCompressorStreams:
    def test_encode_is_byte_identical(self, name, comp_id, options, kind):
        assert gk.compressor_stream(name) == _fixture(f"comp_{name}.bin")

    def test_frozen_stream_decodes_within_bound(self, name, comp_id, options, kind):
        field = gk.golden_input(kind)
        comp = compressor_registry.create(comp_id)
        comp.set_options(options)
        decoded = comp.decompress_impl(
            _fixture(f"comp_{name}.bin"), field.dtype, field.shape
        )
        assert decoded.shape == field.shape
        if options.get("zfp:mode") == "rate":
            return  # fixed-rate mode bounds bits, not error
        bound = float(options["pressio:abs"])
        assert float(np.abs(decoded - field).max()) <= bound + 1e-12
        # Decode must also be deterministic against a fresh encode.
        fresh = comp.decompress_impl(
            comp.compress_impl(field), field.dtype, field.shape
        )
        assert np.array_equal(decoded, fresh)


@pytest.mark.parametrize("name", sorted(gk.golden_lz_payloads()))
class TestGoldenLZ77Streams:
    def test_token_stream_byte_identical(self, name):
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        assert _lz77_compress(payload) == frozen
        assert _lz77_compress_ref(payload) == frozen

    def test_wrapped_stream_byte_identical(self, name):
        payload = gk.golden_lz_payloads()[name]
        assert lossless_compress(payload, backend="lz77") == _fixture(
            f"lz77_stream_{name}.bin"
        )

    def test_both_decoders_roundtrip_frozen_tokens(self, name):
        """The token decoder and the wrapped `lossless_decompress` path."""
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        assert _lz77_decompress(frozen, len(payload)) == payload
        assert lossless_decompress(_fixture(f"lz77_stream_{name}.bin")) == payload

    def test_decoders_agree_on_corrupt_streams(self, name):
        """Truncations and bit flips produce the pinned error (or output).

        Callers (checkpoint quarantine, the failure ledger) see exactly
        these strings, so they are pinned, not just their type."""
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        if len(frozen) < 4:
            pytest.skip("no meaningful corruption for degenerate stream")
        rng = np.random.default_rng(len(frozen))
        cases = [frozen[: int(rng.integers(1, len(frozen)))] for _ in range(10)]
        for _ in range(10):
            flipped = bytearray(frozen)
            flipped[int(rng.integers(0, len(flipped)))] ^= 1 << int(rng.integers(0, 8))
            cases.append(bytes(flipped))
        digest = hashlib.sha256()
        for stream in cases:
            try:
                outcome = b"ok:" + _lz77_decompress(stream, len(payload))
            except CorruptStreamError as exc:
                outcome = b"err:" + str(exc).encode()
            digest.update(hashlib.sha256(outcome).digest())
        assert digest.hexdigest()[:16] == _LZ77_CORRUPT_OUTCOMES[name]


class TestGoldenHuffman:
    def test_stream_byte_identical(self):
        assert gk.huffman_stream() == _fixture("huffman_stream.bin")

    def test_frozen_stream_decodes(self):
        symbols = gk.golden_huffman_symbols()
        assert np.array_equal(huffman.decode(_fixture("huffman_stream.bin")), symbols)

    def test_decode_tables_digest(self):
        assert gk.huffman_tables_digest() == _fixture("huffman_tables.sha256")
