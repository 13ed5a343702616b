"""Tests for the compressor plugin framework and standard metrics."""

import numpy as np
import pytest

from repro.core import (
    CorruptStreamError,
    ErrorStatMetrics,
    NoopCompressor,
    PressioData,
    SizeMetrics,
    TimeMetrics,
    compressor_registry,
    make_compressor,
)
from repro.core.compressor import _HEADER, clone_compressor, _pack_header, _unpack_header
from repro.compressors import SZ3Compressor  # registers real codecs


class TestStreamHeader:
    def test_roundtrip(self):
        arr = np.zeros((3, 4, 5), dtype=np.float32)
        dtype, shape, payload = _unpack_header(_pack_header(arr, b"xyz"))
        assert dtype == np.float32
        assert shape == (3, 4, 5)
        assert payload == b"xyz"

    def test_bad_magic(self):
        with pytest.raises(CorruptStreamError):
            _unpack_header(b"XXXX" + b"\x00" * 40)

    def test_truncated(self):
        arr = np.zeros(4, dtype=np.float32)
        stream = _pack_header(arr, b"abcdef")
        with pytest.raises(CorruptStreamError):
            _unpack_header(stream[:-3])

    @pytest.mark.parametrize("bad_dtype", [b"\xff\xfe\xfd", b"<v4"], ids=["non-utf8", "unknown"])
    def test_corrupt_dtype_field(self, bad_dtype):
        """A damaged dtype field is a corrupt stream, so the failure
        ledger records CORRUPT_STREAM rather than a generic error."""
        from repro.core import Status
        from repro.core.errors import error_status

        stream = bytearray(NoopCompressor().compress(np.zeros(4, dtype=np.float32)).tobytes())
        dtype_at = _HEADER.size + 2  # after the fixed header and the dtype length
        assert stream[dtype_at : dtype_at + 3] == b"<f4"
        stream[dtype_at : dtype_at + 3] = bad_dtype
        with pytest.raises(CorruptStreamError) as info:
            NoopCompressor().decompress(bytes(stream))
        assert error_status(info.value) == int(Status.CORRUPT_STREAM)


class TestNoop:
    def test_roundtrip_identity(self, smooth_field):
        comp = NoopCompressor()
        stream, recon = comp.roundtrip(smooth_field)
        assert np.array_equal(recon.array, smooth_field)
        assert recon.shape == smooth_field.shape

    def test_decompress_accepts_bytes(self, smooth_field):
        comp = NoopCompressor()
        raw = comp.compress(smooth_field).tobytes()
        recon = comp.decompress(raw)
        assert np.array_equal(recon.array, smooth_field)


class TestRegistryIntegration:
    def test_make_compressor_with_dunder_options(self):
        comp = make_compressor("sz3", pressio__abs=1e-5)
        assert comp.abs_bound == 1e-5

    def test_known_codecs_registered(self):
        for name in ("noop", "sz3", "zfp", "szx"):
            assert name in compressor_registry

    def test_clone_compressor_copies_options(self):
        comp = make_compressor("sz3", pressio__abs=3e-3)
        dup = clone_compressor(comp)
        assert dup is not comp
        assert dup.abs_bound == 3e-3
        assert len(dup.get_metrics().plugins) == 0


class TestMetricsHooks:
    def test_size_metrics(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        size = SizeMetrics()
        comp.set_metrics([size])
        comp.compress(smooth_field)
        res = comp.get_metrics_results()
        assert res["size:uncompressed_size"] == smooth_field.nbytes
        assert res["size:compressed_size"] > 0
        assert res["size:compression_ratio"] > 1.0

    def test_time_metrics_records_both_directions(self, smooth_field):
        comp = make_compressor("szx", pressio__abs=1e-3)
        timer = TimeMetrics()
        comp.set_metrics([timer])
        comp.decompress(comp.compress(smooth_field))
        res = comp.get_metrics_results()
        assert res["time:compress"] > 0
        assert res["time:decompress"] > 0

    def test_error_stat_metrics(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        err = ErrorStatMetrics()
        comp.set_metrics([err])
        comp.decompress(comp.compress(smooth_field))
        res = comp.get_metrics_results()
        assert res["error_stat:max_error"] <= 1e-3 * 1.001
        assert res["error_stat:value_range"] > 0
        assert res["error_stat:psnr"] > 20
        assert 0 <= res["error_stat:mae"] <= res["error_stat:max_error"]

    def test_composite_merges_and_declares_union(self, smooth_field):
        comp = make_compressor("szx", pressio__abs=1e-3)
        comp.set_metrics([SizeMetrics(), TimeMetrics()])
        comp.compress(smooth_field)
        res = comp.get_metrics_results()
        assert "size:compression_ratio" in res
        assert "time:compress" in res
        inv = comp.get_metrics().invalidations
        assert "predictors:error_dependent" in inv
        assert "predictors:runtime" in inv

    def test_metadata_flows_to_stream(self, smooth_field):
        comp = make_compressor("szx", pressio__abs=1e-3)
        data = PressioData(smooth_field, metadata={"field": "P"})
        stream = comp.compress(data)
        assert stream.metadata["field"] == "P"
        assert stream.metadata["compressor"] == "szx"


class TestConfiguration:
    def test_get_configuration_reports_error_affecting(self):
        comp = make_compressor("sz3")
        conf = comp.get_configuration()
        assert conf["pressio:id"] == "sz3"
        assert "pressio:abs" in conf["pressio:error_affecting"]

    def test_missing_bound_raises(self):
        comp = SZ3Compressor()
        comp.set_options({"pressio:abs": None})
        from repro.core import MissingOptionError

        with pytest.raises(MissingOptionError):
            _ = comp.abs_bound


class TestRelativeBound:
    """``pressio:rel`` (footnote 6): value-range-relative error bounds."""

    @pytest.mark.parametrize("name", ["sz3", "zfp", "szx", "sperr"])
    def test_rel_bound_scales_with_range(self, name):
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e4):
            data = (rng.standard_normal((16, 16, 8)) * scale).astype(np.float32)
            comp = make_compressor(name)
            comp.set_options({"pressio:rel": 1e-4, "pressio:abs": None})
            recon = comp.decompress(comp.compress(data)).array
            vrange = float(data.max() - data.min())
            err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
            assert err <= 1e-4 * vrange * 1.001 + 1e-12, (name, scale)

    def test_rel_is_error_affecting(self):
        comp = make_compressor("sz3")
        assert "pressio:rel" in comp.get_configuration()["pressio:error_affecting"]

    def test_abs_takes_effect_when_rel_unset(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        recon = comp.decompress(comp.compress(smooth_field)).array
        err = np.abs(recon.astype(np.float64) - smooth_field.astype(np.float64)).max()
        assert err <= 1e-3 * 1.001
