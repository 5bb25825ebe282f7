"""Binary weight/dataset formats and the records CSV."""
import json
import struct

import numpy as np
import pytest

from segact import TaskConfig, generate, init_layers
from segact.harness import RunRecord
from segact.storage import (DATASET_MAGIC, WEIGHTS_MAGIC, load_dataset,
                            load_weights, read_records, save_dataset,
                            save_weights, write_records)


class TestWeights:
    def test_round_trip(self, tmp_path):
        layers = init_layers([3, 16, 1], 42)
        path = tmp_path / "model.acts"
        save_weights(path, layers)
        loaded = load_weights(path)
        assert len(loaded) == len(layers)
        for (w, b), (w2, b2) in zip(layers, loaded):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_header_layout(self, tmp_path):
        layers = init_layers([2, 4, 1], 0)
        path = tmp_path / "model.acts"
        save_weights(path, layers)
        raw = path.read_bytes()
        assert raw[:4] == WEIGHTS_MAGIC
        version, n_layers = struct.unpack("<II", raw[4:12])
        assert version == 1 and n_layers == 2
        in_size, out_size = struct.unpack("<II", raw[12:20])
        assert (in_size, out_size) == (2, 4)

    @pytest.mark.parametrize("cut", [1, 8, 100])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "model.acts"
        save_weights(path, init_layers([3, 16, 1], 0))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="model.acts: expected"):
            load_weights(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.acts"
        save_weights(path, init_layers([3, 4, 1], 0))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="model.acts: expected"):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.acts"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_weights(path)


class TestDataset:
    def test_round_trip_with_manifest(self, tmp_path):
        cfg = TaskConfig(n_images=6, image_side=8, noise_sigma=0.3, seed=5)
        samples = generate(cfg)
        data_path = save_dataset(tmp_path / "ds", samples, cfg)
        assert data_path.read_bytes()[:4] == DATASET_MAGIC

        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["n_images"] == 6
        assert manifest["config"]["seed"] == 5
        assert len(manifest["sha256"]) == 64

        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == 6
        for s, s2 in zip(samples, loaded):
            np.testing.assert_array_equal(s.features, s2.features)
            np.testing.assert_array_equal(s.mask, s2.mask)

    @staticmethod
    def saved(tmp_path):
        cfg = TaskConfig(n_images=3, image_side=8, noise_sigma=0.3, seed=5)
        data_path = save_dataset(tmp_path / "ds", generate(cfg), cfg)
        return data_path, data_path.read_bytes()

    def test_flipped_byte_rejected(self, tmp_path):
        data_path, raw = self.saved(tmp_path)
        raw = bytearray(raw)
        raw[100] ^= 0x01
        data_path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="data.actd: sha256"):
            load_dataset(tmp_path / "ds")

    def test_cut_mid_image_rejected(self, tmp_path):
        data_path, raw = self.saved(tmp_path)
        data_path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ValueError, match="data.actd: expected"):
            load_dataset(tmp_path / "ds")

    def test_cut_at_image_boundary_rejected(self, tmp_path):
        data_path, raw = self.saved(tmp_path)
        per_image = 64 * 3 * 8 + 64
        assert (len(raw) - 20) == 3 * per_image
        data_path.write_bytes(raw[:20 + 2 * per_image])
        with pytest.raises(ValueError, match="data.actd: expected"):
            load_dataset(tmp_path / "ds")

    def test_errors_are_one_line(self, tmp_path):
        data_path, raw = self.saved(tmp_path)
        data_path.write_bytes(raw[:10])
        with pytest.raises(ValueError) as err:
            load_dataset(data_path)
        assert "\n" not in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.actd"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_dataset(path)


class TestRecordsCsv:
    def make_records(self):
        return [
            RunRecord("sigmoid", "bce", 0, nll=0.12, dice=0.91,
                      threshold=0.45, gap_even=0.2, gap_adaptive=0.1,
                      epochs=30, converged=True),
            RunRecord("hardtanh", "dice", 4, nll=0.5, dice=0.0,
                      threshold=0.0, gap_even=0.9,
                      gap_adaptive=float("nan"), epochs=3, converged=False),
        ]

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "records.csv"
        write_records(path, records)
        loaded = read_records(path)
        assert loaded[0] == records[0]
        last = loaded[1]
        assert last.converged is False
        assert np.isnan(last.gap_adaptive)
        assert last.epochs == 3

    def test_header_is_fixed(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, self.make_records())
        header = path.read_text().splitlines()[0]
        assert header == ("activation,loss,fold,nll,dice,threshold,"
                          "gap_even,gap_adaptive,epochs,converged")

    def test_row_count(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, self.make_records())
        assert len(path.read_text().splitlines()) == 3

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records(path)
