"""Binary checkpoint format: bit-exact round trips and corruption handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit.checkpoint import MAGIC, CheckpointFormatError, load_checkpoint, save_checkpoint


class TestRoundTrip:
    def test_mixed_shapes_bit_exact(self, tmp_path, rng):
        state = {
            "scalar": np.array(3.141592653589793),
            "vector": rng.standard_normal(7),
            "matrix": rng.standard_normal((3, 5)),
            "tensor4": rng.standard_normal((2, 3, 4, 5)),
            "weird/name.with.dots": rng.standard_normal(2),
            "transposed": rng.standard_normal((4, 6)).T,
            "strided": rng.standard_normal((5, 8))[::2, 1::3],
        }
        assert not state["transposed"].flags.c_contiguous
        assert not state["strided"].flags.c_contiguous
        path = tmp_path / "state.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        assert set(loaded) == set(state)
        for key, value in state.items():
            assert loaded[key].shape == value.shape
            np.testing.assert_array_equal(loaded[key], value)
            assert loaded[key].tobytes() == value.tobytes()

    def test_file_layout_header(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {"x": np.zeros(2)})
        blob = path.read_bytes()
        assert blob.startswith(MAGIC)
        assert blob[len(MAGIC)] == 1
        # name length as u64 little-endian follows the version byte
        assert int.from_bytes(blob[6:14], "little") == 1

    def test_extreme_values_preserved(self, tmp_path):
        state = {
            "extremes": np.array([0.0, -0.0, 1e-308, 1e308, np.pi, -np.e]),
        }
        path = tmp_path / "e.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        assert loaded["extremes"].tobytes() == state["extremes"].tobytes()

    @given(seed=st.integers(0, 2**31 - 1), entries=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_random_states_round_trip(self, seed, entries):
        import tempfile

        r = np.random.default_rng(seed)
        state = {}
        for i in range(entries):
            rank = int(r.integers(0, 4))
            shape = tuple(int(x) for x in r.integers(1, 5, size=rank))
            state[f"p{i}"] = r.standard_normal(shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/s.ckpt"
            save_checkpoint(path, state)
            loaded = load_checkpoint(path)
        for key, value in state.items():
            np.testing.assert_array_equal(loaded[key], value)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE!" + bytes([1]))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.ckpt"
        path.write_bytes(MAGIC + bytes([9]))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))

    def test_bare_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), {"x": np.ones(10)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(path))


def test_model_state_round_trip(tmp_path, rng):
    from eevit.train import full_state, load_full_state
    from eevit.config import build_run_config, build_system

    run = build_run_config({"model.layers": "2", "exits.positions": "1",
                            "model.image_side": "16", "model.patch_side": "8",
                            "model.dim": "16", "model.heads": "2"})
    system = build_system(run)
    path = tmp_path / "model.ckpt"
    state = full_state(system.model, system.branches)
    save_checkpoint(str(path), state)
    loaded = load_checkpoint(str(path))
    run2 = build_run_config({"model.layers": "2", "exits.positions": "1",
                             "model.image_side": "16", "model.patch_side": "8",
                             "model.dim": "16", "model.heads": "2", "run.seed": "9"})
    system2 = build_system(run2)
    load_full_state(loaded, system2.model, system2.branches)
    for key, value in full_state(system2.model, system2.branches).items():
        np.testing.assert_array_equal(value, state[key])
