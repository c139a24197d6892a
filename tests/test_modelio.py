"""Round-trip and corruption tests for the named-parameter-block container
and the model files built on it."""

import numpy as np
import pytest
from cluster_data import separable_clusters

from burnmap import bamcd, forest, mlp
from burnmap.errors import ConfigError, DataError, FormatError
from burnmap.modelio import (
    block_text,
    load_model,
    meta_int,
    meta_ints,
    pack_blocks,
    save_blocks,
    save_model,
    text_block,
    unpack_blocks,
)


def _sample_blocks():
    rng = np.random.default_rng(42)
    return {
        "encoder.conv.weight": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "encoder.bn.running_var": rng.uniform(0.5, 2.0, 4),
        "tree/000/feature": np.array([0, 3, -1], dtype=np.int64),
        "labels": np.array([0, 1, 1, 0], dtype=np.uint8),
        "counts32": np.array([7, 9], dtype=np.int32),
        "scalar": np.array(2.5, dtype=np.float64),
        "__meta__": text_block("kind=demo\nwidths=16,32\n"),
    }


class TestRoundTrip:
    def test_values_dtypes_and_order_preserved(self):
        blocks = _sample_blocks()
        back = unpack_blocks(pack_blocks(blocks))
        assert list(back) == list(blocks)
        for name, arr in blocks.items():
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.npb"
        save_blocks(path, _sample_blocks())
        back = unpack_blocks(path.read_bytes())
        np.testing.assert_array_equal(
            back["tree/000/feature"], np.array([0, 3, -1], dtype=np.int64)
        )

    def test_serialization_is_deterministic(self):
        blocks = _sample_blocks()
        assert pack_blocks(blocks) == pack_blocks(blocks)

    def test_empty_container(self):
        assert unpack_blocks(pack_blocks({})) == {}

    def test_text_block_round_trip(self):
        msg = "bands=B02,B8A\nnote=Évros run\n"
        assert block_text(text_block(msg)) == msg

    def test_zero_size_array(self):
        back = unpack_blocks(pack_blocks({"empty": np.zeros((0, 3), dtype=np.float32)}))
        assert back["empty"].shape == (0, 3)


class TestRejection:
    def test_bad_magic(self):
        blob = b"XXXX" + pack_blocks({})[4:]
        with pytest.raises(FormatError, match="magic") as err:
            unpack_blocks(blob)
        assert err.value.offset == 0

    def test_unsupported_version(self):
        blob = bytearray(pack_blocks({}))
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            unpack_blocks(bytes(blob))

    def test_truncation_reports_offset(self):
        blob = pack_blocks({"w": np.ones(5, dtype=np.float32)})
        cut = blob[:-4]
        with pytest.raises(FormatError, match="payload") as err:
            unpack_blocks(cut)
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self):
        blob = pack_blocks({"w": np.ones(2, dtype=np.float32)}) + b"\x00"
        with pytest.raises(FormatError, match="trailing"):
            unpack_blocks(blob)

    def test_unknown_dtype_code(self):
        blob = bytearray(pack_blocks({"w": np.ones(1, dtype=np.float32)}))
        # dtype code sits right after magic+header+name_len+name
        pos = 4 + 6 + 2 + 1
        blob[pos] = 250
        with pytest.raises(FormatError, match="dtype code"):
            unpack_blocks(bytes(blob))

    def test_unsupported_dtype_on_pack(self):
        with pytest.raises(FormatError, match="dtype"):
            pack_blocks({"w": np.ones(2, dtype=np.complex64)})

    def test_empty_name_rejected(self):
        with pytest.raises(FormatError, match="name"):
            pack_blocks({"": np.ones(1, dtype=np.float32)})

    def test_duplicate_names_rejected_on_read(self):
        one = pack_blocks({"w": np.ones(1, dtype=np.float32)})
        # splice the same block record twice into a two-block container
        record = one[10:]
        import struct

        blob = one[:4] + struct.pack("<HI", 1, 2) + record + record
        with pytest.raises(FormatError, match="duplicate"):
            unpack_blocks(blob)


class TestModelFile:
    FIELDS = {"n": meta_int, "widths": meta_ints}

    def _save(self, path, meta="n=3\nwidths=4,3,1\n", **blocks):
        save_blocks(path, {"__meta__": text_block("kind=demo\n" + meta), **blocks})

    def test_layout_and_typed_round_trip(self, tmp_path):
        path = tmp_path / "m.npb"
        w = np.arange(3, dtype=np.float32)
        save_model(path, "demo", {"n": 3, "widths": (4, 3, 1)}, {"w": w})
        blocks = unpack_blocks(path.read_bytes())
        assert list(blocks) == ["__meta__", "w"]
        assert block_text(blocks["__meta__"]) == "kind=demo\nn=3\nwidths=4,3,1\n"
        meta, back = load_model(path, "demo", self.FIELDS, lambda m, b: (m, b["w"]))
        assert meta == {"n": 3, "widths": (4, 3, 1)}
        np.testing.assert_array_equal(back, w)

    def test_wrong_kind_is_data_error(self, tmp_path):
        self._save(tmp_path / "m.npb")
        with pytest.raises(DataError, match="'demo' model, not 'mlp'") as err:
            load_model(tmp_path / "m.npb", "mlp", {}, lambda m, b: None)
        assert not isinstance(err.value, FormatError)

    @pytest.mark.parametrize(
        "meta, match",
        [
            ("n=3\n", "no 'widths'"),
            ("n=3\nwidths\n", "not key=value"),
            ("n=+3\nwidths=4\n", "n='\\+3' is unparsable"),
            ("n= 3\nwidths=4\n", "unparsable"),
            ("n=3\nwidths=4,,1\n", "unparsable"),
        ],
    )
    def test_damaged_meta_is_format_error(self, tmp_path, meta, match):
        self._save(tmp_path / "m.npb", meta)
        with pytest.raises(FormatError, match=match):
            load_model(tmp_path / "m.npb", "demo", self.FIELDS, lambda m, b: None)

    def test_missing_kind_is_format_error(self, tmp_path):
        save_blocks(tmp_path / "m.npb", {"__meta__": text_block("n=3\n")})
        with pytest.raises(FormatError, match="no 'kind'"):
            load_model(tmp_path / "m.npb", "demo", {}, lambda m, b: None)

    def test_non_utf8_meta_is_format_error(self, tmp_path):
        save_blocks(tmp_path / "m.npb", {"__meta__": np.frombuffer(b"kind=\xff", np.uint8)})
        with pytest.raises(FormatError, match="UTF-8"):
            load_model(tmp_path / "m.npb", "demo", {}, lambda m, b: None)

    def test_missing_unread_and_misfit_blocks_are_format_errors(self, tmp_path):
        path = tmp_path / "m.npb"
        self._save(path, w=np.zeros(2, np.float32))
        with pytest.raises(FormatError, match="no block 'v'"):
            load_model(path, "demo", self.FIELDS, lambda m, b: b["v"])
        with pytest.raises(FormatError, match=r"unexpected blocks \['w'\]"):
            load_model(path, "demo", self.FIELDS, lambda m, b: None)

        def misfit(meta, blocks):
            raise ConfigError("parameter w: shape (2,) != (3,)")

        with pytest.raises(FormatError, match="shape"):
            load_model(path, "demo", self.FIELDS, misfit)


def _mlp_container() -> bytes:
    """A three-block container: MLP meta and the weight and bias of a (3, 1) model."""
    from burnmap.mlp import build_mlp

    model = build_mlp(3, widths=(3, 1), seed=0)
    blocks = {"__meta__": text_block("kind=mlp\nwidths=3,1\n")}
    blocks.update((name, p.data) for name, p in model.layers.named_parameters())
    return pack_blocks(blocks)


def _forest_file(path):
    x, y = separable_clusters(seed=5, n=40)
    forest.save_forest(path, forest.rf_fit(x, y, seed=6, n_trees=2, max_depth=3))

    def load_and_predict(path):
        """A forest that loads must also predict burnt fractions."""
        model = forest.load_forest(path)
        probe = np.random.default_rng(12).uniform(-3.0, 3.0, (64, model.n_features))
        proba = forest.rf_predict(model, probe)
        assert ((proba >= 0.0) & (proba <= 1.0)).all(), proba
        return model

    return load_and_predict


def _mlp_file(path):
    x, y = separable_clusters(seed=7, n=40)
    x = np.hstack([x, -x])
    mlp.save_mlp(path, mlp.mlp_fit(x, y, seed=8, widths=(4, 3, 1), epochs=1))
    return mlp.load_mlp


def _bamcd_file(path):
    bamcd.save_bamcd(path, bamcd.build(bamcd.mini_config(widths=(2, 2), blocks=(1, 1))))
    return bamcd.load_bamcd


class TestFuzz:
    """Seeded damage over every byte of real containers: the reader must
    answer with FormatError and an offset, or read a well-formed result. A
    model file read through its family's loader may also answer DataError,
    and nothing else."""

    @pytest.mark.parametrize("make", [_mlp_container, lambda: pack_blocks(_sample_blocks())])
    def test_truncation_at_every_offset(self, make):
        blob = make()
        for cut in range(len(blob)):
            with pytest.raises(FormatError) as err:
                unpack_blocks(blob[:cut])
            assert err.value.offset is not None, cut

    @pytest.mark.parametrize("make", [_mlp_container, lambda: pack_blocks(_sample_blocks())])
    def test_single_byte_corruption_at_every_offset(self, make):
        blob = make()
        rng = np.random.default_rng(7)
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            try:
                unpack_blocks(bytes(damaged))
            except FormatError as err:
                assert err.offset is not None, pos

    @pytest.mark.parametrize("extents", [(2**16,) * 4, (21, 1684957547, 1886154045)])
    def test_extents_past_int64_are_truncation(self, extents):
        # The item count of these extents is 2**64 (int64 arithmetic wraps it
        # to 0) and about 6.7e19 (wraps negative); both must read as a payload
        # far longer than the blob.
        import struct

        blob = (
            pack_blocks({})[:4]
            + struct.pack("<HIH", 1, 1, 1)
            + b"w"
            + struct.pack(f"<BB{len(extents)}I", 2, len(extents), *extents)
        )
        with pytest.raises(FormatError, match="truncated .* payload") as err:
            unpack_blocks(blob)
        assert err.value.offset == len(blob)

    @pytest.mark.parametrize("save", [_forest_file, _mlp_file, _bamcd_file])
    def test_model_file_truncation_at_every_offset(self, save, tmp_path):
        path = tmp_path / "model.npb"
        load = save(path)
        blob = path.read_bytes()
        load(path)  # the undamaged file loads
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load(path)

    @pytest.mark.parametrize("save", [_forest_file, _mlp_file, _bamcd_file])
    def test_model_file_corruption_at_every_offset(self, save, tmp_path):
        path = tmp_path / "model.npb"
        load = save(path)
        blob = path.read_bytes()
        rng = np.random.default_rng(11)
        escaped = []
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            path.write_bytes(bytes(damaged))
            try:
                load(path)
            except DataError:  # FormatError included
                pass
            except Exception as exc:  # collected, so one run names every escape
                escaped.append((pos, repr(exc)))
        assert escaped == []
