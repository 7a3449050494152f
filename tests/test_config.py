"""Unit tests for the machine configuration."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.isa.opcodes import OpClass
from repro.uarch.config import MachineConfig, default_config


class TestValidation:
    def test_default_valid(self):
        default_config().validate()

    @pytest.mark.parametrize("field,value", [
        ("grid_width", 0), ("max_frames", 0), ("port_bandwidth", 0),
        ("recovery", "undo"), ("dependence_policy", "psychic"),
        ("next_block_predictor", "coin"), ("hybrid_redelivery_limit", -1),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            default_config(**{field: value})

    def test_rejects_zero_latency(self):
        latencies = dict(default_config().fu_latencies)
        latencies[OpClass.INT_ALU] = 0
        with pytest.raises(ConfigError):
            default_config(fu_latencies=latencies)


class TestDerive:
    def test_derive_overrides(self):
        base = default_config()
        derived = base.derive(max_frames=16, recovery="flush")
        assert derived.max_frames == 16
        assert derived.recovery == "flush"
        assert base.max_frames == 8           # base unchanged

    def test_derive_copies_latencies(self):
        base = default_config()
        derived = base.derive()
        derived.fu_latencies[OpClass.INT_ALU] = 99
        assert base.fu_latencies[OpClass.INT_ALU] == 1


class TestGeometry:
    def test_tile_coords(self):
        config = default_config(grid_width=4, grid_height=2)
        assert config.n_tiles == 8
        assert config.tile_coord(0) == (0, 0)
        assert config.tile_coord(3) == (3, 0)
        assert config.tile_coord(4) == (0, 1)

    def test_instruction_mapping_interleaves(self):
        config = default_config()
        assert config.tile_of_instruction(0) == 0
        assert config.tile_of_instruction(16) == 0
        assert config.tile_of_instruction(17) == 1

    def test_special_units_off_grid(self):
        config = default_config()
        assert config.control_coord[0] == -1
        assert config.lsq_coord[0] == -1
        assert config.control_coord != config.lsq_coord

    def test_window_capacity(self):
        assert default_config(max_frames=4).window_capacity == 512

    def test_t1_rows_cover_key_parameters(self):
        rows = dict(default_config().t1_rows())
        assert "Recovery" in rows
        assert "Instruction window" in rows
        assert rows["Dependence policy"] == "aggressive"


class TestSerialisation:
    """to_dict/from_dict must round-trip *every* field exactly, and the
    canonical form must be stable — config hashing (the result-cache key)
    silently drifts otherwise."""

    def test_to_dict_covers_every_field(self):
        # Fields in _ELIDE_AT_DEFAULT are omitted at their default value
        # (cache-key stability) and present otherwise; everything else is
        # always present.
        every = {f.name for f in dataclasses.fields(MachineConfig)}
        data = default_config().to_dict()
        assert set(data) == every - MachineConfig._ELIDE_AT_DEFAULT
        forced = default_config(hybrid_redelivery_limit=7,
                                txwave_epoch_blocks=2).to_dict()
        assert set(forced) == every

    def test_elided_fields_restore_defaults(self):
        config = default_config()
        data = config.to_dict()
        for name in MachineConfig._ELIDE_AT_DEFAULT:
            assert name not in data
        assert MachineConfig.from_dict(data) == config

    def test_default_hash_pinned(self):
        # The literal hash of the default config when the result cache was
        # first populated.  If this changes, every cached sweep result is
        # orphaned — add new config fields to _ELIDE_AT_DEFAULT instead of
        # letting them into the default serialisation.
        assert default_config().stable_hash() == (
            "d248fa2fce1efff10005a35fcd093f403b21c04e71c03541db9467ca8d0cf838")

    def test_round_trip_default(self):
        config = default_config()
        assert MachineConfig.from_dict(config.to_dict()) == config

    def test_round_trip_every_field_changed(self):
        # Change every field away from its default, then round-trip.
        config = default_config()
        changed = {}
        for f in dataclasses.fields(MachineConfig):
            value = getattr(config, f.name)
            if f.name == "fu_latencies":
                changed[f.name] = {k: v + 1 for k, v in value.items()}
            elif f.name == "dependence_policy":
                changed[f.name] = "storeset"
            elif f.name == "recovery":
                changed[f.name] = "flush"
            elif f.name == "next_block_predictor":
                changed[f.name] = "perfect"
            elif isinstance(value, bool):
                changed[f.name] = not value
            elif f.name == "base_latency":
                changed[f.name] = value + 1   # may be 0 by default
            else:
                changed[f.name] = value + 1
        derived = config.derive(**changed)
        restored = MachineConfig.from_dict(derived.to_dict())
        assert restored == derived
        for name, want in changed.items():
            assert getattr(restored, name) == want, name

    def test_dict_is_json_safe(self):
        blob = json.dumps(default_config().to_dict())
        assert MachineConfig.from_dict(json.loads(blob)) == default_config()

    def test_from_dict_rejects_unknown_field(self):
        data = default_config().to_dict()
        data["warp_drive"] = 9
        with pytest.raises(ConfigError, match="warp_drive"):
            MachineConfig.from_dict(data)

    def test_from_dict_rejects_unknown_op_class(self):
        data = default_config().to_dict()
        data["fu_latencies"] = dict(data["fu_latencies"], BOGUS=1)
        with pytest.raises(ConfigError):
            MachineConfig.from_dict(data)

    def test_from_dict_validates(self):
        data = default_config().to_dict()
        data["recovery"] = "undo"
        with pytest.raises(ConfigError):
            MachineConfig.from_dict(data)

    def test_canonical_json_stable(self):
        a = default_config()
        b = default_config()
        assert a.canonical_json() == b.canonical_json()
        assert a.stable_hash() == b.stable_hash()

    def test_hash_changes_with_any_field(self):
        base = default_config().stable_hash()
        assert default_config(max_frames=16).stable_hash() != base
        assert default_config(recovery="flush").stable_hash() != base
        assert default_config(hybrid_redelivery_limit=9).stable_hash() != base
        latencies = dict(default_config().fu_latencies)
        latencies[OpClass.INT_MUL] += 1
        assert default_config(
            fu_latencies=latencies).stable_hash() != base
