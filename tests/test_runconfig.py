"""Tests for the flat key=value run-config format."""

import pytest

from burnmap.errors import ConfigError
from burnmap.runconfig import (
    check_keys,
    format_fields,
    get_float,
    get_int,
    get_str,
    int_at_least,
    load_config,
    one_of,
    parse_config_text,
    parse_fields,
    positive_ints,
    read_fields,
    reader,
)


class TestParsing:
    def test_basic_pairs(self):
        cfg = parse_config_text("a=1\nb = two \nc=3.5\n")
        assert cfg == {"a": "1", "b": "two", "c": "3.5"}

    def test_comments_and_blanks(self):
        text = "# full-line comment\n\nkey=value  # trailing comment\n   \n"
        assert parse_config_text(text) == {"key": "value"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("expr=a=b") == {"expr": "a=b"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just a bare line")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("=value")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha=0.5 # half\nbeta=2\n", encoding="utf-8")
        assert load_config(path) == {"alpha": "0.5", "beta": "2"}


class TestKeyChecks:
    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match=r"\['zeta'\]"):
            check_keys({"alpha": "1", "zeta": "2"}, {"alpha", "beta"}, "demo")

    def test_subset_accepted(self):
        check_keys({"alpha": "1"}, {"alpha", "beta"}, "demo")


class TestGetters:
    CFG = {"n": "12", "x": "0.25", "mode": "fast", "widths": "4,8,16"}

    def test_get_str(self):
        assert get_str(self.CFG, "mode") == "fast"
        with pytest.raises(ConfigError, match="missing required"):
            get_str(self.CFG, "absent")

    def test_get_int(self):
        assert get_int(self.CFG, "n") == 12
        with pytest.raises(ConfigError, match="integer"):
            get_int(self.CFG, "mode")

    def test_get_float(self):
        assert get_float(self.CFG, "x") == 0.25
        assert get_float(self.CFG, "n") == 12.0
        with pytest.raises(ConfigError, match="number"):
            get_float(self.CFG, "mode")

    def test_one_of(self):
        assert one_of("fast", "slow")(self.CFG, "mode") == "fast"
        with pytest.raises(ConfigError, match="'mode': expected one of"):
            one_of("a", "b")(self.CFG, "mode")

    def test_positive_ints(self):
        assert positive_ints(self.CFG, "widths") == (4, 8, 16)
        with pytest.raises(ConfigError, match="comma-separated"):
            positive_ints(self.CFG, "mode")

    def test_reader_names_key_and_range(self):
        assert int_at_least(12)(self.CFG, "n") == 12
        with pytest.raises(ConfigError, match=r"'n': expected an integer >= 13, got '12'"):
            int_at_least(13)(self.CFG, "n")
        with pytest.raises(ConfigError, match=r"'mode': expected an integer >= 1, got 'fast'"):
            int_at_least(1)(self.CFG, "mode")
        odd = reader(int, "an odd integer", lambda v: v % 2)
        with pytest.raises(ConfigError, match="'n': expected an odd integer"):
            odd(self.CFG, "n")
        with pytest.raises(ConfigError, match="missing required key 'absent'"):
            odd(self.CFG, "absent")


class TestFieldTables:
    READERS = {"n": get_int, "x": get_float, "mode": get_str}

    def test_read_fields_returns_given_keys_only(self):
        assert read_fields({"n": "3"}, self.READERS, "demo") == {"n": 3}

    def test_read_fields_rejects_unknown_and_missing_required(self):
        with pytest.raises(ConfigError, match=r"demo: unknown config keys \['zeta'\]"):
            read_fields({"zeta": "1"}, self.READERS, "demo")
        with pytest.raises(ConfigError, match="missing required key 'mode'"):
            read_fields({"n": "3"}, self.READERS, "demo", required=("mode",))

    def test_record_round_trip(self):
        class Record:
            n, x = 7, 0.1

        fields = {"n": (get_int, str), "x": (get_float, repr)}
        text = format_fields(Record, fields)
        assert text == "n=7\nx=0.1\n"
        assert parse_fields(text, fields) == {"n": 7, "x": 0.1}
        with pytest.raises(ConfigError, match="missing required key 'x'"):
            parse_fields("n=7\n", fields)
