"""Strict flat key/value config parsing."""

import pytest

from embmask.config import Field, build_config, load_config, parse_grid, parse_hidden, parse_kv_text
from embmask.errors import ConfigError

SCHEMA = {
    "seed": Field(int, required=True),
    "train.lr": Field(float, 1e-3),
    "train.verbose": Field(bool, False),
    "out": Field(str, "runs"),
}


def test_parse_happy_path_with_comments():
    raw = parse_kv_text("# comment\nseed = 3\n\ntrain.lr = 0.5  # inline\n")
    assert raw["seed"] == ("3", 2)
    assert raw["train.lr"] == ("0.5", 4)


def test_parse_missing_equals_reports_line_and_col():
    with pytest.raises(ConfigError) as exc:
        parse_kv_text("seed = 1\n   badline\n")
    assert "line 2" in str(exc.value) and "col 4" in str(exc.value)


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_kv_text("seed = 1\nseed = 2\n")
    assert "duplicate" in str(exc.value)


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        build_config(SCHEMA, parse_kv_text("seed = 1\ntrain.lrr = 2\n"))
    assert "train.lrr" in str(exc.value) and "2" in str(exc.value)


def test_missing_required_key():
    with pytest.raises(ConfigError) as exc:
        build_config(SCHEMA, parse_kv_text("train.lr = 0.1\n"))
    assert "seed" in str(exc.value)


def test_defaults_and_coercion():
    cfg = build_config(SCHEMA, parse_kv_text("seed = 7\ntrain.verbose = yes\n"))
    assert cfg == {"seed": 7, "train.lr": 1e-3, "train.verbose": True, "out": "runs"}


@pytest.mark.parametrize("raw,expected", [("true", True), ("1", True), ("no", False), ("0", False)])
def test_bool_coercion_variants(raw, expected):
    cfg = build_config(SCHEMA, parse_kv_text(f"seed = 1\ntrain.verbose = {raw}\n"))
    assert cfg["train.verbose"] is expected


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError) as exc:
        build_config(SCHEMA, parse_kv_text("seed = 1\ntrain.lr = fast\n"))
    assert "train.lr" in str(exc.value) and "line 2" in str(exc.value)


def test_overrides_win_and_are_validated():
    cfg = build_config(SCHEMA, parse_kv_text("seed = 1\n"), {"train.lr": "0.25"})
    assert cfg["train.lr"] == 0.25
    with pytest.raises(ConfigError):
        build_config(SCHEMA, parse_kv_text("seed = 1\n"), {"nope": "1"})


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.txt", SCHEMA)


def test_load_config_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"seed = 1\nout = r\xffns\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path), SCHEMA)
    assert str(path) in str(exc.value) and "UTF-8" in str(exc.value)


def test_parse_grid_and_hidden():
    assert parse_grid("0,5,10") == [0.0, 5.0, 10.0]
    # "-0" is the zero, so the sweep table never prints "-0".
    assert [f"{p:.17g}" for p in parse_grid("-0,5")] == ["0", "5"]
    with pytest.raises(ConfigError):
        parse_grid("0,x")
    assert parse_hidden("") == []
    assert parse_hidden("64,32") == [64, 32]
    with pytest.raises(ConfigError):
        parse_hidden("64,a")
