"""Unit tests for the pure per-record functions (SURVEY §2.2), pinning the
same behaviors the reference's unit suite pins."""

from __future__ import annotations

import pytest

from ctinexus_ray.functions.ioc import detect_iocs
from ctinexus_ray.functions.jsonrescue import JSONRescueError, extract_json_from_response
from ctinexus_ray.functions.text import (
    build_cti_focus_text,
    is_valid_url,
    is_well_formed_cti_paragraph,
    normalize_summary_text,
    normalize_text,
    normalize_url,
    split_type_suffix,
    strip_type_suffix,
)
from ctinexus_ray.functions.validators import (
    filter_valid,
    validate_aligned_triplet,
    validate_ie_triplet,
    validate_preprocessed_triplet,
    validate_typed_triplet,
)


class TestIOC:
    """Mirrors reference tests/unit/test_cti_processor.py:12-63."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Server at 192.168.1.100", "192.168.1.100"),
            ("CVE-2023-1234", "CVE-2023-1234"),
            ("malicious.example.com", "malicious.example.com"),
            ("http://malicious.com/payload", "http://malicious.com/payload"),
            ("attacker@malicious.com", "attacker@malicious.com"),
            ("5d41402abc4b2a76b9719d911017c592", "5d41402abc4b2a76b9719d911017c592"),
            (
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            ("Attack occurred in January 2023", "January 2023"),
            ("version 1.2.3", "version 1.2.3"),
        ],
    )
    def test_single(self, text, expected):
        assert expected in detect_iocs([], text)

    def test_multiple_ips(self):
        iocs = detect_iocs(["10.0.0.1"], "192.168.1.100")
        assert iocs == {"10.0.0.1", "192.168.1.100"}

    def test_normal_text(self):
        assert detect_iocs([], "This is normal text without indicators") == set()

    def test_mixed(self):
        iocs = detect_iocs([], "APT29 at 192.168.1.1 exploited CVE-2023-1234 via malicious.com")
        assert {"192.168.1.1", "CVE-2023-1234", "malicious.com"} <= iocs

    def test_empty(self):
        assert detect_iocs([], "") == set()

    def test_merged(self):
        assert len(detect_iocs(["192.168.1.1", "CVE-2023-1234"], "malicious.com")) == 3


class TestJSONRescue:
    """Mirrors reference tests/unit/test_llm_processor.py:62-148 scenarios."""

    def test_direct(self):
        assert extract_json_from_response('{"triplets": []}') == {"triplets": []}

    def test_fenced(self):
        assert extract_json_from_response('```json\n{"a": 1}\n```') == {"a": 1}

    def test_single_quotes(self):
        assert extract_json_from_response("{'a': 'b'}") == {"a": "b"}

    def test_trailing_comma(self):
        assert extract_json_from_response('{"a": [1, 2,],}') == {"a": [1, 2]}

    def test_unquoted_keys(self):
        assert extract_json_from_response('{a: "b"}') == {"a": "b"}

    def test_chatter_prefix(self):
        assert extract_json_from_response('Sure thing!\n{"a": 1}') == {"a": 1}

    def test_bare_triplet_pattern(self):
        text = "'subject': 'A', 'relation': 'r', 'object': 'B'"
        assert extract_json_from_response(text) == {
            "triplets": [{"subject": "A", "relation": "r", "object": "B"}]
        }

    def test_double_quoted_triplets(self):
        text = '"subject": "A", "relation": "r", "object": "B"'
        assert extract_json_from_response(text)["triplets"][0]["object"] == "B"

    def test_total_failure(self):
        with pytest.raises(JSONRescueError):
            extract_json_from_response("no json here at all")

    def test_dict_passthrough(self):
        assert extract_json_from_response({"a": 1}) == {"a": 1}


class TestNormalizeText:
    def test_boilerplate_and_dedup(self):
        raw = "Subscribe now\nReal CTI line\nreal cti line\nCookie policy\nReal CTI line 2"
        out = normalize_text(raw)
        assert out == "Real CTI line\nReal CTI line 2"

    def test_whitespace_and_zero_width(self):
        assert normalize_text("a​  b\r\nc") == "a b\nc"

    def test_non_string(self):
        assert normalize_text(None) == ""


class TestFocus:
    def test_drops_recommendations_section(self):
        text = "Attack details here\nRecommendations\nbuy our product\nInitial access\nmore detail"
        out = build_cti_focus_text(text)
        assert "buy our product" not in out
        assert "Initial access" in out  # resume header re-enables

    def test_cap_at_word_boundary(self):
        out = build_cti_focus_text("word " * 5000, max_chars=100)
        assert len(out) <= 100
        assert not out.endswith(" ")


class TestSummary:
    def test_normalize(self):
        assert normalize_summary_text("```json\n a  b \n```") == "a b"

    def test_well_formed(self):
        good = ("The campaign targeted healthcare. " * 2 +
                "Attackers used phishing to gain entry. Defenders responded quickly.")
        assert is_well_formed_cti_paragraph(good)
        assert not is_well_formed_cti_paragraph("Too short.")
        assert not is_well_formed_cti_paragraph("Here is a summary. " + good)


class TestUrl:
    def test_normalize(self):
        assert normalize_url("example.com/x") == "https://example.com/x"
        assert normalize_url("http://a.b") == "http://a.b"

    def test_valid(self):
        assert is_valid_url("https://example.com")
        assert not is_valid_url("ftp://example.com")
        assert not is_valid_url("https://bad host.com")


class TestTypeSuffix:
    def test_strip(self):
        assert strip_type_suffix("ShadowStrike (Malware)") == "ShadowStrike"

    def test_split(self):
        assert split_type_suffix("X (Tool)") == ("X", "Tool")
        assert split_type_suffix("plain") == ("plain", None)


class TestValidators:
    def test_ie(self):
        assert validate_ie_triplet({"subject": "a", "relation": "r", "object": "b"})
        assert validate_ie_triplet(
            {"subject": {"text": "a"}, "relation": "r", "object": "b"}
        )
        assert not validate_ie_triplet({"subject": "", "relation": "r", "object": "b"})
        assert not validate_ie_triplet({"subject": "a", "relation": " ", "object": "b"})
        assert not validate_ie_triplet({"subject": "a", "object": "b"})
        assert not validate_ie_triplet("not a dict")

    def test_typed(self):
        ok = {"subject": {"text": "a"}, "relation": "r", "object": {"text": "b"}}
        assert validate_typed_triplet(ok)
        assert not validate_typed_triplet(
            {"subject": "a", "relation": "r", "object": {"text": "b"}}
        )

    def test_preprocessed(self):
        ok = {
            "subject": {"mention_id": 0, "mention_text": "a", "mention_class": "X"},
            "relation": "r",
            "object": {"mention_id": 1, "mention_text": "b", "mention_class": "Y"},
        }
        assert validate_preprocessed_triplet(ok)
        bad = {**ok, "subject": {"mention_text": "a", "mention_class": "X"}}
        assert not validate_preprocessed_triplet(bad)

    def test_aligned(self):
        ok = {
            "subject": {"entity_id": 0, "entity_text": "a"},
            "relation": "r",
            "object": {"entity_id": 1, "mention_text": "b"},
        }
        assert validate_aligned_triplet(ok)

    def test_filter_counts(self):
        kept, dropped = filter_valid(
            [{"subject": "a", "relation": "r", "object": "b"}, {"bad": 1}],
            validate_ie_triplet,
        )
        assert len(kept) == 1 and dropped == 1


class TestUsagePrices:
    def test_every_reference_model_priced(self):
        """DEFAULT_PRICES covers every model id in the reference's
        cost.json with the same per-token prices."""
        import json
        from pathlib import Path

        from ctinexus_ray.functions.usage import DEFAULT_PRICES, calculate_usage

        ref = Path("/root/reference/ctinexus/config/cost.json")
        if not ref.exists():
            import pytest

            pytest.skip("reference cost.json not present")
        want = json.loads(ref.read_text())
        for model, prices in want.items():
            assert model in DEFAULT_PRICES, f"missing price for {model}"
            got_in, got_out = DEFAULT_PRICES[model]
            assert got_in == prices["input"], model
            assert got_out == prices["output"], model
            usage = calculate_usage(model, 1000, 500)
            assert usage["total"]["cost"] == (
                1000 * prices["input"] + 500 * prices["output"]
            )

    def test_unknown_model_prices_zero(self):
        from ctinexus_ray.functions.usage import calculate_usage

        usage = calculate_usage("no-such-model", 10, 10)
        assert usage["total"]["cost"] == 0
        assert usage["total"]["tokens"] == 20


class TestComposeConfig:
    def test_layers_overrides_and_typo_check(self, tmp_path):
        import json

        import pytest

        from ctinexus_ray.config import compose_config

        layer = tmp_path / "layer.json"
        layer.write_text(json.dumps(
            {"shot": 5, "llm_concurrency": [4, 16],
             "extra": {"from_file": 1}}
        ))
        cfg = compose_config(
            {"provider": "openai", "extra": {"base": "a"}},
            str(layer),
            overrides=["temperature=0.3", "extra.api_key=k"],
        )
        assert cfg.provider == "openai" and cfg.shot == 5
        assert cfg.llm_concurrency == (4, 16)  # json list -> tuple field
        assert cfg.temperature == 0.3
        # extras merge across layers and overrides
        assert cfg.extra == {"base": "a", "from_file": 1, "api_key": "k"}
        with pytest.raises(KeyError, match="similarity_threshold"):
            compose_config(overrides=["similarty_threshold=1"])
        with pytest.raises(ValueError, match="key=value"):
            compose_config(overrides=["oops"])
