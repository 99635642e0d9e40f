"""Unit and property tests for domain-name handling."""

import pytest
from hypothesis import given, strategies as st

from repro.dnscore.errors import NameError_
from repro.dnscore.names import (
    Name,
    common_suffix_depth,
    is_valid,
    normalize,
    sorted_names,
)

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
name_strategy = st.lists(label, min_size=1, max_size=5).map(".".join)


class TestNormalization:
    def test_lowercases(self):
        assert Name("NS1.Example.COM").text == "ns1.example.com"

    def test_strips_trailing_dot(self):
        assert Name("example.com.").text == "example.com"

    def test_strips_whitespace(self):
        assert Name("  example.com ").text == "example.com"

    def test_labels_split(self):
        assert Name("a.b.c").labels == ("a", "b", "c")

    def test_tld(self):
        assert Name("ns1.example.com").tld == "com"

    @given(name_strategy)
    def test_idempotent(self, raw):
        assert Name(Name(raw).text).text == Name(raw).text

    def test_name_from_name_is_identity(self):
        name = Name("example.com")
        assert Name(name) == name


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(NameError_):
            Name("")

    def test_rejects_empty_label(self):
        with pytest.raises(NameError_):
            Name("a..b")

    def test_rejects_long_label(self):
        with pytest.raises(NameError_):
            Name("a" * 64 + ".com")

    def test_accepts_63_char_label(self):
        assert Name("a" * 63 + ".com")

    def test_rejects_overlong_name(self):
        with pytest.raises(NameError_):
            Name(".".join(["a" * 60] * 5))

    def test_rejects_leading_hyphen_label(self):
        with pytest.raises(NameError_):
            Name("-bad.com")

    def test_rejects_trailing_hyphen_label(self):
        with pytest.raises(NameError_):
            Name("bad-.com")

    def test_interior_hyphen_ok(self):
        assert Name("drop-this.com").text == "drop-this.com"

    def test_underscore_allowed_by_default(self):
        assert Name("_dmarc.example.com")

    def test_underscore_rejected_in_strict_mode(self):
        with pytest.raises(NameError_):
            Name("_dmarc.example.com", strict=True)

    def test_is_valid_helper(self):
        assert is_valid("example.com")
        assert not is_valid("")
        assert not is_valid("a..b")


class TestRelations:
    def test_parent(self):
        assert Name("ns1.example.com").parent() == Name("example.com")

    def test_parent_of_tld_raises(self):
        with pytest.raises(NameError_):
            Name("com").parent()

    def test_is_subdomain_of_self(self):
        assert Name("example.com").is_subdomain_of("example.com")

    def test_is_subdomain_of_parent(self):
        assert Name("a.example.com").is_subdomain_of("example.com")

    def test_not_subdomain_of_sibling(self):
        assert not Name("a.example.com").is_subdomain_of("other.com")

    def test_label_boundary_respected(self):
        assert not Name("notexample.com").is_subdomain_of("example.com")

    def test_strict_subdomain_excludes_self(self):
        assert not Name("example.com").is_strict_subdomain_of("example.com")
        assert Name("a.example.com").is_strict_subdomain_of("example.com")

    def test_relativize(self):
        assert Name("www.example.com").relativize("example.com") == "www"

    def test_relativize_self_is_at(self):
        assert Name("example.com").relativize("example.com") == "@"

    def test_relativize_outside_raises(self):
        with pytest.raises(NameError_):
            Name("other.org").relativize("example.com")

    def test_with_tld(self):
        assert Name("ns1.foo.com").with_tld("biz").text == "ns1.foo.biz"

    def test_common_suffix_depth(self):
        assert common_suffix_depth("ns1.foo.com", "ns2.foo.com") == 2
        assert common_suffix_depth("a.com", "b.org") == 0


class TestEqualityAndOrdering:
    def test_equal_to_string(self):
        assert Name("Example.COM") == "example.com"

    def test_hash_matches_text(self):
        assert hash(Name("example.com")) == hash("example.com")

    def test_usable_as_dict_key(self):
        table = {Name("example.com"): 1}
        assert table[Name("EXAMPLE.com")] == 1

    def test_sorted_names_canonical_order(self):
        result = [n.text for n in sorted_names(["b.com", "a.org", "a.com"])]
        assert result == ["a.com", "b.com", "a.org"]

    def test_len_is_label_count(self):
        assert len(Name("a.b.c")) == 3

    def test_repr_contains_text(self):
        assert "example.com" in repr(Name("example.com"))


class TestNormalizeCache:
    def test_normalize_matches_name(self):
        assert normalize("FOO.Com") == "foo.com"

    @given(name_strategy)
    def test_normalize_agrees_with_name(self, raw):
        assert normalize(raw) == Name(raw).text

    def test_normalize_accepts_a_name(self):
        assert normalize(Name("FOO.Com")) == "foo.com"

    def test_normalize_rejects_what_name_rejects(self):
        with pytest.raises(NameError_) as from_name:
            Name("bad..name")
        with pytest.raises(NameError_) as from_normalize:
            normalize("bad..name")
        assert str(from_normalize.value) == str(from_name.value)


class TestParseMemo:
    """The parse memo keeps every check: errors recur, modes never mix."""

    @pytest.mark.parametrize("raw", ["", "a..b", "-bad.com", "x" * 64 + ".com"])
    def test_invalid_name_raises_on_every_construction(self, raw):
        with pytest.raises(NameError_) as first:
            Name(raw)
        with pytest.raises(NameError_) as second:
            Name(raw)
        assert str(second.value) == str(first.value)

    def test_lax_then_strict(self):
        assert Name("lax_first.com").text == "lax_first.com"
        with pytest.raises(NameError_):
            Name("lax_first.com", strict=True)

    def test_strict_then_lax(self):
        with pytest.raises(NameError_):
            Name("strict_first.com", strict=True)
        assert Name("strict_first.com").text == "strict_first.com"
        with pytest.raises(NameError_):
            Name("strict_first.com", strict=True)
