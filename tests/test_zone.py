"""Tests for TLD zone containers and master-file round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.dnscore.errors import DnsError, ZoneError
from repro.dnscore.zone import Zone


@pytest.fixture()
def zone():
    z = Zone("com", serial=7)
    z.set_delegation("example.com", ["ns1.foo.com", "ns2.foo.com"])
    z.set_glue("ns1.example.com", ["192.0.2.1"])
    return z


class TestDelegations:
    def test_set_and_read(self, zone):
        assert zone.nameservers_of("example.com") == {"ns1.foo.com", "ns2.foo.com"}

    def test_contains(self, zone):
        assert "example.com" in zone
        assert "missing.com" not in zone

    def test_replace_delegation(self, zone):
        zone.set_delegation("example.com", ["ns9.bar.net"])
        assert zone.nameservers_of("example.com") == {"ns9.bar.net"}

    def test_remove_delegation(self, zone):
        zone.remove_delegation("example.com")
        assert "example.com" not in zone

    def test_remove_missing_is_noop(self, zone):
        zone.remove_delegation("missing.com")

    def test_len_counts_domains(self, zone):
        assert len(zone) == 1

    def test_rejects_out_of_zone_domain(self, zone):
        with pytest.raises(ZoneError):
            zone.set_delegation("example.org", ["ns1.foo.com"])

    def test_rejects_deep_delegation(self, zone):
        with pytest.raises(ZoneError):
            zone.set_delegation("www.example.com", ["ns1.foo.com"])

    def test_rejects_empty_ns_set(self, zone):
        with pytest.raises(ZoneError):
            zone.set_delegation("other.com", [])

    def test_case_insensitive(self, zone):
        assert zone.nameservers_of("EXAMPLE.COM") == {"ns1.foo.com", "ns2.foo.com"}


class TestGlue:
    def test_set_and_read(self, zone):
        assert zone.glue_of("ns1.example.com") == {"192.0.2.1"}

    def test_remove(self, zone):
        zone.remove_glue("ns1.example.com")
        assert zone.glue_of("ns1.example.com") == frozenset()

    def test_out_of_bailiwick_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.set_glue("ns1.example.org", ["192.0.2.1"])

    def test_empty_glue_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.set_glue("ns2.example.com", [])

    def test_glue_hosts(self, zone):
        assert zone.glue_hosts() == {"ns1.example.com"}


class TestSerialization:
    def test_round_trip(self, zone):
        parsed = Zone.from_text(zone.to_text())
        assert parsed.origin == "com"
        assert parsed.serial == 7
        assert parsed.nameservers_of("example.com") == zone.nameservers_of("example.com")
        assert parsed.glue_of("ns1.example.com") == zone.glue_of("ns1.example.com")

    def test_text_contains_origin(self, zone):
        assert zone.to_text().startswith("$ORIGIN com.")

    def test_text_contains_soa(self, zone):
        assert " SOA " in zone.to_text()

    def test_from_text_requires_origin(self):
        with pytest.raises(ZoneError):
            Zone.from_text("example.com. 60 IN NS ns1.foo.com\n")

    def test_comments_and_blanks_ignored(self, zone):
        text = zone.to_text() + "\n; a comment\n\n"
        assert Zone.from_text(text).domains() == zone.domains()

    labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10)

    @given(
        st.dictionaries(
            labels,
            st.sets(labels, min_size=1, max_size=3),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip_property(self, table):
        zone = Zone("com")
        for sld, ns_labels in table.items():
            zone.set_delegation(
                f"{sld}.com", {f"ns.{label}.net" for label in ns_labels}
            )
        parsed = Zone.from_text(zone.to_text())
        assert parsed.domains() == zone.domains()
        for domain in zone.domains():
            assert parsed.nameservers_of(domain) == zone.nameservers_of(domain)


class TestRendering:
    """``to_text`` renders stored strings; it must equal the record path."""

    labels = st.text(alphabet="abcXYZ019-_", min_size=1, max_size=8).filter(
        lambda label: not label.startswith("-") and not label.endswith("-")
    )

    @staticmethod
    def _raw(name, upper, dot):
        """Mixed-case, optionally trailing-dot spelling of a name."""
        return (name.upper() if upper else name) + ("." if dot else "")

    @given(
        st.dictionaries(
            labels,
            st.sets(st.tuples(labels, st.booleans(), st.booleans()), min_size=1, max_size=3),
            min_size=1,
            max_size=8,
        ),
        st.dictionaries(
            labels,
            st.sets(st.ip_addresses(v=4).map(str), min_size=1, max_size=3),
            max_size=4,
        ),
        st.booleans(),
        st.integers(min_value=1, max_value=2**31),
    )
    def test_to_text_equals_record_lines(self, table, glue, upper, serial):
        zone = Zone(self._raw("com", upper, True), serial=serial)
        for sld, targets in table.items():
            zone.set_delegation(
                self._raw(f"{sld}.com", upper, not upper),
                [self._raw(f"ns.{label}.net", up, dot) for label, up, dot in targets],
            )
        for host, addresses in glue.items():
            zone.set_glue(self._raw(f"ns1.{host}.com", not upper, upper), addresses)
        expected = (
            f"$ORIGIN {zone.origin}.\n"
            + "\n".join(record.to_line() for record in zone.records())
            + "\n"
        )
        assert zone.to_text() == expected

    def test_invalid_glue_address_still_rejected(self, zone):
        with pytest.raises(DnsError):
            zone.set_glue("ns2.example.com", ["2001:db8::1"])
            zone.to_text()
        assert zone.glue_of("ns2.example.com") == frozenset()

    def test_glue_addresses_stored_canonical(self, zone):
        zone.set_glue("ns2.example.com", [" 192.0.2.9 "])
        assert zone.glue_of("ns2.example.com") == {"192.0.2.9"}


class TestCopyAndRecords:
    def test_copy_is_independent(self, zone):
        clone = zone.copy()
        clone.set_delegation("other.com", ["ns1.foo.com"])
        assert "other.com" not in zone

    def test_records_stream_order(self, zone):
        records = list(zone.records())
        assert records[0].rtype.value == "SOA"
        types = [r.rtype.value for r in records[1:]]
        assert types == sorted(types, key=lambda t: {"NS": 0, "A": 1}[t])

    def test_repr_mentions_counts(self, zone):
        assert "domains=1" in repr(zone)
