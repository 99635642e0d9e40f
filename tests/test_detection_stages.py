"""Unit tests for individual detection stages (§3.2) on synthetic data."""

import pytest

from repro.detection.candidates import CandidateNameserver, build_candidate_set
from repro.detection.matching import OriginalNameserverMatcher
from repro.detection.repository_check import RepositoryMap, SingleRepositoryFilter
from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.detection.substrings import (
    SubstringCounter,
    mine_substrings,
    patterns_matching,
)
from repro.detection.testns import TestNameserverFilter
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase


@pytest.fixture()
def db():
    database = ZoneDatabase(["com", "net", "org", "biz"])
    # A healthy third-party provider (delegated, glue).
    database.set_delegation(0, "provider.net", ["ns1.provider.net"])
    database.set_glue(0, "ns1.provider.net")
    # A healthy client.
    database.set_delegation(0, "healthy.com", ["ns1.provider.net"])
    # A hoster that dies on day 100 with a sacrificial rename.
    database.set_delegation(0, "hoster.com", ["ns1.hoster.com"])
    database.set_glue(0, "ns1.hoster.com")
    database.set_delegation(0, "victim.com", ["ns1.hoster.com"])
    database.set_delegation(100, "victim.com", ["ns1.hosterx7k2q.biz"])
    database.remove_delegation(100, "hoster.com")
    database.remove_glue(100, "ns1.hoster.com")
    return database


class TestResolvability:
    def test_glue_makes_resolvable(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.is_resolvable("ns1.provider.net", 5) is True

    def test_delegated_domain_makes_resolvable(self, db):
        db.set_delegation(0, "other.com", ["dns.provider.net"])
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.is_resolvable("dns.provider.net", 5) is True

    def test_sacrificial_is_unresolvable(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.is_resolvable("ns1.hosterx7k2q.biz", 100) is False

    def test_uncovered_tld_is_unknown(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.is_resolvable("ns1.foreign.nl", 5) is None

    def test_resolvable_intervals_merge_glue_and_presence(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        intervals = analyzer.resolvable_intervals("ns1.hoster.com")
        assert len(intervals) == 1
        assert intervals[0].start == 0 and intervals[0].end == 100

    def test_first_resolvable(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.first_resolvable("ns1.provider.net") == 0
        assert analyzer.first_resolvable("ns1.hosterx7k2q.biz") is None

    def test_unresolvable_at_first_reference(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.unresolvable_at_first_reference("ns1.hosterx7k2q.biz")
        assert analyzer.unresolvable_at_first_reference("ns1.provider.net") is False

    def test_never_referenced_is_none(self, db):
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.unresolvable_at_first_reference("ghost.ns.com") is None

    def test_hijacked_later_still_candidate(self, db):
        """Becoming resolvable later must not hide the candidate."""
        db.set_delegation(150, "hosterx7k2q.biz", ["ns1.parking.nl"])
        analyzer = ResolvabilityAnalyzer(db)
        assert analyzer.unresolvable_at_first_reference("ns1.hosterx7k2q.biz")


class TestCandidateSet:
    def test_contains_sacrificial(self, db):
        names = {c.name for c in build_candidate_set(db)}
        assert "ns1.hosterx7k2q.biz" in names

    def test_excludes_healthy(self, db):
        names = {c.name for c in build_candidate_set(db)}
        assert "ns1.provider.net" not in names
        assert "ns1.hoster.com" not in names

    def test_candidate_carries_witnesses(self, db):
        candidate = next(
            c for c in build_candidate_set(db)
            if c.name == "ns1.hosterx7k2q.biz"
        )
        assert candidate.first_seen == 100
        assert candidate.referencing_domains == ("victim.com",)
        assert candidate.reference_count == 1

    def test_sorted_by_first_seen(self, db):
        db.set_delegation(50, "early.com", ["ns.early-typo.biz"])
        candidates = build_candidate_set(db)
        days = [c.first_seen for c in candidates]
        assert days == sorted(days)


class TestSubstringMiner:
    def test_finds_common_pattern(self):
        names = [f"dropthishost-{i:08d}.biz" for i in range(30)]
        names += [f"ns{i}.random{i}.com" for i in range(10)]
        patterns = mine_substrings(names, min_support=10)
        assert any("dropthishost" in p.substring for p in patterns)

    def test_support_counts_names_not_occurrences(self):
        names = ["ababab.com"] * 3
        patterns = mine_substrings(names, min_length=2, min_support=3, max_length=4)
        ab = [p for p in patterns if p.substring == "abab"]
        assert ab and ab[0].support == 3

    def test_non_maximal_suppressed(self):
        names = [f"pleasedropthishost{i}.x.biz" for i in range(20)]
        patterns = mine_substrings(names, min_support=10)
        texts = [p.substring for p in patterns]
        assert "pleasedropthishost" in texts
        # Shorter fragments with identical support were absorbed.
        assert "leasedropthishost" not in texts

    def test_min_support_filters(self):
        patterns = mine_substrings(["onlyonce.com"], min_support=2)
        assert patterns == []

    def test_patterns_matching_helper(self):
        patterns = mine_substrings(
            [f"dropthishost-{i}.biz" for i in range(10)], min_support=5
        )
        assert patterns_matching(patterns, "dropthishost")

    def test_top_limits_output(self):
        names = [f"verycommonsubstring{i}.biz" for i in range(30)]
        assert len(mine_substrings(names, min_support=2, top=5)) <= 5

    def test_counter_matches_a_plain_loop(self):
        names = ["ABABAB.com", "ababab.com", "ns1.x.biz", "ab.c", "q"]
        counter = SubstringCounter(min_length=2, max_length=4)
        for name in names:
            counter.add(name)
        expected: dict[str, int] = {}
        for name in names:
            lowered = name.lower()
            seen = set()
            for length in range(2, 5):
                for start in range(len(lowered) - length + 1):
                    seen.add(lowered[start:start + length])
            for substring in sorted(seen):
                expected[substring] = expected.get(substring, 0) + 1
        assert dict(counter.counts) == expected
        assert dict(counter.names) == {
            "ababab.com": 2, "ns1.x.biz": 1, "ab.c": 1, "q": 1,
        }
        for name in names:
            counter.discard(name)
        assert not counter.counts and not counter.names


class TestTestNsFilter:
    def test_emt_prefix_detected(self):
        filt = TestNameserverFilter()
        assert filt.is_test_nameserver(
            "emt-ns1.emt-t-407979799-1575645880157-2-u.com"
        )

    def test_normal_names_kept(self):
        filt = TestNameserverFilter()
        assert not filt.is_test_nameserver("ns1.hosterx7k2q.biz")
        assert not filt.is_test_nameserver("dropthishost-abc.biz")

    def test_partition(self):
        filt = TestNameserverFilter()
        candidates = [
            CandidateNameserver("emt-ns1.emt-t-1-2-3-u.com", 0, ()),
            CandidateNameserver("ns1.normal.biz", 0, ()),
        ]
        kept, removed = filt.partition(candidates)
        assert [c.name for c in kept] == ["ns1.normal.biz"]
        assert [c.name for c in removed] == ["emt-ns1.emt-t-1-2-3-u.com"]

    def test_case_insensitive(self):
        filt = TestNameserverFilter()
        assert filt.is_test_nameserver("EMT-NS1.EMT-T-1-2-3-U.COM".lower())


class TestSingleRepositoryFilter:
    def test_cross_repo_violation(self, db):
        db.set_delegation(10, "span1.com", ["ns.shared-typo.biz"])
        db.set_delegation(10, "span2.org", ["ns.shared-typo.biz"])
        filt = SingleRepositoryFilter(db)
        candidate = CandidateNameserver(
            "ns.shared-typo.biz", 10, ("span1.com", "span2.org")
        )
        assert filt.violates(candidate)

    def test_same_repo_ok(self, db):
        filt = SingleRepositoryFilter(db)
        candidate = CandidateNameserver(
            "ns1.hosterx7k2q.biz", 100, ("victim.com",)
        )
        assert not filt.violates(candidate)

    def test_same_tld_violation(self, db):
        db.set_delegation(10, "same1.com", ["ns.sametld-typo.com"])
        filt = SingleRepositoryFilter(db)
        candidate = CandidateNameserver("ns.sametld-typo.com", 10, ("same1.com",))
        assert filt.violates(candidate)

    def test_no_domains_no_violation(self, db):
        filt = SingleRepositoryFilter(db)
        assert not filt.violates(CandidateNameserver("ghost.biz", 0, ()))

    def test_repository_map(self):
        repo_map = RepositoryMap()
        assert repo_map.operator_of("a.com") == "sim-verisign"
        assert repo_map.operator_of("a.gov") == "sim-verisign"
        assert repo_map.operator_of("a.nl") is None
        assert repo_map.repositories_of(["a.com", "b.gov"]) == {"sim-verisign"}
        assert len(repo_map.repositories_of(["a.com", "b.org"])) == 2


class TestOriginalMatcher:
    @pytest.fixture()
    def whois(self):
        archive = WhoisArchive()
        archive.record_registration("hoster.com", "enom", day=0, period_years=1)
        archive.record_deletion("hoster.com", day=100)
        return archive

    def test_match_found(self, db, whois):
        matcher = OriginalNameserverMatcher(db, whois)
        candidate = CandidateNameserver(
            "ns1.hosterx7k2q.biz", 100, ("victim.com",)
        )
        match = matcher.match(candidate)
        assert match is not None
        assert match.original_ns == "ns1.hoster.com"
        assert match.original_domain == "hoster.com"
        assert match.registrar == "enom"
        assert match.sld_suffix == "x7k2q"

    def test_no_match_for_unrelated_name(self, db, whois):
        db.set_delegation(100, "victim.com", ["dropthishost-999.biz"])
        matcher = OriginalNameserverMatcher(db, whois)
        candidate = CandidateNameserver(
            "dropthishost-999.biz", 100, ("victim.com",)
        )
        assert matcher.match(candidate) is None

    def test_requires_day_before_disappearance(self, db, whois):
        """The original must have vanished exactly when the candidate appeared."""
        matcher = OriginalNameserverMatcher(db, whois)
        candidate = CandidateNameserver(
            "ns1.hosterx7k2q.biz", 101, ("victim.com",)
        )
        assert matcher.match(candidate) is None

    def test_short_sld_rejected(self, db, whois):
        db.set_delegation(200, "tiny.com", ["ns1.ab.com"])
        db.set_delegation(201, "tiny.com", ["ns1.abxxxx.biz"])
        matcher = OriginalNameserverMatcher(db, whois)
        candidate = CandidateNameserver("ns1.abxxxx.biz", 201, ("tiny.com",))
        assert matcher.match(candidate) is None

    def test_match_all_partitions(self, db, whois):
        matcher = OriginalNameserverMatcher(db, whois)
        good = CandidateNameserver("ns1.hosterx7k2q.biz", 100, ("victim.com",))
        bad = CandidateNameserver("unrelated.biz", 100, ("victim.com",))
        matches, unmatched = matcher.match_all([good, bad])
        assert [m.candidate for m in matches] == ["ns1.hosterx7k2q.biz"]
        assert [c.name for c in unmatched] == ["unrelated.biz"]
