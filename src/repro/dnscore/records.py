"""DNS resource records.

Only the record types the study needs are modeled: delegations (NS), glue
addresses (A/AAAA), and zone apex bookkeeping (SOA). Records are immutable
value objects that serialize to and parse from a master-file-like
presentation format, which the zone archive uses for round-tripping.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from repro.dnscore.errors import DnsError
from repro.dnscore.names import Name


class RRType(str, Enum):
    """Resource record types used by the simulation."""

    NS = "NS"
    A = "A"
    AAAA = "AAAA"
    SOA = "SOA"
    CNAME = "CNAME"
    TXT = "TXT"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


DEFAULT_TTL = 86400


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One DNS resource record in presentation form.

    ``name`` is the owner name; ``rdata`` is the type-specific payload as
    canonical text (a target name for NS/CNAME, an address for A/AAAA, the
    full RDATA string for SOA/TXT).
    """

    name: str
    rtype: RRType
    rdata: str
    ttl: int = DEFAULT_TTL

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", Name(self.name).text)
        if self.ttl < 0:
            raise DnsError(f"negative TTL: {self.ttl}")
        rdata = self.rdata.strip()
        if self.rtype in (RRType.NS, RRType.CNAME):
            rdata = Name(rdata).text
        elif self.rtype is RRType.A:
            rdata = ipv4_text(rdata)
        elif self.rtype is RRType.AAAA:
            addr = ipaddress.ip_address(rdata)
            if addr.version != 6:
                raise DnsError(f"AAAA record with non-IPv6 rdata: {rdata!r}")
            rdata = str(addr)
        object.__setattr__(self, "rdata", rdata)

    def to_line(self) -> str:
        """Master-file presentation: ``name ttl IN type rdata``."""
        return f"{self.name}. {self.ttl} IN {self.rtype.value} {self.rdata}"

    @classmethod
    def from_line(cls, line: str) -> "ResourceRecord":
        """Parse a record from the presentation produced by :meth:`to_line`."""
        parts = line.split(None, 4)
        if len(parts) != 5:
            raise DnsError(f"malformed record line: {line!r}")
        name, ttl_text, klass, rtype_text, rdata = parts
        if klass.upper() != "IN":
            raise DnsError(f"unsupported class {klass!r} in line: {line!r}")
        try:
            ttl = int(ttl_text)
        except ValueError as exc:
            raise DnsError(f"bad TTL in line: {line!r}") from exc
        try:
            rtype = RRType(rtype_text.upper())
        except ValueError as exc:
            raise DnsError(f"unsupported type {rtype_text!r}") from exc
        if rtype in (RRType.NS, RRType.CNAME):
            rdata = rdata.rstrip(".")
        return cls(name=name.rstrip("."), rtype=rtype, rdata=rdata, ttl=ttl)


@dataclass(frozen=True, slots=True)
class RRSet:
    """All records sharing an owner name and type."""

    name: str
    rtype: RRType
    records: tuple[ResourceRecord, ...] = field(default_factory=tuple)

    def rdatas(self) -> tuple[str, ...]:
        """The payloads of the set, in insertion order."""
        return tuple(r.rdata for r in self.records)

    def __len__(self) -> int:
        return len(self.records)


@lru_cache(maxsize=4096)
def ipv4_text(address: str) -> str:
    """Canonical text of an IPv4 address (A rdata), memoised per address.

    Raises :class:`DnsError` for an IPv6 address and :class:`ValueError`
    for text that is no address at all.
    """
    addr = ipaddress.ip_address(address.strip())
    if addr.version != 4:
        raise DnsError(f"A record with non-IPv4 rdata: {address.strip()!r}")
    return str(addr)


def ns_record(owner: str, target: str, ttl: int = DEFAULT_TTL) -> ResourceRecord:
    """Convenience constructor for an NS record."""
    return ResourceRecord(owner, RRType.NS, target, ttl)


def a_record(owner: str, address: str, ttl: int = DEFAULT_TTL) -> ResourceRecord:
    """Convenience constructor for an A record."""
    return ResourceRecord(owner, RRType.A, address, ttl)


def soa_record(zone: str, mname: str, rname: str, serial: int) -> ResourceRecord:
    """Convenience constructor for a zone apex SOA record."""
    rdata = f"{Name(mname).text}. {Name(rname).text}. {serial} 7200 3600 1209600 3600"
    return ResourceRecord(zone, RRType.SOA, rdata)
