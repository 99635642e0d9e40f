"""TLD zone containers: delegations, glue, and master-file round-trips.

A :class:`Zone` models what a registry publishes for one TLD: NS record
sets delegating each registered domain, plus in-bailiwick glue addresses.
This is exactly the view the paper's data source (daily TLD zone file
snapshots) exposes, so the zone database consumes these objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.dnscore.errors import ZoneError
from repro.dnscore.names import Name, normalize
from repro.dnscore.records import (
    DEFAULT_TTL,
    ResourceRecord,
    RRType,
    a_record,
    ipv4_text,
    ns_record,
    soa_record,
)


@dataclass(frozen=True, slots=True)
class Delegation:
    """The delegation of one domain: its NS target set within a zone."""

    domain: str
    nameservers: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", Name(self.domain).text)
        object.__setattr__(
            self, "nameservers", frozenset(Name(ns).text for ns in self.nameservers)
        )


class Zone:
    """A mutable TLD zone: delegations plus glue addresses.

    Only direct children of the origin may be delegated (registries do not
    publish deeper cuts in TLD zone files). Glue may be recorded for any
    in-bailiwick host name.
    """

    def __init__(self, origin: str, *, serial: int = 1) -> None:
        self._origin = Name(origin)
        self.serial = serial
        self._delegations: dict[str, set[str]] = {}
        self._glue: dict[str, set[str]] = {}

    @property
    def origin(self) -> str:
        """The zone origin (the TLD), canonical text form."""
        return self._origin.text

    # -- delegations -----------------------------------------------------

    def set_delegation(self, domain: str, nameservers: Iterable[str]) -> None:
        """Install or replace the NS set for ``domain``.

        Raises :class:`ZoneError` if the domain is not a direct child of
        the origin or the NS set is empty.
        """
        name = Name(domain)
        origin_labels = self._origin.labels
        depth = len(origin_labels)
        if len(name) <= depth or name.labels[-depth:] != origin_labels:
            raise ZoneError(f"{name.text!r} is not under zone {self.origin!r}")
        if len(name) != depth + 1:
            raise ZoneError(
                f"{name.text!r} is not a direct child of {self.origin!r}; "
                "TLD zones delegate only at the first level"
            )
        ns_set = {normalize(ns) for ns in nameservers}
        if not ns_set:
            raise ZoneError(f"empty nameserver set for {name.text!r}")
        self._delegations[name.text] = ns_set

    def remove_delegation(self, domain: str) -> None:
        """Drop a domain from the zone; idempotent no-op if absent."""
        self._delegations.pop(Name(domain).text, None)

    def nameservers_of(self, domain: str) -> frozenset[str]:
        """The NS set for ``domain``; empty if not delegated."""
        return frozenset(self._delegations.get(Name(domain).text, ()))

    def delegations(self) -> Iterator[Delegation]:
        """All delegations, in arbitrary order."""
        for domain, ns_set in self._delegations.items():
            yield Delegation(domain, frozenset(ns_set))

    def domains(self) -> frozenset[str]:
        """Every delegated domain name."""
        return frozenset(self._delegations)

    def __contains__(self, domain: str) -> bool:
        return Name(domain).text in self._delegations

    def __len__(self) -> int:
        return len(self._delegations)

    # -- glue ------------------------------------------------------------

    def set_glue(self, host: str, addresses: Iterable[str]) -> None:
        """Install glue A records for an in-bailiwick host name.

        Addresses are validated here, once, and stored canonical; an
        IPv6 address raises :class:`DnsError`, text that is no address
        at all raises :class:`ValueError`.
        """
        name = Name(host)
        if not name.is_strict_subdomain_of(self._origin):
            raise ZoneError(
                f"glue for {name.text!r} is out of bailiwick for {self.origin!r}"
            )
        addrs = {ipv4_text(address) for address in addresses}
        if not addrs:
            raise ZoneError(f"empty glue address set for {name.text!r}")
        self._glue[name.text] = addrs

    def remove_glue(self, host: str) -> None:
        """Drop glue for a host; idempotent no-op if absent."""
        self._glue.pop(Name(host).text, None)

    def glue_of(self, host: str) -> frozenset[str]:
        """Glue addresses for ``host``; empty if none."""
        return frozenset(self._glue.get(Name(host).text, ()))

    def glue_hosts(self) -> frozenset[str]:
        """Every host that has glue in this zone."""
        return frozenset(self._glue)

    # -- records / serialization ------------------------------------------

    def _soa(self) -> ResourceRecord:
        return soa_record(
            self.origin,
            f"a.nic.{self.origin}",
            f"hostmaster.nic.{self.origin}",
            self.serial,
        )

    def records(self) -> Iterator[ResourceRecord]:
        """Stream the zone as resource records (SOA, NS, then glue A)."""
        yield self._soa()
        for domain in sorted(self._delegations):
            for ns in sorted(self._delegations[domain]):
                yield ns_record(domain, ns, DEFAULT_TTL)
        for host in sorted(self._glue):
            for addr in sorted(self._glue[host]):
                yield a_record(host, addr, DEFAULT_TTL)

    def to_text(self) -> str:
        """Serialize to a master-file-like text form.

        Renders straight from the zone's stored strings, which
        :meth:`set_delegation` and :meth:`set_glue` already validated and
        canonicalized, so no record is rebuilt; the output equals the
        :meth:`records` lines under an ``$ORIGIN`` header.
        """
        lines = [f"$ORIGIN {self.origin}.", self._soa().to_line()]
        for domain in sorted(self._delegations):
            owner = f"{domain}. {DEFAULT_TTL} IN NS "
            lines.extend(owner + ns for ns in sorted(self._delegations[domain]))
        for host in sorted(self._glue):
            owner = f"{host}. {DEFAULT_TTL} IN A "
            lines.extend(owner + addr for addr in sorted(self._glue[host]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Zone":
        """Parse a zone previously produced by :meth:`to_text`."""
        origin: str | None = None
        serial = 1
        delegations: dict[str, set[str]] = {}
        glue: dict[str, set[str]] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            if line.startswith("$ORIGIN"):
                origin = line.split()[1].rstrip(".")
                continue
            record = ResourceRecord.from_line(line)
            if record.rtype is RRType.SOA:
                serial = int(record.rdata.split()[2])
            elif record.rtype is RRType.NS:
                delegations.setdefault(record.name, set()).add(record.rdata)
            elif record.rtype is RRType.A:
                glue.setdefault(record.name, set()).add(record.rdata)
        if origin is None:
            raise ZoneError("zone text missing $ORIGIN line")
        zone = cls(origin, serial=serial)
        for domain, ns_set in delegations.items():
            zone.set_delegation(domain, ns_set)
        for host, addrs in glue.items():
            zone.set_glue(host, addrs)
        return zone

    def copy(self) -> "Zone":
        """An independent deep copy of this zone."""
        clone = Zone(self.origin, serial=self.serial)
        clone._delegations = {d: set(ns) for d, ns in self._delegations.items()}
        clone._glue = {h: set(a) for h, a in self._glue.items()}
        return clone

    def __repr__(self) -> str:
        return (
            f"Zone(origin={self.origin!r}, domains={len(self._delegations)}, "
            f"glue={len(self._glue)})"
        )
