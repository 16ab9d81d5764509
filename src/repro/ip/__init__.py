"""IP substrate: packets, checksums, longest-prefix-match lookup.

The router forwards real IPv4 packets: :mod:`repro.ip.packet` builds and
parses headers word-by-word (the unit the Raw static network moves),
:mod:`repro.ip.checksum` implements the Internet checksum with the
incremental-update rule used when decrementing TTL (RFC 1141),
:mod:`repro.ip.trie` is a Patricia/radix tree for longest-prefix match
(the thesis cites Morrison's PATRICIA as the traditional structure), and
:mod:`repro.ip.lookup` layers routing tables on top, including the
Degermark et al. "small forwarding tables" compression the thesis points
to for core-router lookups (section 8.2).
"""

from repro.ip.addr import ip_to_int, int_to_ip, Prefix, random_prefixes
from repro.ip.checksum import internet_checksum, incremental_update, verify_checksum
from repro.ip.packet import IPv4Packet, HEADER_WORDS_IPV4
from repro.ip.trie import PatriciaTrie
from repro.ip.lookup import RoutingTable, CompressedTable, LookupCostModel
from repro.ip.nblookup import LookupEngine, LookupEngineResult

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "Prefix",
    "random_prefixes",
    "internet_checksum",
    "incremental_update",
    "verify_checksum",
    "IPv4Packet",
    "HEADER_WORDS_IPV4",
    "PatriciaTrie",
    "RoutingTable",
    "CompressedTable",
    "LookupCostModel",
    "LookupEngine",
    "LookupEngineResult",
]
