"""Tests for the passive-DNS database."""

import pytest

from repro.cloud.addressing import str_to_ip
from repro.dns.dnsdb import PassiveDnsDatabase
from repro.dns.zone import ResourceRecord


def _a(rrname, rdata, ttl=300):
    return ResourceRecord(rrname, "A", rdata, ttl)


def _cname(rrname, target, ttl=3600):
    return ResourceRecord(rrname, "CNAME", target, ttl)


@pytest.fixture
def db():
    db = PassiveDnsDatabase()
    # direct A record
    db.ingest([_a("api.vendor.example", "60.0.0.1")], 1000)
    # CNAME chain through a cloud provider
    db.ingest(
        [
            _cname("dev.vendor.example", "dev.compute.cloud.example"),
            _a("dev.compute.cloud.example", "61.0.0.9"),
        ],
        2000,
    )
    # shared CDN address serving two SLDs
    db.ingest(
        [
            _cname("img.vendor.example", "img.vendor.example.edge.cdn.example"),
            _a("img.vendor.example.edge.cdn.example", "62.0.0.5"),
        ],
        3000,
    )
    db.ingest(
        [
            _cname("www.other.example", "www.other.example.edge.cdn.example"),
            _a("www.other.example.edge.cdn.example", "62.0.0.5"),
        ],
        4000,
    )
    return db


class TestIngest:
    def test_tuple_count(self, db):
        assert len(db) == 7

    def test_repeat_observation_updates_window(self, db):
        db.ingest([_a("api.vendor.example", "60.0.0.1")], 9000)
        observations = db.lookup_rrset("api.vendor.example", 0, 10000)
        assert len(observations) == 1
        assert observations[0].first_seen == 1000
        assert observations[0].last_seen == 9000
        assert observations[0].count == 2

    def test_coverage_filter_drops_names(self):
        db = PassiveDnsDatabase(
            coverage_filter=lambda rrname: rrname != "hidden.example"
        )
        db.ingest([_a("hidden.example", "1.2.3.4")], 0)
        db.ingest([_a("seen.example", "1.2.3.5")], 0)
        assert not db.has_records("hidden.example")
        assert db.has_records("seen.example")


class TestForwardQueries:
    def test_direct_addresses(self, db):
        assert db.addresses_for_domain(
            "api.vendor.example", 0, 10000
        ) == {str_to_ip("60.0.0.1")}

    def test_follows_cname_chain(self, db):
        assert db.addresses_for_domain(
            "dev.vendor.example", 0, 10000
        ) == {str_to_ip("61.0.0.9")}

    def test_window_filters_by_time(self, db):
        assert db.addresses_for_domain("api.vendor.example", 0, 500) == (
            set()
        )

    def test_unknown_domain(self, db):
        assert db.addresses_for_domain("ghost.example", 0, 10**6) == set()

    def test_has_records(self, db):
        assert db.has_records("dev.vendor.example")
        assert not db.has_records("ghost.example")

    def test_cname_loop_bounded(self):
        db = PassiveDnsDatabase()
        db.ingest([_cname("a.example", "b.example")], 0)
        db.ingest([_cname("b.example", "a.example")], 0)
        assert db.addresses_for_domain("a.example", 0, 10) == set()


class TestInverseQueries:
    def test_owners_of_address(self, db):
        owners = db.owners_of_address(str_to_ip("62.0.0.5"), 0, 10000)
        assert owners == {
            "img.vendor.example.edge.cdn.example",
            "www.other.example.edge.cdn.example",
        }

    def test_query_names_follow_cnames_backwards(self, db):
        names = db.query_names_for_address(str_to_ip("61.0.0.9"), 0, 10000)
        assert "dev.vendor.example" in names

    def test_slds_for_dedicated_address(self, db):
        assert db.slds_for_address(str_to_ip("60.0.0.1"), 0, 10000) == {
            "vendor.example"
        }

    def test_slds_for_cloud_vm_use_tenant_sld(self, db):
        # The A-record owner is the provider name, but ownership is
        # attributed to the querying tenant domain (§4.2.1 example).
        assert db.slds_for_address(str_to_ip("61.0.0.9"), 0, 10000) == {
            "vendor.example"
        }

    def test_slds_for_shared_cdn_address(self, db):
        slds = db.slds_for_address(str_to_ip("62.0.0.5"), 0, 10000)
        assert slds == {"vendor.example", "other.example"}

    def test_window_restricts_inverse_view(self, db):
        slds = db.slds_for_address(str_to_ip("62.0.0.5"), 0, 3500)
        assert slds == {"vendor.example"}

    def test_an_ingest_after_a_query_is_seen_by_the_next(self, db):
        address = str_to_ip("60.0.0.1")
        first = db.slds_for_address(address, 0, 10000)
        first.add("mutated.example")  # a caller's copy, not the memo
        assert db.slds_for_address(address, 0, 10000) == {"vendor.example"}
        db.ingest([_a("cdn.third.example", "60.0.0.1")], 5000)
        assert db.slds_for_address(address, 0, 10000) == {
            "vendor.example",
            "third.example",
        }
