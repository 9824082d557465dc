"""Property-based suites over the core data structures and invariants.

These complement the per-module tests with randomised checks of the
relationships the methodology relies on:

* evidence monotonicity: more evidence never loses a detection;
* threshold monotonicity: a stricter D never detects more;
* cumulative vs whole-set consistency: the classes the cumulative
  detector reports are exactly those the whole evidence set satisfies;
* passive-DNS forward/inverse consistency;
* collector conservation: packets in == packets across exported flows.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rules import DetectionRule, RuleSet
from repro.devices.catalog import LEVEL_PRODUCT
from repro.dns.dnsdb import PassiveDnsDatabase
from repro.dns.zone import ResourceRecord
from repro.netflow.collector import FlowCollector
from repro.netflow.records import PacketRecord, PROTO_TCP
from repro.netflow.sampler import PacketSampler

# ---------------------------------------------------------------------------
# rules


_domains = st.lists(
    st.sampled_from([f"d{i}.v.example" for i in range(12)]),
    min_size=1,
    max_size=12,
    unique=True,
)


@st.composite
def _rule_and_evidence(draw):
    domains = tuple(draw(_domains))
    critical_count = draw(
        st.integers(min_value=0, max_value=min(2, len(domains)))
    )
    rule = DetectionRule(
        class_name="c",
        level=LEVEL_PRODUCT,
        domains=domains,
        critical=domains[:critical_count],
    )
    evidence = draw(
        st.sets(st.sampled_from(list(domains) + ["x.other.example"]))
    )
    return rule, evidence


class TestRuleProperties:
    @given(_rule_and_evidence(), st.floats(0.05, 1.0))
    def test_evidence_monotonicity(self, rule_and_evidence, threshold):
        rule, evidence = rule_and_evidence
        if rule.satisfied(evidence, threshold):
            for extra in rule.domains:
                assert rule.satisfied(evidence | {extra}, threshold)

    @given(_rule_and_evidence())
    def test_threshold_monotonicity(self, rule_and_evidence):
        rule, evidence = rule_and_evidence
        satisfied = [
            rule.satisfied(evidence, step / 10) for step in range(1, 11)
        ]
        # Once unsatisfied at some threshold, never satisfied above it.
        for low, high in zip(satisfied, satisfied[1:]):
            assert low or not high

    @given(_rule_and_evidence(), st.floats(0.05, 1.0))
    def test_satisfaction_implies_critical_seen(
        self, rule_and_evidence, threshold
    ):
        rule, evidence = rule_and_evidence
        if rule.satisfied(evidence, threshold):
            assert set(rule.critical) <= evidence

    @given(_rule_and_evidence(), st.floats(0.05, 1.0))
    def test_full_evidence_always_satisfies(
        self, rule_and_evidence, threshold
    ):
        rule, _ = rule_and_evidence
        assert rule.satisfied(set(rule.domains), threshold)


class TestRuleSetProperties:
    @given(
        st.sets(st.sampled_from(["r1", "m1", "m2", "l1", "l2"])),
        st.floats(0.05, 1.0),
    )
    def test_child_detection_implies_ancestors(self, seen, threshold):
        rules = RuleSet(
            [
                DetectionRule("root", LEVEL_PRODUCT, ("r1",)),
                DetectionRule(
                    "mid", LEVEL_PRODUCT, ("m1", "m2"), parent="root"
                ),
                DetectionRule(
                    "leaf", LEVEL_PRODUCT, ("l1", "l2"), parent="mid"
                ),
            ]
        )
        detected = rules.detected_classes(seen, threshold)
        if "leaf" in detected:
            assert {"mid", "root"} <= detected
        if "mid" in detected:
            assert "root" in detected


# ---------------------------------------------------------------------------
# detectors


class TestDetectorConsistency:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_cumulative_classes_match_the_evidence_set(
        self, rules, hitlist, seed
    ):
        """The (subscriber, class) pairs the cumulative detector
        reports are exactly the classes whose rule and ancestors' rules
        the subscriber's whole evidence set satisfies, however the
        evidence is spread over time."""
        from repro.core.detector import FlowDetector, anonymize_subscriber
        from repro.timeutil import SECONDS_PER_DAY, STUDY_START

        rng = np.random.default_rng(seed)
        domains = sorted(hitlist.domain_classes)
        cumulative = FlowDetector(rules, hitlist, threshold=0.4)
        seen = {}
        for _ in range(60):
            subscriber = int(rng.integers(0, 3))
            fqdn = domains[int(rng.integers(0, len(domains)))]
            when = STUDY_START + int(
                rng.integers(0, 3 * SECONDS_PER_DAY)
            )
            cumulative.observe_evidence(subscriber, fqdn, when)
            seen.setdefault(anonymize_subscriber(subscriber), set()).add(
                fqdn
            )
        assert {
            (d.subscriber, d.class_name) for d in cumulative.detections()
        } == {
            (subscriber, class_name)
            for subscriber, evidence in seen.items()
            for class_name in rules.detected_classes(evidence, 0.4)
        }


# ---------------------------------------------------------------------------
# passive DNS


_names = st.sampled_from(
    [f"n{i}.sld{i % 3}.example" for i in range(9)]
)
_addresses = st.sampled_from([f"9.9.9.{i}" for i in range(6)])


class TestPassiveDnsProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(_names, _addresses, st.integers(0, 10_000)),
            min_size=1,
            max_size=40,
        )
    )
    def test_forward_inverse_consistency(self, observations):
        from repro.cloud.addressing import str_to_ip

        db = PassiveDnsDatabase()
        for rrname, rdata, when in observations:
            db.ingest([ResourceRecord(rrname, "A", rdata, 300)], when)
        for rrname, rdata, when in observations:
            addresses = db.addresses_for_domain(rrname, 0, 10_000)
            assert str_to_ip(rdata) in addresses
            owners = db.owners_of_address(str_to_ip(rdata), 0, 10_000)
            assert rrname in owners

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(_names, _addresses, st.integers(0, 10_000)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    def test_window_shrinking_never_adds(self, observations, lo, hi):
        db = PassiveDnsDatabase()
        for rrname, rdata, when in observations:
            db.ingest([ResourceRecord(rrname, "A", rdata, 300)], when)
        start, end = min(lo, hi), max(lo, hi)
        for rrname, _, _ in observations:
            narrow = db.addresses_for_domain(rrname, start, end)
            wide = db.addresses_for_domain(rrname, 0, 10_000)
            assert narrow <= wide


# ---------------------------------------------------------------------------
# sampling and collection


class TestPipelineConservation:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 400),
        st.integers(1, 20),
        st.integers(0, 2**31),
    )
    def test_collector_conserves_sampled_packets(
        self, packet_count, interval, seed
    ):
        sampler = PacketSampler(interval, seed=seed)
        collector = FlowCollector(sampling_interval=interval)
        kept = 0
        for index in range(packet_count):
            packet = PacketRecord(
                timestamp=index,
                src_ip=1,
                dst_ip=2 + index % 3,
                protocol=PROTO_TCP,
                src_port=1000,
                dst_port=443,
            )
            if sampler.sample(packet):
                collector.observe(packet)
                kept += 1
        collector.flush()
        flows = collector.drain()
        assert sum(flow.packets for flow in flows) == kept
        assert all(flow.packets > 0 for flow in flows)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 2**31))
    def test_deterministic_sampler_rate_exact_over_multiples(
        self, interval, seed
    ):
        sampler = PacketSampler(
            interval, mode="deterministic", seed=seed
        )
        total = interval * 20
        kept = sum(
            sampler.sample(
                PacketRecord(ts, 1, 2, PROTO_TCP, 1000, 443)
            )
            for ts in range(total)
        )
        assert kept == 20


# ---------------------------------------------------------------------------
# decode parity fuzz: ColumnarDecodeStage vs the per-line parser


def _random_flow_line(rng) -> str:
    """One random line: valid, oddly spelled, or deliberately broken.

    About one line in eight makes the byte kernel decline its block, so
    at small chunk sizes both decoders see plenty of blocks and a
    declined block usually owes it to a single line.
    """
    boundary_ip = ("0.0.0.0", "255.255.255.255", "10.0.0.1", "8.8.8.8")
    roll = rng.random()
    if roll < 0.03:
        return rng.choice(("", "   ", "# comment noise", "#"))
    if roll < 0.06:
        # wrong field count -> malformed_line
        fields = rng.randrange(1, 15)
        if fields == 10:
            fields = 3
        return ",".join(str(rng.randrange(100)) for _ in range(fields))
    when = rng.choice((0, 1, 1573776000, 2**31, rng.randrange(2**31)))
    src = rng.choice(boundary_ip + (f"10.{rng.randrange(256)}.0.7",))
    dst = rng.choice(boundary_ip + (f"192.0.{rng.randrange(256)}.9",))
    proto = rng.choice((0, 6, 6, 17, 255))
    sport = rng.choice((0, 65535, rng.randrange(65536)))
    dport = rng.choice((0, 65535, 53, 443, rng.randrange(65536)))
    flags = rng.choice(("0x0", "0x02", "0x10", "0x12", "0xff"))
    parts = [
        str(when), str(when + 30), src, dst, str(proto),
        str(sport), str(dport), "3", "300", flags,
    ]
    if roll < 0.13:
        # break exactly one field in a well-formed line, or spell it in
        # a way int() takes and a digit kernel could misread
        column, value = rng.choice(
            (
                (0, "-5"),              # negative_timestamp
                (0, "soon"),            # unparseable_field
                (2, "256.1.2.3"),       # octet out of range
                (2, "1.2.3"),           # truncated quad
                (3, "a.b.c.d"),         # non-numeric quad
                (4, "300"),             # bad_protocol
                (4, "x"),               # unparseable_field
                (5, "notaport"),        # unparseable sport
                (6, "99999"),           # bad_port
                (6, "1.5"),             # float port
                (9, "0x100"),           # bad_flags
                (9, "zz"),              # unparseable flags
                (0, ""),                # empty field
                (3, "1.2..4"),          # empty octet
                (6, "5\r6"),            # a lone CR: a line break in a
                                        # file, junk in a text stream
                (0, "+5"),
                (0, " 5"),
                (6, "5 "),
                (9, "0x10 "),
                (6, "1_000"),
                (9, "0X1B"),
                (9, "1b"),              # no prefix
                (9, "0x_1"),
                (0, "1234567890123456789"),         # 19, inside int64
                (0, "9999999999999999999"),         # 19, outside
                (0, "99999999999999999999999"),     # 23
                (4, "99999999999999999999999"),
                (6, "99999999999999999999999"),
                (3, "0000000000000000010.0.0.1"),
            )
        )
        parts[column] = value
    elif roll < 0.30:
        # odd spellings the kernel may keep
        column, value = rng.choice(
            (
                (9, "0x1"),             # one hex digit
                (9, "0xAb"),
                (4, "007"),             # leading zeros
                (6, "00443"),
                (2, "010.0.0.1"),
                (3, "0010.0.0.1"),
                (0, "123456789012345678"),          # 18 digits
                (0, "000000000000000042"),
                (1, "later"),           # an ignored column: anything goes
                (7, ""),
            )
        )
        parts[column] = value
    return ",".join(parts)


def _fuzz_corpus(seed: int, size: int = 800):
    """``size`` random lines as one text: mixed ``\\n``/``\\r\\n``
    endings, and about half the seeds end without a final newline."""
    import random as random_module

    rng = random_module.Random(seed)
    lines = [_random_flow_line(rng) for _ in range(size)]
    text = "".join(
        line + ("\r\n" if rng.random() < 0.02 else "\n") for line in lines
    )
    if rng.random() < 0.5:
        text += "1573776000,1573776030,10.0.0.1,8.8.8.8,6,1,443,3,300,0x12"
    return text


#: Both source shapes ``iter_chunks`` takes, each compared with the
#: oracle's ``read_tuples`` over the same shape (a file is read with
#: universal newlines, a text stream is not).
SOURCE_SHAPES = ("path", "stream")


def _source(shape: str, text: str, tmp_path):
    import io

    if shape == "stream":
        return io.StringIO(text)
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode("ascii"))
    return path


#: The decoder's read sizes the fuzz runs at: most reads end mid-line /
#: a block is about ten lines, a fair share of them clean, so both
#: decoders get work / the production value, one block per corpus.
BLOCK_BYTES = (64, 600, 1 << 18)


def _chunk_tuples(source, chunk_size: int, quarantine=None, block_bytes=None):
    from unittest import mock

    from repro.netflow import parse

    decoded = []
    stage = parse.ColumnarDecodeStage(
        chunk_size, parser=parse.FlowLineParser(), quarantine=quarantine
    )
    with mock.patch.object(
        parse, "_BLOCK_BYTES", block_bytes or parse._BLOCK_BYTES
    ):
        for chunk in stage.iter_chunks(source):
            assert len(chunk) <= chunk_size
            decoded.extend(
                zip(
                    chunk.first.tolist(), chunk.src.tolist(),
                    chunk.dst.tolist(), chunk.proto.tolist(),
                    chunk.dport.tolist(), chunk.flags.tolist(),
                )
            )
    return decoded


class TestDecodeFuzzParity:
    """Differential fuzz: the vectorized decoder must be
    indistinguishable from the per-line parser on any input — same
    tuples, same quarantine reasons, same error messages — from a file
    and from a text stream, wherever reads and chunks happen to cut."""

    SEEDS = (1, 7, 13, 99, 12345)
    CHUNK_SIZES = (7, 64, 4096)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tuples_and_quarantine_reasons_identical(self, seed, tmp_path):
        from repro.netflow.parse import FlowLineParser
        from tests.reference_fold import read_tuples
        from repro.resilience.quarantine import QuarantineSink

        text = _fuzz_corpus(seed)
        for shape in SOURCE_SHAPES:
            scalar_sink = QuarantineSink()
            scalar = list(
                read_tuples(
                    _source(shape, text, tmp_path),
                    quarantine=scalar_sink,
                    parser=FlowLineParser(),
                )
            )
            assert scalar  # the corpus always has surviving records
            assert scalar_sink.counts  # ... and quarantined ones
            for block_bytes, chunk_size in itertools.product(
                BLOCK_BYTES, self.CHUNK_SIZES
            ):
                columnar_sink = QuarantineSink()
                columnar = _chunk_tuples(
                    _source(shape, text, tmp_path),
                    chunk_size,
                    quarantine=columnar_sink,
                    block_bytes=block_bytes,
                )
                assert columnar == scalar
                assert columnar_sink.counts == scalar_sink.counts

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_error_message_identical(self, seed, tmp_path):
        from repro.netflow.parse import FlowLineParser
        from tests.reference_fold import read_tuples

        text = _fuzz_corpus(seed, size=120)
        for shape in SOURCE_SHAPES:
            try:
                list(
                    read_tuples(
                        _source(shape, text, tmp_path),
                        parser=FlowLineParser(),
                    )
                )
                scalar_error = None
            except ValueError as error:
                scalar_error = str(error)
            assert scalar_error is not None  # corpora always contain junk
            for block_bytes, chunk_size in itertools.product(
                BLOCK_BYTES, self.CHUNK_SIZES
            ):
                with pytest.raises(ValueError) as caught:
                    _chunk_tuples(
                        _source(shape, text, tmp_path),
                        chunk_size,
                        block_bytes=block_bytes,
                    )
                assert str(caught.value) == scalar_error

    @pytest.mark.parametrize("shape", SOURCE_SHAPES)
    def test_fuzz_reaches_both_decoders(self, shape, tmp_path, monkeypatch):
        """The corpus is only a differential test of the byte kernel
        if some blocks take it and some are declined."""
        from repro.netflow import parse
        from repro.resilience.quarantine import QuarantineSink

        taken = {"kernel": 0, "lines": 0}
        kernel = parse._decode_bytes

        def counting(data, strict):
            columns = kernel(data, strict)
            taken["kernel" if columns is not None else "lines"] += 1
            return columns

        monkeypatch.setattr(parse, "_decode_bytes", counting)
        text = _fuzz_corpus(self.SEEDS[0])
        _chunk_tuples(
            _source(shape, text, tmp_path), 64, QuarantineSink(), 600
        )
        assert taken["kernel"] > 10 and taken["lines"] > 10

    def test_non_ascii_never_reaches_a_column(self, tmp_path):
        """A file with a non-ASCII byte fails as the ascii reader
        always did; a text stream keeps ``int()``'s reading of it."""
        import io

        from repro.netflow.parse import FlowLineParser
        from tests.reference_fold import read_tuples
        from repro.resilience.quarantine import QuarantineSink

        good = "5,35,10.0.0.1,8.8.8.8,6,1,443,3,300,0x12\n"
        text = (
            good
            + "\u0661\u0662,35,10.0.0.1,8.8.8.8,6,1,443,3,300,0x12\n"  # ١٢
            + "7,35,10.0.0.1,8.8.8.8,6,1,44\u00e9,3,300,0x12\n"
            + "8,3\u00e9,10.0.0.1,8.8.8.8,6,1,443,3,300,0x12\n"
            + "\u00a09,35,10.0.0.1,8.8.8.8,6,1,443,3,300,0x12\n"
        )
        scalar_sink = QuarantineSink()
        scalar = list(
            read_tuples(
                io.StringIO(text),
                quarantine=scalar_sink,
                parser=FlowLineParser(),
            )
        )
        assert [row[0] for row in scalar] == [5, 12, 8, 9]
        for block_bytes, chunk_size in itertools.product(
            BLOCK_BYTES, (1, 2, 100)
        ):
            sink = QuarantineSink()
            assert _chunk_tuples(
                io.StringIO(text), chunk_size, sink, block_bytes
            ) == scalar
            assert sink.counts == scalar_sink.counts
        path = tmp_path / "latin.csv"
        path.write_bytes(good.encode() + text.encode("utf-8"))
        with pytest.raises(UnicodeDecodeError):
            list(read_tuples(path, quarantine=QuarantineSink()))
        with pytest.raises(UnicodeDecodeError):
            _chunk_tuples(path, 100, quarantine=QuarantineSink())

    def test_boundary_valid_lines_round_trip(self):
        """All-extreme but valid lines decode identically and without
        quarantine on both paths."""
        import io

        from repro.netflow.parse import FlowLineParser
        from tests.reference_fold import read_tuples
        from repro.resilience.quarantine import QuarantineSink

        lines = [
            "0,0,0.0.0.0,0.0.0.0,0,0,0,1,1,0x0",
            "0,30,0.0.0.0,255.255.255.255,255,65535,65535,1,1,0xff",
            "2147483648,2147483678,255.255.255.255,8.8.8.8,6,1,53,1,1,0x10",
            "1573776000,1573776030,10.0.0.1,192.0.2.9,17,53,53,9,900,0x0",
        ]
        text = "\n".join(lines) + "\n"
        sink = QuarantineSink()
        scalar = list(
            read_tuples(
                io.StringIO(text),
                quarantine=sink,
                parser=FlowLineParser(),
            )
        )
        assert len(scalar) == 4
        assert sink.total == 0
        for block_bytes, chunk_size in itertools.product(
            BLOCK_BYTES, (1, 2, 100)
        ):
            columnar_sink = QuarantineSink()
            assert _chunk_tuples(
                io.StringIO(text), chunk_size, columnar_sink, block_bytes
            ) == scalar
            assert columnar_sink.total == 0


class TestDecimalKernel:
    """``_decimal`` may decline a block; it may never misread one."""

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet="0123456789", max_size=24).map(str.encode),
                st.binary(max_size=6).filter(lambda token: b"," not in token),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_or_declined(self, tokens):
        from repro.netflow.parse import _decimal

        data = b",".join(tokens) + b","
        buf = np.frombuffer(data, dtype=np.uint8)
        commas = np.flatnonzero(buf == ord(","))
        before = np.concatenate(([-1], commas[:-1]))
        values = _decimal(buf, before, commas)
        if values is None:
            return
        assert values.dtype == np.int64
        # int() reads bytes as it reads ascii text
        assert values.tolist() == [int(token) for token in tokens]
        assert all(token.isdigit() for token in tokens)
