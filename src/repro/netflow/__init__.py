"""Flow-measurement substrate: packet and flow records, packet sampling,
a flow cache (collector), binary NetFlow v9 / IPFIX codecs, the
memoised CSV line parser, the columnar flow-file decoder and the
collector's segment journal."""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.netflow.parse": (
            "FLOW_FILE_COLUMNS", "FlowLineParser", "FlowTuple",
            "SHARED_PARSER",
        ),
        "repro.netflow.records": (
            "FlowKey", "FlowRecord", "PacketRecord", "PROTO_TCP", "PROTO_UDP",
            "TCP_ACK", "TCP_FIN", "TCP_RST", "TCP_SYN", "WEB_PORTS",
            "NTP_PORT", "classify_port",
        ),
        "repro.netflow.sampler": ("PacketSampler",),
        "repro.netflow.collector": ("FlowCollector",),
        "repro.netflow.datagram": (
            "DatagramError", "DatagramHeader", "DecodedDatagram",
            "peek_header",
        ),
        "repro.netflow.v9": ("NetflowV9Codec",),
        "repro.netflow.flowfile": (
            "parse_flow_line", "read_flow_file", "write_flow_file",
        ),
        "repro.netflow.ipfix": ("IpfixCodec",),
        "repro.netflow.journal": (
            "JournalError", "TornSegment", "encode_segment", "is_journal",
            "open_journal", "read_columns", "truncate_journal",
        ),
    },
)
