"""Flow-measurement substrate: packet and flow records, packet sampling,
a flow cache (collector), binary NetFlow v9 / IPFIX codecs, the
memoised CSV line parser and the columnar flow-file decoder."""

from repro.netflow.parse import (
    FLOW_FILE_COLUMNS,
    FlowLineParser,
    FlowTuple,
    SHARED_PARSER,
)
from repro.netflow.records import (
    FlowKey,
    FlowRecord,
    PacketRecord,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    WEB_PORTS,
    NTP_PORT,
    classify_port,
)
from repro.netflow.sampler import PacketSampler, sample_packet_counts
from repro.netflow.collector import FlowCollector
from repro.netflow.datagram import (
    DatagramError,
    DatagramHeader,
    DecodedDatagram,
    peek_header,
)
from repro.netflow.v9 import NetflowV9Codec
from repro.netflow.flowfile import (
    parse_flow_line,
    read_flow_file,
    write_flow_file,
)
from repro.netflow.ipfix import IpfixCodec

__all__ = [
    "FLOW_FILE_COLUMNS",
    "FlowLineParser",
    "FlowTuple",
    "SHARED_PARSER",
    "parse_flow_line",
    "FlowKey",
    "FlowRecord",
    "PacketRecord",
    "PROTO_TCP",
    "PROTO_UDP",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_RST",
    "TCP_SYN",
    "WEB_PORTS",
    "NTP_PORT",
    "classify_port",
    "PacketSampler",
    "sample_packet_counts",
    "FlowCollector",
    "DatagramError",
    "DatagramHeader",
    "DecodedDatagram",
    "peek_header",
    "NetflowV9Codec",
    "read_flow_file",
    "write_flow_file",
    "IpfixCodec",
]
