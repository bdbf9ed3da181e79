"""Simplified TCP: handshake, segmentation, slow start, loss recovery."""

from repro.netsim.eventloop import EventLoop
from repro.netsim.tcp import INIT_CWND, MSS, TcpEndpoint


class _Loss:
    """Deterministic drop list: drop the i-th c2s data transmission."""

    def __init__(self, drop_indices):
        self.drop = set(drop_indices)
        self.count = 0


def make_pair(loss_c2s=(), rtt=0.01, tap=None):
    loop = EventLoop()
    received = {"client": b"", "server": b""}
    established = []

    client = TcpEndpoint(loop, "client", "server",
                         on_deliver=lambda d: received.__setitem__(
                             "client", received["client"] + d),
                         on_established=lambda: established.append(True))
    server = TcpEndpoint(loop, "server", "client",
                         on_deliver=lambda d: received.__setitem__(
                             "server", received["server"] + d))

    loss = _Loss(loss_c2s)

    def deliver_to_server(seg):
        server.on_segment(seg)

    def c2s_transmit(seg):
        index = loss.count
        loss.count += 1
        if index in loss.drop:
            return
        delay = rtt / 2
        loop.schedule(delay, lambda: server.on_segment(seg))

    class FakeLink:
        def __init__(self, fn):
            self.transmit = fn

    def s2c_transmit(seg):
        loop.schedule(rtt / 2, lambda: client.on_segment(seg))

    client.attach_link(FakeLink(c2s_transmit))
    server.attach_link(FakeLink(s2c_transmit))
    server.listen()
    client.connect()
    return loop, client, server, received, established


def test_connection_establishment():
    loop, client, server, _, established = make_pair()
    loop.run(until=1.0)
    assert established == [True]
    assert client.state == "established"


def test_lossless_transfer_in_order():
    loop, client, server, received, _ = make_pair()
    loop.run(until=0.1)
    payload = bytes(range(256)) * 100  # 25.6 kB
    client.send(payload)
    loop.run(until=5.0)
    assert received["server"] == payload


def test_bidirectional_transfer():
    loop, client, server, received, _ = make_pair()
    loop.run(until=0.1)
    client.send(b"request " * 100)
    loop.run(until=1.0)
    server.send(b"response " * 2000)
    loop.run(until=5.0)
    assert received["server"] == b"request " * 100
    assert received["client"] == b"response " * 2000


def test_mss_segmentation():
    loop, client, server, received, _ = make_pair()
    loop.run(until=0.1)
    before = client.tally["segments_sent"]
    client.send(b"x" * (3 * MSS))
    loop.run(until=1.0)
    # 3 full segments (plus ACK-only frames don't count as data)
    data_packets = client.tally["segments_sent"] - before
    assert data_packets == 3
    assert received["server"] == b"x" * (3 * MSS)


def test_no_coalescing_across_push_boundaries():
    loop, client, server, received, _ = make_pair()
    loop.run(until=0.1)
    before = client.tally["segments_sent"]
    client.send(b"a" * 100, label="one")
    client.send(b"b" * 100, label="two")
    loop.run(until=1.0)
    assert client.tally["segments_sent"] - before == 2  # two pushes -> two segments
    assert received["server"] == b"a" * 100 + b"b" * 100


def test_initcwnd_limits_first_flight():
    """With a long RTT, only INIT_CWND segments leave before any ACK."""
    loop, client, server, received, _ = make_pair(rtt=2.0)
    loop.run(until=3.0)  # handshake done (1 RTT)
    before = client.tally["segments_sent"]
    client.send(b"y" * (MSS * 30))
    loop.run(until=3.9)  # less than half an RTT: no ACKs yet
    assert client.tally["segments_sent"] - before == INIT_CWND
    loop.run(until=60.0)
    assert received["server"] == b"y" * (MSS * 30)


def test_slow_start_doubles_window():
    loop, client, server, received, _ = make_pair(rtt=1.0)
    loop.run(until=2.0)
    client.send(b"z" * (MSS * 35))
    # window 1: 10 segments; after ~1 RTT of ACKs cwnd reaches 20
    loop.run(until=2.9)
    first_window = client.tally["segments_sent"]
    loop.run(until=3.9)
    second_window = client.tally["segments_sent"] - first_window
    assert second_window >= 18  # ~20 data segments (ACK pacing may vary)
    loop.run(until=30.0)
    assert received["server"] == b"z" * (MSS * 35)


def test_single_loss_recovered_by_retransmission():
    # drop the 3rd c2s transmission (SYN=0, ACK=1, data starts at 2)
    loop, client, server, received, _ = make_pair(loss_c2s=[3])
    loop.run(until=0.1)
    payload = b"q" * (MSS * 6)
    client.send(payload)
    loop.run(until=10.0)
    assert received["server"] == payload


def test_syn_loss_recovered():
    loop, client, server, received, established = make_pair(loss_c2s=[0])
    loop.run(until=5.0)
    assert established == [True]
    client.send(b"after syn loss")
    loop.run(until=10.0)
    assert received["server"] == b"after syn loss"


def test_multiple_losses_recovered():
    loop, client, server, received, _ = make_pair(loss_c2s=[2, 5, 9])
    loop.run(until=0.1)
    payload = bytes([i & 0xFF for i in range(MSS * 12)])
    client.send(payload)
    loop.run(until=30.0)
    assert received["server"] == payload


def test_out_of_order_segments_reassembled():
    """Loss forces later segments to queue out-of-order at the receiver."""
    loop, client, server, received, _ = make_pair(loss_c2s=[2])
    loop.run(until=0.1)
    payload = b"".join(bytes([i]) * MSS for i in range(8))
    client.send(payload)
    loop.run(until=10.0)
    assert received["server"] == payload


def test_wire_byte_accounting():
    loop, client, server, received, _ = make_pair()
    loop.run(until=0.1)
    sent_before = client.tally["wire_bytes"]
    client.send(b"w" * 100)
    loop.run(until=1.0)
    # 100 payload + 66 header on the data segment
    assert client.tally["wire_bytes"] - sent_before == 166


def test_labels_attached_to_segments():
    loop = EventLoop()
    collected = []

    class TapLink:
        def transmit(self, seg):
            collected.append(seg)
            loop.schedule(0.001, lambda: server.on_segment(seg))

    class BackLink:
        def transmit(self, seg):
            loop.schedule(0.001, lambda: client.on_segment(seg))

    client = TcpEndpoint(loop, "client", "server", on_deliver=lambda d: None)
    server = TcpEndpoint(loop, "server", "client", on_deliver=lambda d: None)
    client.attach_link(TapLink())
    server.attach_link(BackLink())
    server.listen()
    client.connect()
    loop.run(until=0.1)
    client.send(b"hello", label="Greeting")
    loop.run(until=1.0)
    data_segments = [s for s in collected if s.payload]
    assert data_segments and data_segments[0].label == "Greeting"
