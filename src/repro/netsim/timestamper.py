"""The passive third node: hardware-timestamping taps on both fibers.

Like the paper's MoonGen box behind optical splitters, it never touches
traffic — it records (timestamp, direction, frame) and recovers the two
handshake phases of Figure 1 from the first unencrypted bytes: ClientHello,
ServerHello, and the client's ChangeCipherSpec+Finished packet.

The links call a tap when they send a frame, with the time the frame is
on the wire, which may lie past the end of the run; :meth:`Timestamper.cut`
then drops what the tap could not yet have seen, and
:meth:`Timestamper.read` takes what a handshake trace needs from the rest
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.packets import Segment

# The phase markers, each with its direction and '+'-components. Flight
# labels are '+'-joined when the server's buffer coalesces messages
# ("SH+EE+Cert+CV+Fin" under the default OpenSSL policy), so a marker
# matches a label that has all of its components — mirroring the paper's
# tap, which recognises the unencrypted ServerHello header wherever it
# sits inside a packet.
MARKERS = tuple((marker, direction, frozenset(marker.split("+")))
                for marker, direction in (("ClientHello", "c2s"), ("SH", "s2c"),
                                          ("CCS+Fin", "c2s")))


class MissingMarker(RuntimeError):
    """A handshake phase marker never appeared on the wire (the handshake
    failed or stalled before reaching it)."""


@dataclass
class TapRecord:
    time: float
    direction: str  # "c2s" | "s2c"
    segment: Segment


@dataclass(frozen=True)
class TapReading:
    """What a handshake trace takes from the tap (see :meth:`Timestamper.read`)."""

    wire_bytes: dict           # direction -> frame bytes, headers included
    packets: dict              # direction -> frames
    server_labels: tuple       # labels of the labelled s2c frames, in order
    last_time: float | None    # latest frame on the wire (None: no frames)
    first: tuple               # first sighting of each MARKERS entry, or None

    def phase_times(self) -> tuple[float, float, float]:
        """(t_CH, t_SH, t_ClientFinished); raises if a marker never appeared."""
        missing = [f"{marker} ({direction})"
                   for (marker, direction, _), time in zip(MARKERS, self.first)
                   if time is None]
        if missing:
            raise MissingMarker(
                "handshake markers missing from the tap records: "
                + ", ".join(missing)
                + f" ({sum(self.packets.values())} frames tapped)")
        return self.first


@dataclass
class Timestamper:
    records: list[TapRecord] = field(default_factory=list)

    def tap(self, direction: str):
        def _record(time: float, segment: Segment) -> None:
            self.records.append(TapRecord(time, direction, segment))
        return _record

    def cut(self, horizon: float) -> None:
        """Drop the records timed after *horizon* (frames handed to a link
        before the run ended that were not yet on the wire when it did)."""
        self.records = [r for r in self.records if r.time <= horizon]

    def read(self) -> TapReading:
        """Bytes and frames per direction, the server's flight labels, the
        last frame's time and each marker's first sighting."""
        wire_bytes = {"c2s": 0, "s2c": 0}
        packets = {"c2s": 0, "s2c": 0}
        server_labels = []
        first = [None] * len(MARKERS)
        last_time = None
        for record in self.records:
            direction, segment = record.direction, record.segment
            wire_bytes[direction] += segment.wire_bytes
            packets[direction] += 1
            if last_time is None or record.time > last_time:
                last_time = record.time
            label = segment.label
            if not label:
                continue
            if direction == "s2c":
                server_labels.append(label)
            if None in first:
                parts = label.split("+")
                for index, (_, want, components) in enumerate(MARKERS):
                    if (first[index] is None and want == direction
                            and components.issubset(parts)):
                        first[index] = record.time
        return TapReading(wire_bytes, packets, tuple(server_labels),
                          last_time, tuple(first))
