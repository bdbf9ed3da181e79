"""The passive third node: hardware-timestamping taps on both fibers.

Like the paper's MoonGen box behind optical splitters, it never touches
traffic — it records (timestamp, direction, frame) and recovers the two
handshake phases of Figure 1 from the first unencrypted bytes: ClientHello,
ServerHello, and the client's ChangeCipherSpec+Finished packet.

The links call a tap when they send a frame, with the time the frame is
on the wire, which may lie past the end of the run; :meth:`Timestamper.cut`
then drops what the tap could not yet have seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.packets import Segment


class MissingMarker(RuntimeError):
    """A handshake phase marker never appeared on the wire (the handshake
    failed or stalled before reaching it)."""


@dataclass
class TapRecord:
    time: float
    direction: str  # "c2s" | "s2c"
    segment: Segment


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

    # -- phase extraction (first sighting of each marker) ----------------------
    # Flight labels are '+'-joined when the server's buffer coalesces
    # messages ("SH+EE+Cert+CV+Fin" under the default OpenSSL policy), so a
    # marker matches if it appears as a component — mirroring the paper's
    # tap, which recognises the unencrypted ServerHello header wherever it
    # sits inside a packet.
    def _first(self, direction: str, marker: str) -> TapRecord | None:
        marker_parts = set(marker.split("+"))
        for record in self.records:
            if record.direction != direction:
                continue
            for label in record.segment.labels:
                if marker_parts <= set(label.split("+")):
                    return record
        return None

    def phase_times(self) -> tuple[float, float, float]:
        """(t_CH, t_SH, t_ClientFinished); raises if a marker never appeared."""
        ch = self._first("c2s", "ClientHello")
        sh = self._first("s2c", "SH")
        fin = self._first("c2s", "CCS+Fin")
        missing = [f"{marker} ({direction})"
                   for record, marker, direction in
                   ((ch, "ClientHello", "c2s"), (sh, "SH", "s2c"),
                    (fin, "CCS+Fin", "c2s"))
                   if record is None]
        if missing:
            raise MissingMarker(
                "handshake markers missing from the tap records: "
                + ", ".join(missing)
                + f" ({len(self.records)} frames tapped)")
        return ch.time, sh.time, fin.time

    # -- byte / packet accounting ----------------------------------------------
    def bytes_in_direction(self, direction: str) -> int:
        return sum(r.segment.wire_bytes for r in self.records if r.direction == direction)

    def packets_in_direction(self, direction: str) -> int:
        return sum(1 for r in self.records if r.direction == direction)
