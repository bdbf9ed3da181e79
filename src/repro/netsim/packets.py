"""Frame model and byte accounting.

On-wire sizes follow the paper's testbed: Ethernet (14 B) + IPv4 (20 B) +
TCP with timestamps (32 B) = 66 B of headers per segment; SYN frames carry
8 extra bytes of options (MSS/SACK/WScale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

HEADER_OVERHEAD = 66
SYN_EXTRA_OPTIONS = 8


@dataclass
class Segment:
    src: str
    dst: str
    seq: int                 # first payload byte (TCP sequence space)
    payload: bytes
    ack: int                 # cumulative ack number
    syn: bool = False
    push: bool = False
    is_ack_only: bool = False
    label: str = ""          # TLS flight label of the send() it came from
    # frame size on the wire: computed once here, read by TCP, the link
    # (serialization delay) and the tap (byte tally)
    wire_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        extra = SYN_EXTRA_OPTIONS if self.syn else 0
        self.wire_bytes = HEADER_OVERHEAD + extra + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag for flag, on in
            (("S", self.syn), ("P", self.push), ("A", True)) if on
        )
        return (f"<Seg {self.src}->{self.dst} seq={self.seq} len={len(self.payload)} "
                f"{flags} {self.label}>")
