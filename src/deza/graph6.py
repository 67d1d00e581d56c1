"""graph6 encoding and decoding.

Standard format: a vertex-count header (one printable byte 63+v for v <= 62,
'~' plus three bytes of 18 bits for larger v), then the upper triangle of the
adjacency matrix read column by column ((0,1),(0,2),(1,2),(0,3),...), packed
into 6-bit groups, each offset by 63.  K_3 is "Bw"; a single vertex is "@".
"""
from __future__ import annotations

from .graphs import Graph, MAX_VERTICES


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> str:
    v = g.v
    if v <= 62:
        head = chr(63 + v)
    else:
        head = "~" + "".join(chr(63 + (v >> s & 0x3F)) for s in (12, 6, 0))
    bits = []
    for j in range(1, v):
        rj = g.rows[j]
        for i in range(j):
            bits.append(rj >> i & 1)
    body = []
    for p in range(0, len(bits), 6):
        group = bits[p:p + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        body.append(chr(63 + val))
    return head + "".join(body)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not ch.isascii():
            raise Graph6Error(f"non-ASCII character {ch!r}", off)
    data = s.encode("ascii")
    for off, byte in enumerate(data):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"invalid graph6 byte {byte}", off)
    pos = 0
    if data[0] == 126:  # '~': long form
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte vertex counts exceed the vertex cap", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form header", len(data))
        v = 0
        for off in range(1, 4):
            v = v << 6 | (data[off] - 63)
        pos = 4
    else:
        v = data[0] - 63
        pos = 1
    if v > MAX_VERTICES:
        raise Graph6Error(f"vertex count {v} exceeds cap {MAX_VERTICES}", 0)
    nbits = v * (v - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"body length {len(data) - pos} != expected {nbytes} bytes",
            len(data))
    rows = [0] * v
    bit_index = 0
    i, j = 0, 1  # walks the column-major upper triangle
    for off in range(pos, len(data)):
        val = data[off] - 63
        for shift in (5, 4, 3, 2, 1, 0):
            b = val >> shift & 1
            if bit_index < nbits:
                if b:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif b:
                raise Graph6Error("nonzero padding bits", off)
            bit_index += 1
    return Graph(v, tuple(rows))
