import random

import pytest

from deza.graph6 import Graph6Error, decode_graph6, encode_graph6
from deza.graphs import (complete_graph, cycle_graph, empty_graph,
                         fano_incidence, hypercube, make_graph, petersen)
from oracle import reference_decode_graph6, reference_encode_graph6


def test_frozen_reference_encodings():
    # worked by hand from the format definition
    assert encode_graph6(complete_graph(3)) == "Bw"     # 3 vertices, bits 111
    assert encode_graph6(complete_graph(1)) == "@"
    assert encode_graph6(empty_graph(2)) == "A?"
    assert encode_graph6(make_graph(2, [(0, 1)])) == "A_"
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(empty_graph(0)) == "?"


def test_roundtrip_catalog_graphs():
    for g in (petersen(), hypercube(4), fano_incidence(), cycle_graph(5),
              empty_graph(1), complete_graph(7)):
        assert decode_graph6(encode_graph6(g)) == g


def test_roundtrip_random_graphs_including_long_header():
    # the frozen encodings above have symmetric columns, so only graphs
    # like these see the bit order inside a column
    rng = random.Random(99)
    for density in (0.05, 0.3, 0.9):
        for v in (*range(10), 30, 62, 63, 70, 128, 512):
            edges = [(i, j) for i in range(v) for j in range(i + 1, v)
                     if rng.random() < density]
            g = make_graph(v, edges)
            s = encode_graph6(g)
            assert s == reference_encode_graph6(g)
            if v >= 63:
                assert s.startswith("~")
            assert decode_graph6(s) == g


def test_header_prefix_stripped():
    assert decode_graph6(">>graph6<<Bw") == complete_graph(3)


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as e:
        decode_graph6("B" + chr(30))
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        decode_graph6("Bww")  # body too long
    assert "body length" in str(e.value)
    with pytest.raises(Graph6Error):
        decode_graph6("B")    # body missing
    with pytest.raises(Graph6Error) as e:
        decode_graph6("~~")   # 8-byte count form
    assert e.value.offset == 1
    with pytest.raises(Graph6Error):
        decode_graph6("")
    # nonzero padding: K1 on 2 vertices needs 1 bit; set a padding bit
    with pytest.raises(Graph6Error, match="padding"):
        decode_graph6("A" + chr(63 + 1))


def test_decode_rejects_non_ascii():
    # a replacement '?' would be a valid data byte
    with pytest.raises(Graph6Error, match="non-ASCII character 'é'") as e:
        decode_graph6("A\u00e9")
    assert e.value.offset == 1
    with pytest.raises(Graph6Error, match="non-ASCII") as e:
        decode_graph6("\u2603")
    assert e.value.offset == 0


def test_decode_rejects_over_cap():
    too_big = "~" + "".join(chr(63 + (600 >> s & 0x3F)) for s in (12, 6, 0))
    with pytest.raises(Graph6Error, match="cap"):
        decode_graph6(too_big)


def test_arbitrary_strings_raise_only_graph6_error():
    # seeded random strings, biased towards the graph6 alphabet, long-form
    # headers and the >>graph6<< prefix, must decode to the per-bit
    # reference's graph or raise its Graph6Error message and offset
    rng = random.Random(2024)
    alphabet = [chr(c) for c in range(63, 127)]
    other = [chr(c) for c in range(0, 63)] + ["\x7f", "\u00e9", "\u2603",
                                               "\U0001f600"]
    decoded = 0
    for _ in range(20000):
        chars = [rng.choice(alphabet) if rng.random() < 0.9
                 else rng.choice(other)
                 for _ in range(rng.randrange(0, 24))]
        text = "".join(chars)
        roll = rng.random()
        if roll < 0.2:
            text = "~" + text
        elif roll < 0.3:
            text = ">>graph6<<" + text
        try:
            want = reference_decode_graph6(text)
        except Graph6Error as exc:
            with pytest.raises(Graph6Error) as e:
                decode_graph6(text)
            assert (str(e.value), e.value.offset) == (str(exc), exc.offset)
            continue
        assert decode_graph6(text) == want
        decoded += 1
    assert decoded > 0
