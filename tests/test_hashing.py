"""Tests for the hardware-style hash functions.

``tests/fixtures/h3_vectors.json`` pins H3 values — they decide bucket
placement, location-derived flow IDs, Count-Min cells and whether a persisted
snapshot restores into the buckets it was dumped from.  It was captured at
the commit *before* the bit-serial ``H3Hash.hash`` became table-driven
(``PYTHONPATH=<that checkout>/src python tests/test_hashing.py`` rewrites
it); only rewrite it on purpose.
"""

import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns.hashing import column_hasher
from repro.core.config import small_test_config
from repro.core.hash_cam import HashCamTable
from repro.hashing import CRC16_CCITT, CRC32, CRCHash, H3Hash, MultiHash, TabulationHash, fold_hash
from repro.sim.rng import make_rng

FIXTURE = Path(__file__).parent / "fixtures" / "h3_vectors.json"
VECTOR_SEEDS = (0, 1, 11)
VECTOR_GEOMETRIES = ((104, 32), (104, 64), (100, 17))


# --------------------------------------------------------------------------- #
# H3
# --------------------------------------------------------------------------- #


def test_h3_deterministic_and_seed_dependent():
    h1 = H3Hash(104, 20, seed=1)
    h2 = H3Hash(104, 20, seed=1)
    h3 = H3Hash(104, 20, seed=2)
    key = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d"
    assert h1.hash(key) == h2.hash(key)
    assert any(h1.hash(bytes([i]) * 13) != h3.hash(bytes([i]) * 13) for i in range(16))


def test_h3_zero_key_hashes_to_zero():
    # XOR of no rows is zero: a structural property of the H3 family.
    h = H3Hash(32, 16, seed=3)
    assert h.hash(0) == 0
    assert h.hash(b"\x00\x00\x00\x00") == 0


def test_h3_linearity_over_xor():
    # H3 is linear: h(a ^ b) == h(a) ^ h(b).
    h = H3Hash(32, 16, seed=9)
    a, b = 0x12345678, 0x0F0F00FF
    assert h.hash(a ^ b) == h.hash(a) ^ h.hash(b)


def test_h3_rejects_oversized_keys_and_bad_params():
    h = H3Hash(8, 8, seed=0)
    with pytest.raises(ValueError):
        h.hash(1 << 8)
    with pytest.raises(ValueError):
        H3Hash(0, 8)
    with pytest.raises(ValueError):
        H3Hash(8, 0)
    with pytest.raises(ValueError):
        h.hash(-1)
    with pytest.raises(TypeError):
        h.hash("not bytes")


def test_h3_output_distribution_is_reasonable():
    h = H3Hash(32, 10, seed=11)
    buckets = [0] * 16
    for i in range(4096):
        buckets[h.bucket(i, 16)] += 1
    expected = 4096 / 16
    assert all(0.5 * expected < count < 1.5 * expected for count in buckets)


@given(st.integers(min_value=0, max_value=(1 << 104) - 1))
def test_h3_output_within_range(key):
    h = H3Hash(104, 21, seed=5)
    assert 0 <= h.hash(key) < (1 << 21)


def reference_h3(h3, key):
    """The bit-serial definition ``H3Hash.hash`` is held to: XOR of the
    matrix rows the set bits of the key select, one bit per iteration."""
    value = int.from_bytes(bytes(key), "big") if isinstance(key, (bytes, bytearray)) else key
    if value >> h3.key_bits:
        raise ValueError("oversized")
    result = 0
    for row in h3.matrix:
        if value & 1:
            result ^= row
        value >>= 1
    return result


@st.composite
def h3_and_key(draw):
    key_bits = draw(st.sampled_from([1, 7, 8, 13, 100, 104, 128]))
    output_bits = draw(st.sampled_from([5, 17, 32, 64, 80]))
    h3 = H3Hash(key_bits, output_bits, seed=draw(st.integers(0, 7)))
    # Any width up to key_bits, so short keys and leading zero bytes occur.
    value = draw(st.integers(0, (1 << draw(st.integers(0, key_bits))) - 1))
    min_bytes = (value.bit_length() + 7) // 8
    kind = draw(st.sampled_from(["int", "bytes", "bytearray"]))
    if kind == "int":
        return h3, value
    # From the shortest packing to two bytes past the function's key width.
    length = draw(st.integers(min_bytes, (key_bits + 7) // 8 + 2))
    data = value.to_bytes(length, "big")
    return h3, (data if kind == "bytes" else bytearray(data))


@settings(max_examples=400, deadline=None)
@given(h3_and_key())
def test_h3_kernel_is_the_bit_serial_definition(case):
    h3, key = case
    assert h3.hash(key) == h3(key) == reference_h3(h3, key)


@pytest.mark.parametrize("top_nibble", [0x0, 0x1, 0xF])
def test_h3_partial_top_byte(top_nibble):
    """13-byte keys under ``key_bits=100``: only a zero top nibble fits."""
    h3 = H3Hash(100, 32, seed=4)
    key = bytes([top_nibble << 4 | 0x5]) + bytes(range(1, 13))
    if top_nibble:
        with pytest.raises(ValueError, match="more than 100 bits"):
            h3.hash(key)
        with pytest.raises(ValueError, match="more than 100 bits"):
            h3.hash(int.from_bytes(key, "big"))
    else:
        assert h3.hash(key) == h3.hash(bytearray(key)) == reference_h3(h3, key)


def test_h3_error_cases_raise_what_the_bit_serial_hash_raised():
    h3 = H3Hash(104, 32, seed=0)
    with pytest.raises(ValueError, match="key has more than 104 bits: 105 bits"):
        h3.hash(1 << 104)
    with pytest.raises(ValueError, match="key has more than 104 bits: 105 bits"):
        h3.hash(b"\x01" + bytes(13))
    with pytest.raises(ValueError, match="integer keys must be non-negative"):
        h3.hash(-1)
    for bad in ("text", 1.5, None, memoryview(b"ab")):
        with pytest.raises(TypeError, match="unsupported key type"):
            h3.hash(bad)
    assert h3.hash(bytes(20) + b"\x07") == h3.hash(7)  # leading zero bytes are no width


@pytest.mark.parametrize("key_bits,output_bits", [(104, 32), (104, 80), (100, 17), (32, 64)])
def test_h3_scalar_and_column_hasher_are_one_kernel(key_bits, output_bits, each_backend):
    h3 = H3Hash(key_bits, output_bits, seed=21)
    twin = H3Hash(key_bits, output_bits, seed=21)
    rng = make_rng(5)
    for width in {key_bits // 8, 4}:
        count = 33
        data = bytes(rng.getrandbits(8) for _ in range(count * width))
        hasher = column_hasher(h3, width)
        assert column_hasher(twin, width) is hasher
        assert hasher._tables is h3.tables is twin.tables
        expected = [h3.hash(data[i * width : (i + 1) * width]) for i in range(count)]
        for label, context in each_backend():
            with context:
                assert [int(v) for v in hasher.hash_column(data, count)] == expected, label
    assert H3Hash(key_bits, output_bits, seed=22).tables is not h3.tables
    shipped = pickle.loads(pickle.dumps(h3))  # the process executor's transport
    assert shipped.tables is h3.tables and shipped.hash(data[:4]) == h3.hash(data[:4])
    assert h3.matrix is not h3.matrix and h3.matrix == twin.matrix


def _vector_keys():
    """32 fixed keys: 13-byte 5-tuples, short keys, leading zeros, all-ones."""
    rng = make_rng(2014)
    keys = [bytes(rng.getrandbits(8) for _ in range(13)) for _ in range(24)]
    keys += [bytes(13), b"\xff" * 13, b"\x00" * 6 + b"\x01" + bytes(6), b"\x80" + bytes(12)]
    keys += [bytes(rng.getrandbits(8) for _ in range(length)) for length in (1, 2, 5, 12)]
    return keys


def h3_vectors() -> dict:
    keys = _vector_keys()
    vectors = {}
    for seed in VECTOR_SEEDS:
        for key_bits, output_bits in VECTOR_GEOMETRIES:
            h3 = H3Hash(key_bits, output_bits, seed=seed)
            limit = (1 << key_bits) - 1
            vectors[f"seed{seed}/{key_bits}x{output_bits}"] = [
                h3.hash(int.from_bytes(key, "big") & limit) for key in keys
            ] + [h3.hash(key) for key in keys if not int.from_bytes(key, "big") >> key_bits]
    table = HashCamTable(small_test_config())
    return {
        "keys": [key.hex() for key in keys],
        "h3": vectors,
        "hash_indices": [list(table.hash_indices(key)) for key in keys[:16]],
    }


def test_h3_golden_vectors_from_the_bit_serial_commit():
    assert h3_vectors() == json.loads(FIXTURE.read_text())


# --------------------------------------------------------------------------- #
# CRC
# --------------------------------------------------------------------------- #


def test_crc32_known_vector():
    # IEEE CRC-32 of "123456789" is 0xCBF43926.
    assert CRC32.hash(b"123456789") == 0xCBF43926


def test_crc16_ccitt_known_vector():
    # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    assert CRC16_CCITT.hash(b"123456789") == 0x29B1


def test_crc_accepts_integers():
    assert CRC32.hash(0x31) == CRC32.hash(b"\x31")


def test_crc_bucket_range_and_validation():
    assert 0 <= CRC32.bucket(b"abc", 1000) < 1000
    with pytest.raises(ValueError):
        CRC32.bucket(b"abc", 0)
    with pytest.raises(ValueError):
        CRC32.hash(-1)
    with pytest.raises(TypeError):
        CRC32.hash(3.14)
    with pytest.raises(ValueError):
        CRCHash(polynomial=0x7, width=4)


def test_fold_hash():
    assert fold_hash(0xABCD1234, 16) == (0xABCD ^ 0x1234)
    assert fold_hash(0, 8) == 0
    with pytest.raises(ValueError):
        fold_hash(1, 0)


@given(st.binary(min_size=0, max_size=64))
def test_crc_is_deterministic(data):
    assert CRC32.hash(data) == CRC32.hash(data)
    assert 0 <= CRC32.hash(data) <= 0xFFFFFFFF


# --------------------------------------------------------------------------- #
# Tabulation
# --------------------------------------------------------------------------- #


def test_tabulation_deterministic_and_pads_short_keys():
    t = TabulationHash(13, 20, seed=4)
    assert t.hash(b"\x01" * 13) == t.hash(b"\x01" * 13)
    assert t.hash(b"\x05") == t.hash(b"\x00" * 12 + b"\x05")


def test_tabulation_int_seed_memoises_tables_bit_identically():
    """Integer-seeded hashes share one table build (the telemetry plane
    constructs thousands with the same geometry+seed); entropy- and
    Random-seeded hashes bypass the memo."""
    import random

    first = TabulationHash(13, 32, seed=9)
    second = TabulationHash(13, 32, seed=9)
    assert second._tables is first._tables  # memo hit, zero rebuild cost
    keys = [bytes([i] * 13) for i in range(64)]
    assert [first.hash(k) for k in keys] == [second.hash(k) for k in keys]
    assert TabulationHash(13, 32, seed=10)._tables is not first._tables
    # A live Random is a stateful stream: two builds must keep drawing from
    # it (and so differ), never share a cached table.
    rng = random.Random(9)
    a, b = TabulationHash(4, 16, seed=rng), TabulationHash(4, 16, seed=rng)
    assert a._tables is not b._tables
    assert TabulationHash(4, 16, seed=None)._tables is not b._tables


def test_tabulation_rejects_long_keys_and_bad_params():
    t = TabulationHash(4, 16, seed=0)
    with pytest.raises(ValueError):
        t.hash(b"\x00" * 5)
    with pytest.raises(ValueError):
        TabulationHash(0, 8)
    with pytest.raises(ValueError):
        TabulationHash(4, 0)
    with pytest.raises(ValueError):
        t.bucket(b"\x01", 0)


def test_tabulation_integer_keys():
    t = TabulationHash(4, 16, seed=7)
    assert t.hash(0x01020304) == t.hash(b"\x01\x02\x03\x04")


@given(st.binary(min_size=13, max_size=13))
def test_tabulation_range(data):
    t = TabulationHash(13, 18, seed=8)
    assert 0 <= t.hash(data) < (1 << 18)


# --------------------------------------------------------------------------- #
# MultiHash
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["h3", "tabulation", "crc"])
def test_multihash_functions_are_independent(kind):
    mh = MultiHash(3, key_bits=104, output_bits=24, kind=kind, seed=10)
    key = b"\xaa" * 13
    values = mh.hashes(key)
    assert len(values) == 3
    assert len(set(values)) > 1  # overwhelmingly likely for independent functions


def test_multihash_indices_in_range():
    mh = MultiHash(4, key_bits=104, output_bits=32, seed=2)
    for index in mh.indices(b"\x01" * 13, 1000):
        assert 0 <= index < 1000


def test_multihash_validation():
    with pytest.raises(ValueError):
        MultiHash(0, 104, 32)
    with pytest.raises(ValueError):
        MultiHash(2, 104, 32, kind="md5")
    mh = MultiHash(2, 104, 32)
    with pytest.raises(ValueError):
        mh.indices(b"\x00" * 13, 0)


def test_multihash_iteration_and_indexing():
    mh = MultiHash(2, key_bits=32, output_bits=16, seed=1)
    key = b"\x01\x02\x03\x04"
    assert [fn(key) for fn in mh] == mh.hashes(key)
    assert mh[0](key) == mh.hashes(key)[0]
    assert len(mh) == 2


def test_multihash_two_choice_spreads_collisions():
    """Two-choice hashing should give a better (or equal) worst-bucket load
    than a single hash function on the same key set (the motivation from [6]),
    and its maximum load should be small in the one-key-per-bucket regime."""
    import random

    rng = random.Random(1234)
    mh = MultiHash(2, key_bits=104, output_bits=32, seed=3)
    buckets = 256
    single_load = [0] * buckets
    double_load = [0] * buckets
    for _ in range(256):
        key = bytes(rng.getrandbits(8) for _ in range(13))
        first, second = mh.indices(key, buckets)
        single_load[first] += 1
        # place in the emptier of the two candidate buckets
        target = first if double_load[first] <= double_load[second] else second
        double_load[target] += 1
    assert max(double_load) <= max(single_load)
    assert max(double_load) <= 3


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(h3_vectors(), indent=1) + "\n")
