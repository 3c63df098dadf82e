"""Tests for transfer kinds and bit-width accounting."""

from repro.interconnect.message import (
    DEFAULT_BITS,
    LWIRE_BITS,
    MISPREDICT_BITS,
    MS_ADDRESS_BITS,
    NARROW_DATA_BITS,
    NARROW_MAX_VALUE,
    OPERAND_BITS,
    PARTIAL_ADDRESS_BITS,
    TAG_BITS,
    Transfer,
    TransferKind,
    is_narrow,
)


class TestBitWidths:
    def test_operand_is_64_data_plus_8_tag(self):
        assert OPERAND_BITS == 72
        assert TAG_BITS == 8

    def test_lwire_plane_is_18_bits(self):
        """Section 3: 18 L-Wires carry an 8-bit tag and 10 bits of data."""
        assert LWIRE_BITS == 18
        assert NARROW_DATA_BITS == 10

    def test_narrow_range_is_0_to_1023(self):
        assert NARROW_MAX_VALUE == 1023
        assert is_narrow(0)
        assert is_narrow(1023)
        assert not is_narrow(1024)
        assert not is_narrow(-1)

    def test_partial_address_fits_lwires(self):
        """Section 4: 6 LSQ tag + 8 cache index + 4 TLB index = 18 bits."""
        assert PARTIAL_ADDRESS_BITS == 18
        assert 6 + 8 + 4 == PARTIAL_ADDRESS_BITS

    def test_split_address_conserves_bits(self):
        assert PARTIAL_ADDRESS_BITS + MS_ADDRESS_BITS == OPERAND_BITS

    def test_mispredict_fits_lwires(self):
        assert MISPREDICT_BITS <= LWIRE_BITS


class TestTransfer:
    def test_default_bits_from_kind(self):
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1")
        assert t.bits == OPERAND_BITS
        m = Transfer(kind=TransferKind.MISPREDICT, src="c0", dst="cache")
        assert m.bits == MISPREDICT_BITS

    def test_explicit_bits_respected(self):
        t = Transfer(kind=TransferKind.OPERAND, src="c0", dst="c1", bits=18)
        assert t.bits == 18

    def test_every_kind_has_default_bits(self):
        for kind in TransferKind:
            assert DEFAULT_BITS[kind] > 0

    def test_address_kind_flags(self):
        assert TransferKind.LOAD_ADDRESS.is_address
        assert TransferKind.STORE_ADDRESS.is_address
        assert not TransferKind.OPERAND.is_address
        assert not TransferKind.STORE_DATA.is_address
