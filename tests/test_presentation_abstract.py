"""Abstract syntax: validation, flattening, path navigation."""

import pytest

from repro.errors import PresentationError
from repro.presentation.abstract import (
    ArrayOf,
    Boolean,
    Field,
    Int32,
    OctetString,
    Struct,
    UInt32,
    Utf8String,
    flatten_paths,
    validate,
)

POINT = Struct((Field("x", Int32()), Field("y", Int32())))
RECORD = Struct(
    (
        Field("id", UInt32()),
        Field("tags", ArrayOf(Utf8String())),
        Field("point", POINT),
        Field("blob", OctetString()),
        Field("ok", Boolean()),
    )
)
RECORD_VALUE = {
    "id": 7,
    "tags": ["a", "b"],
    "point": {"x": 1, "y": -2},
    "blob": b"xyz",
    "ok": True,
}


class TestValidate:
    def test_good_record(self):
        validate(RECORD_VALUE, RECORD)

    def test_int32_range(self):
        validate(2**31 - 1, Int32())
        validate(-(2**31), Int32())
        with pytest.raises(PresentationError, match="range"):
            validate(2**31, Int32())

    def test_uint32_range(self):
        validate(2**32 - 1, UInt32())
        with pytest.raises(PresentationError):
            validate(-1, UInt32())

    def test_bool_is_not_int(self):
        with pytest.raises(PresentationError):
            validate(True, Int32())
        with pytest.raises(PresentationError):
            validate(1, Boolean())

    def test_fixed_length_octets(self):
        validate(b"abcd", OctetString(fixed_length=4))
        with pytest.raises(PresentationError, match="exactly 4"):
            validate(b"abc", OctetString(fixed_length=4))

    def test_fixed_count_array(self):
        validate([1, 2], ArrayOf(Int32(), fixed_count=2))
        with pytest.raises(PresentationError, match="exactly 2"):
            validate([1], ArrayOf(Int32(), fixed_count=2))

    def test_struct_missing_field_named(self):
        with pytest.raises(PresentationError, match="missing"):
            validate({"x": 1}, POINT)

    def test_struct_extra_field_named(self):
        with pytest.raises(PresentationError, match="extra"):
            validate({"x": 1, "y": 2, "z": 3}, POINT)

    def test_error_names_path(self):
        bad = dict(RECORD_VALUE, tags=["a", 5])
        with pytest.raises(PresentationError, match=r"tags\[1\]"):
            validate(bad, RECORD)

    def test_wrong_container_type(self):
        with pytest.raises(PresentationError):
            validate("not a list", ArrayOf(Int32()))
        with pytest.raises(PresentationError):
            validate([1], POINT)


class TestStruct:
    def test_duplicate_fields_rejected(self):
        with pytest.raises(PresentationError):
            Struct((Field("a", Int32()), Field("a", Int32())))

    def test_field_type_lookup(self):
        assert isinstance(POINT.field_type("x"), Int32)
        with pytest.raises(PresentationError):
            POINT.field_type("z")

    def test_describe(self):
        assert "x: Int32" in POINT.describe()
        assert ArrayOf(Int32(), 3).describe() == "ArrayOf(Int32, 3)"
        assert OctetString(4).describe() == "OctetString[4]"


class TestPaths:
    def test_flatten_order(self):
        paths = list(flatten_paths(RECORD_VALUE, RECORD))
        assert paths == [
            ("id",),
            ("tags", 0),
            ("tags", 1),
            ("point", "x"),
            ("point", "y"),
            ("blob",),
            ("ok",),
        ]

    def test_scalar_flattens_to_root(self):
        assert list(flatten_paths(5, Int32())) == [()]
