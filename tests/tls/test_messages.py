"""Handshake message encodings: each frozen message encodes itself
once and reuses the bytes, and the cached bytes stay invisible to the
dataclass machinery."""

import dataclasses

import pytest

from repro.tls.messages import (Alert, ChangeCipherSpec, ClientHello,
                                HandshakeMessage, _encode_field,
                                transcript_hash)

MESSAGE_CLASSES = sorted(HandshakeMessage.__subclasses__(),
                         key=lambda cls: cls.__name__)


def sample_value(annotation: str, salt: int):
    """A non-default value of the field's annotated type."""
    if "Tuple[int" in annotation:
        return (salt, salt + 1)
    if "Tuple[str" in annotation:
        return (f"a{salt}", f"b{salt}")
    if "bytes" in annotation:
        return bytes([salt, salt + 1, salt + 2])
    if "bool" in annotation:
        return True
    if "int" in annotation:
        return 40 + salt
    if "str" in annotation:
        return f"v{salt}"
    raise AssertionError(f"no sample for {annotation!r}")


def sample_kwargs(cls, salt: int = 1) -> dict:
    return {f.name: sample_value(f.type, salt + i)
            for i, f in enumerate(dataclasses.fields(cls))}


def fresh_encoding(msg) -> bytes:
    """The canonical encoding, computed without any cache."""
    if isinstance(msg, ChangeCipherSpec):
        return b"\x14ccs"
    if isinstance(msg, Alert):
        return b"\x15" + msg.description.encode()
    out = int(msg.msg_type).to_bytes(1, "big")
    for f in dataclasses.fields(msg):
        out += _encode_field(getattr(msg, f.name))
    return out


def test_every_message_class_is_covered():
    assert len(MESSAGE_CLASSES) == 12


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_field_names_resolved_once_match_fields(cls):
    assert cls._field_names == tuple(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("populated", [False, True])
def test_cached_encoding_equals_fresh_encoding(cls, populated):
    kwargs = sample_kwargs(cls) if populated else {}
    msg = cls(**kwargs)
    first = msg.to_bytes()
    assert msg.to_bytes() == first
    assert first == fresh_encoding(msg)
    twin = cls(**kwargs)
    assert twin.to_bytes() == first


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_cache_invisible_to_eq_hash_repr_and_fields(cls):
    kwargs = sample_kwargs(cls)
    encoded, plain = cls(**kwargs), cls(**kwargs)
    encoded.to_bytes()
    assert encoded == plain
    assert hash(encoded) == hash(plain)
    assert repr(encoded) == repr(plain)
    assert ([f.name for f in dataclasses.fields(encoded)]
            == [f.name for f in dataclasses.fields(plain)])
    assert dataclasses.asdict(encoded) == dataclasses.asdict(plain)
    assert encoded.wire_size() == plain.wire_size()


def test_messages_stay_frozen():
    msg = ClientHello(client_random=b"r")
    msg.to_bytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.client_random = b"s"


def test_replace_encodes_its_own_fields():
    """The TLS 1.3 PSK binder path: the binder is computed over the
    ClientHello without a binder, then set with ``replace``."""
    bare = ClientHello(client_random=b"r" * 32, session_ticket=b"t",
                       psk_binder=None)
    bare_bytes = bare.to_bytes()
    bound = dataclasses.replace(bare, psk_binder=b"binder")
    assert bound.to_bytes() == fresh_encoding(bound)
    assert bound.to_bytes() != bare_bytes
    assert bare.to_bytes() == bare_bytes == fresh_encoding(bare)
    unbound = dataclasses.replace(bound, psk_binder=None)
    assert unbound.to_bytes() == bare_bytes
    assert transcript_hash([unbound]) == transcript_hash([bare])
