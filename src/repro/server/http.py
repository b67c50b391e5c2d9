"""Minimal HTTP layer: enough to serve fixed-size objects over TLS.

The paper's workloads request fixed-size files (4 KB – 1024 KB for
Figure 10, a <100 B page for Figure 11); requests carry the desired
size in the path, e.g. ``GET /file?size=65536``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HttpRequest", "HttpResponse", "encode_request", "parse_request",
           "RESPONSE_HEADER_SIZE"]

#: Bytes of response head (status line + headers) preceding the body.
RESPONSE_HEADER_SIZE = 170


@dataclass(frozen=True)
class HttpRequest:
    """A parsed HTTP request."""

    path: str
    size: int               # requested object size in bytes
    keepalive: bool = True


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body_size: int


def encode_request(size: int, keepalive: bool = True) -> bytes:
    """Client-side request bytes."""
    ka = "keep-alive" if keepalive else "close"
    return (f"GET /file?size={size} HTTP/1.1\r\n"
            f"Connection: {ka}\r\n\r\n").encode()


def parse_request(raw: bytes) -> HttpRequest:
    """Server-side parse; raises ValueError on malformed input."""
    try:
        text = raw.decode()
        request_line, *headers = text.split("\r\n")
        method, path, _version = request_line.split(" ")
        if method != "GET":
            raise ValueError(f"unsupported method {method}")
        size = 0
        if "size=" in path:
            size = int(path.split("size=", 1)[1].split("&")[0])
        if size < 0:
            raise ValueError("negative size")
        keepalive = not any(h.lower() == "connection: close"
                            for h in headers)
        return HttpRequest(path=path, size=size, keepalive=keepalive)
    except (UnicodeDecodeError, ValueError, IndexError) as e:
        raise ValueError(f"malformed request: {e}") from None

