"""The HTTP/1.1 framing shared by the service server and the cluster router.

Stdlib only, and only what the service's JSON wire needs: a message-head
reader (:func:`read_http_head`, for requests and responses alike), one
head formatter (:func:`format_head`), and the keep-alive rule
(:func:`wants_keep_alive`).

Keep-alive is opt-in.  A connection stays open only while each request
asks for it with ``Connection: keep-alive``; any other request is
answered ``Connection: close`` and then EOF, so bare HTTP/1.1 clients
that read a response to EOF keep working (HTTP/1.1 lets a server close
after any response).
"""

from __future__ import annotations

import asyncio

__all__ = ["ConnectionClosed", "format_head", "read_http_head", "wants_keep_alive"]


class ConnectionClosed(ConnectionError):
    """The peer closed the connection before a message head began."""


async def read_http_head(
    reader: asyncio.StreamReader,
) -> tuple[list[str], dict[str, str], int]:
    """Read one HTTP/1.1 message head — a request's or a response's.

    Returns the start line split on whitespace, the headers (names
    lower-cased) and the ``Content-Length`` (0 when absent).  Raises
    :class:`ConnectionClosed` when the connection ends before the start
    line and ``ValueError`` for a non-integer length; judging the start
    line is the caller's job.
    """
    line = await reader.readline()
    if not line:
        raise ConnectionClosed("connection closed before a message head")
    start_line = line.decode("ascii", "replace").split()
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    return start_line, headers, int(headers.get("content-length", "0") or "0")


def format_head(start_line: str, headers: dict[str, object]) -> bytes:
    """One message head: the start line, then every header whose value is
    not ``None``, then the blank line."""
    lines = [start_line]
    lines.extend(
        f"{name}: {value}" for name, value in headers.items() if value is not None
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def wants_keep_alive(headers: dict[str, str]) -> bool:
    """Whether a message's (lower-cased) headers ask to keep the
    connection open: ``Connection`` lists ``keep-alive`` and not
    ``close``."""
    tokens = {
        token.strip().lower() for token in headers.get("connection", "").split(",")
    }
    return "keep-alive" in tokens and "close" not in tokens
