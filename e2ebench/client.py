"""The benchmark's HTTP client: one keep-alive connection, timed phases."""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass

#: Seconds a single request may take before the client gives up.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Reply:
    """One answered request.

    ``sent`` and ``received`` bracket the round trip (request written to
    response body read); ``decoded`` is when ``json.loads`` finished.
    """

    status: int
    body: dict | None
    sent: float
    received: float
    decoded: float
    response_bytes: int


class HttpClient:
    """POSTs JSON requests to the door over one keep-alive connection."""

    def __init__(self, port: int, tenant: str = "bench") -> None:
        self._port = port
        self._headers = {"Content-Type": "application/json", "X-Tenant": tenant}
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
            )
        return self._conn

    def post(self, request: dict) -> Reply:
        payload = json.dumps(request).encode("utf-8")
        conn = self._connection()
        sent = time.perf_counter()
        try:
            conn.request("POST", "/", body=payload, headers=self._headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        received = time.perf_counter()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        return Reply(
            response.status, body, sent, received, time.perf_counter(), len(raw)
        )

    def get_text(self, path: str) -> str:
        """A GET on the door (``/stats``), over the same connection."""
        conn = self._connection()
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
