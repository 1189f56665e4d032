"""HTTP client for the replay daemon (stdlib ``urllib`` only).

:class:`DaemonClient` is what the ``repro submit/status/result/...``
subcommands use, and what scripts can import directly.  Every method
mirrors one route of :mod:`repro.daemon.server` and returns the parsed
JSON payload; API errors surface as :class:`DaemonClientError` with the
HTTP status and the server's ``error`` message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.daemon.server import CLIENT_HEADER, DEFAULT_HOST, DEFAULT_PORT

#: Default daemon URL the client CLI talks to.
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


class DaemonClientError(RuntimeError):
    """An API call failed; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str, error_type: Optional[str] = None) -> None:
        super().__init__(f"daemon returned {status}: {message}")
        self.status = status
        self.message = message
        self.error_type = error_type


class DaemonClient:
    """A client identity talking to one daemon."""

    def __init__(self, url: str = DEFAULT_URL, client_id: str = "anonymous", timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=data,
            method=method,
            headers={
                CLIENT_HEADER: self.client_id,
                "Content-Type": "application/json",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                payload = json.loads(error.read().decode("utf-8"))
            except (ValueError, OSError):
                payload = {}
            finally:
                error.close()  # it holds the response's socket
            raise DaemonClientError(
                error.code,
                str(payload.get("error") or error.reason),
                payload.get("error_type"),
            ) from None
        except urllib.error.URLError as error:
            raise DaemonClientError(0, f"cannot reach daemon at {self.url}: {error.reason}") from None

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def submit(
        self, kind: str, payload: Dict[str, Any], priority: int = 0
    ) -> Dict[str, Any]:
        body = {"spec": {"kind": kind, "payload": payload}, "priority": priority}
        return self._request("POST", "/jobs", body)

    def list_jobs(self, all_owners: bool = False) -> Dict[str, Any]:
        return self._request("GET", "/jobs?all=1" if all_owners else "/jobs")

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def snapshot(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/snapshot")

    def pause(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/pause")

    def resume(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/resume")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.2,
        until: tuple = ("completed", "failed", "cancelled", "paused"),
    ) -> Dict[str, Any]:
        """Poll ``status`` until the job reaches a resting state."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in until:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} after {timeout}s"
                )
            time.sleep(poll_s)
