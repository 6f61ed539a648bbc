"""Stand-in remote detector speaking vulnfuse's external wire protocol.

`POST /` with {"source", "taxonomy"} answers {"probabilities": [...]} after a
fixed service delay, or 503 for a fixed ~5% of sources chosen by source
hash, so the client's retry path and the verifier's 0.5 imputation both run.
`GET /stats` returns the counters since the previous read and resets them.

Run as `python3 endpoint.py`: it binds a free localhost port, prints the
port on one line and serves one request at a time until terminated.
"""

from __future__ import annotations

import hashlib
import json
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

SERVICE_DELAY_S = 0.02
ERROR_ONE_IN = 20

# substring that marks each synthetic label's planted pattern
SIGNATURES = {
    "reentrancy": ".call{value:",
    "integer-overflow": "uint8(",
    "unchecked-call": ".send(",
    "timestamp-dependence": "block.timestamp",
    "tx-origin-auth": "tx.origin",
}


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def answers_503(source: str) -> bool:
    """Whether every request for this source is refused."""
    return _digest(source) % ERROR_ONE_IN == 0


def probabilities(source: str, taxonomy) -> list[float]:
    """Signature match as 0.8/0.2, with one label in six flipped by hash."""
    out = []
    for label in taxonomy:
        sig = SIGNATURES.get(label)
        if sig is None:
            out.append(0.5)
            continue
        hit = sig in source
        if _digest(label + "\0" + source) % 6 == 0:
            hit = not hit
        out.append(0.8 if hit else 0.2)
    return out


class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stats = self.server.stats
        stats["requests"] += 1
        stats["sources"].add(_digest(body["source"]))
        time.sleep(SERVICE_DELAY_S)
        if answers_503(body["source"]):
            stats["errors_served"] += 1
            self._reply(503, {"error": "unavailable"})
        else:
            self._reply(200, {"probabilities": probabilities(body["source"], body["taxonomy"])})

    def do_GET(self):
        stats = self.server.stats
        self._reply(200, {"requests": stats["requests"],
                          "errors_served": stats["errors_served"],
                          "distinct_sources": len(stats["sources"])})
        self.server.stats = new_stats()

    def _reply(self, code: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def new_stats() -> dict:
    return {"requests": 0, "errors_served": 0, "sources": set()}


def make_server(port: int = 0) -> HTTPServer:
    server = HTTPServer(("127.0.0.1", port), Handler)
    server.stats = new_stats()
    return server


if __name__ == "__main__":
    srv = make_server()
    print(srv.server_address[1], flush=True)
    srv.serve_forever()
