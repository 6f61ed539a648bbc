import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from vulnfuse.corpus import Contract, Dataset


@pytest.fixture
def taxonomy5():
    return ("reentrancy", "integer-overflow", "unchecked-call",
            "timestamp-dependence", "tx-origin-auth")


def make_dataset(sources_labels, taxonomy, split="train", prefix="c"):
    """Dataset from (source, bits) pairs; sources are used verbatim."""
    contracts = tuple(
        Contract(id=f"{prefix}{i:03d}", source=src,
                 labels=tuple(bits) if bits is not None else None)
        for i, (src, bits) in enumerate(sources_labels)
    )
    return Dataset(contracts=contracts, taxonomy=tuple(taxonomy),
                   split={c.id: split for c in contracts})


@pytest.fixture
def dataset_factory():
    return make_dataset


class MockEndpoint:
    """Local HTTP server whose behavior is a function of the request body."""

    def __init__(self, reply_fn):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append({"body": body, "headers": dict(self.headers)})
                status, payload = reply_fn(body)
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.requests = []
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}/"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def mock_endpoint():
    return MockEndpoint
