"""Loopback chat-completion endpoint that answers from a reply plan.

Usage: python3 stub.py PLAN_JSON PORT_FILE

Listens on 127.0.0.1 at a free port and writes the port to PORT_FILE once it
accepts connections. A prompt is matched to its plan entry by the commit tag
in the added lines of its hunks and by the build system named in its
instruction. The reply takes the entry's shape; a garbled entry gets a reply
that matches no shape first and a good one after the strict reprompt. The
stub never answers 429 or 5xx. It speaks HTTP/1.1 with keep-alive, so a
client that reuses its connection saves the connect, and it serves each
connection in a thread of its own. Every request is logged in memory:
GET /log returns the log and POST /reset clears it. Stop it with SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TAG_RE = re.compile(r"^\+.*\brev (c\d+)", re.M)
SYSTEM_RE = re.compile(r"applied on (\w+) build scripts")
GARBLED = "Sorry, the change above is too ambiguous for me to classify right now."
SENTINEL = "No refactorings found."


def reply_text(entry: dict, reprompt: bool) -> str:
    if entry["garble"] and not reprompt:
        return GARBLED
    labels = [{"RefactoringType": t, "Details": d} for t, d in entry["labels"]]
    shape = entry["shape"]
    if shape == "sentinel":
        return SENTINEL
    if shape == "object":
        return json.dumps(labels[0])
    if shape == "fenced":
        return (
            "Here is what I found in the change:\n```json\n"
            + json.dumps(labels, indent=2)
            + "\n```\nEach entry names one refactoring."
        )
    return json.dumps(labels)


class StubServer(ThreadingHTTPServer):
    def __init__(self, plan: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.plan = plan
        self.log: list[dict] = []
        self.lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    server: StubServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/log":
            return self._send(404, {"error": "not found"})
        with self.server.lock:
            return self._send(200, list(self.server.log))

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            with self.server.lock:
                self.server.log.clear()
            return self._send(200, {"ok": True})
        messages = json.loads(raw)["messages"]
        prompt = messages[0]["content"]
        tags = set(TAG_RE.findall(prompt))
        system = SYSTEM_RE.search(prompt)
        entry = None
        if len(tags) == 1 and system:
            tag = tags.pop()
            entry = self.server.plan.get(tag, {}).get(system.group(1))
        if entry is None:
            return self._send(400, {"error": "prompt matches no plan entry"})
        reprompt = len(messages) > 1
        content = reply_text(entry, reprompt)
        with self.server.lock:
            self.server.log.append({
                "tag": tag,
                "system": system.group(1),
                "reprompt": reprompt,
                "prompt_bytes": len(prompt.encode("utf-8")),
                "content": content,
            })
        return self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})


class StubClient:
    """Reads and clears the stub's request log; ignores proxy settings."""

    def __init__(self, url: str) -> None:
        self.url = url
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def log(self) -> list[dict]:
        with self._opener.open(self.url + "/log", timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        req = urllib.request.Request(self.url + "/reset", data=b"{}", method="POST")
        with self._opener.open(req, timeout=30) as resp:
            resp.read()


def main(argv: list[str]) -> None:
    plan_path, port_file = argv
    with open(plan_path, encoding="utf-8") as fh:
        server = StubServer(json.load(fh))
    tmp = port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, port_file)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
