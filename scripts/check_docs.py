#!/usr/bin/env python3
"""Documentation drift gate for the CI `docs` job (scripts/check.sh --docs).

Three checks over README.md, DESIGN.md, and docs/*.md:

1. LINKS — every relative markdown link target must exist on disk,
   resolved against the file containing the link (http(s)/mailto and
   pure-anchor links are skipped; a `#fragment` suffix is stripped
   before the existence check).

2. INVENTORY — the bench/test names the docs talk about must match the
   tree in BOTH directions:
   * every `bench_*` / `test_*` token named anywhere in the scanned docs
     must exist as a source file under bench/ or tests/ (a doc naming a
     deleted binary is stale);
   * every bench binary in bench/bench_*.cpp must be named in
     docs/benchmarks.md (a binary the benchmark guide does not cover is
     undocumented), and every test in tests/test_*.cpp or
     tests/test_*.py must be named somewhere in the scanned docs.

3. MESSAGE TYPES — the message-type table in docs/wire-protocol.md is the
   normative list of `MsgType` values, so it must match the enum in
   include/serve/wire.hpp in BOTH directions: every enumerator appears
   as a request or reply row with the same value, every such row names
   an enumerator, and no row marked retired names a value or a name the
   enum still uses (retired values are never reused).

Exit status: 0 = docs in sync, 1 = stale link, inventory or message-type
drift.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TOKEN_RE = re.compile(r"\b(?:bench|test)_[A-Za-z0-9_]+\b")
MSGTYPE_ENUM_RE = re.compile(r"enum class MsgType\b[^{]*\{(.*?)\};", re.S)
ENUMERATOR_RE = re.compile(r"\b(k[A-Za-z0-9]+)\s*=\s*(\d+)")
MSGTYPE_ROW_RE = re.compile(
    r"^\|\s*(\d+)\s*\|\s*`(k[A-Za-z0-9]+)`\s*\|\s*(request|reply|retired)\s*\|")

failures = 0


def fail(msg):
    global failures
    print(f"FAIL: {msg}")
    failures += 1


def check_links(doc):
    text = doc.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = (doc.parent / target.split("#", 1)[0]).resolve()
        if not path.exists():
            fail(f"{doc.relative_to(ROOT)}: broken link '{target}'")


def source_names(directory, prefix):
    return {p.stem for p in (ROOT / directory).glob(f"{prefix}_*")
            if p.suffix in (".cpp", ".hpp", ".py")}


def check_msg_types():
    header = ROOT / "include" / "serve" / "wire.hpp"
    spec = ROOT / "docs" / "wire-protocol.md"
    match = MSGTYPE_ENUM_RE.search(header.read_text(encoding="utf-8"))
    if match is None:
        fail(f"{header.relative_to(ROOT)}: no `enum class MsgType` found")
        return
    enum = {name: int(value)
            for name, value in ENUMERATOR_RE.findall(match.group(1))}

    text = spec.read_text(encoding="utf-8")
    section = text.split("\n## Message types\n", 1)
    if len(section) != 2:
        fail(f"{spec.relative_to(ROOT)}: no '## Message types' section")
        return
    table = section[1].split("\n## ", 1)[0]
    live = {}
    retired = {}
    for line in table.splitlines():
        if not re.match(r"^\|\s*\d", line):
            continue  # prose, the header row or the separator
        row = MSGTYPE_ROW_RE.match(line)
        if row is None:
            fail(f"{spec.relative_to(ROOT)}: unparseable message-type row "
                 f"'{line}'")
            continue
        value, name, direction = int(row.group(1)), row.group(2), row.group(3)
        (retired if direction == "retired" else live)[name] = value

    for name, value in sorted(enum.items(), key=lambda kv: kv[1]):
        if name not in live:
            fail(f"MsgType::{name} = {value} is not in the message-type "
                 f"table of {spec.relative_to(ROOT)}")
        elif live[name] != value:
            fail(f"MsgType::{name} is {value} in wire.hpp but "
                 f"{live[name]} in {spec.relative_to(ROOT)}")
    for name, value in sorted(live.items(), key=lambda kv: kv[1]):
        if name not in enum:
            fail(f"{spec.relative_to(ROOT)} lists `{name}` = {value}, which "
                 f"MsgType does not define")
    enum_values = {value: name for name, value in enum.items()}
    for name, value in sorted(retired.items(), key=lambda kv: kv[1]):
        if value in enum_values:
            fail(f"retired message type {value} (`{name}`) is reused by "
                 f"MsgType::{enum_values[value]}")
        elif name in enum:
            fail(f"retired message type `{name}` is still a MsgType")
    return len(enum)


def main():
    for doc in DOC_FILES:
        if not doc.exists():
            fail(f"expected doc file missing: {doc.relative_to(ROOT)}")
    if failures:
        print(f"docs gate: {failures} failure(s)")
        return 1

    for doc in DOC_FILES:
        check_links(doc)

    benches = source_names("bench", "bench")
    tests = source_names("tests", "test")
    known = benches | tests

    # Forward: every name the docs use must exist in the tree.
    mentioned = set()
    for doc in DOC_FILES:
        for token in TOKEN_RE.findall(doc.read_text(encoding="utf-8")):
            mentioned.add(token)
            if token not in known:
                fail(f"{doc.relative_to(ROOT)}: names '{token}' but no "
                     f"bench/{token}.cpp or tests/{token}.cpp exists")

    # Reverse: every bench binary must be covered by the benchmark guide,
    # and every test must be named somewhere in the scanned docs.
    bench_doc = (ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    bench_doc_names = set(TOKEN_RE.findall(bench_doc))
    for name in sorted(benches - {"bench_common"}):
        if name not in bench_doc_names:
            fail(f"docs/benchmarks.md does not cover bench/{name}.cpp")
    test_files = [p for p in (ROOT / "tests").glob("test_*")
                  if p.suffix in (".cpp", ".py")]
    for path in sorted(test_files):
        if path.stem not in mentioned:
            fail(f"tests/{path.name} is not named in any scanned doc "
                 f"(README.md, DESIGN.md, docs/*.md)")

    msg_types = check_msg_types()

    if failures:
        print(f"docs gate: {failures} failure(s)")
        return 1
    print(f"docs gate: {len(DOC_FILES)} files, {len(benches)} bench sources, "
          f"{len(tests)} tests, {msg_types} message types — links resolve, "
          f"inventory and wire spec in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
