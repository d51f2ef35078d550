#!/usr/bin/env python3
"""Documentation drift gate for the CI `docs` job (scripts/check.sh --docs).

Two checks over README.md, DESIGN.md, and docs/*.md:

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

Exit status: 0 = docs in sync, 1 = stale link or inventory drift.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md"] + sorted(
    (ROOT / "docs").glob("*.md"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
TOKEN_RE = re.compile(r"\b(?:bench|test)_[A-Za-z0-9_]+\b")

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

    if failures:
        print(f"docs gate: {failures} failure(s)")
        return 1
    print(f"docs gate: {len(DOC_FILES)} files, {len(benches)} bench sources, "
          f"{len(tests)} tests — links resolve, inventory in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
