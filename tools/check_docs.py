#!/usr/bin/env python3
"""Docs-consistency gate (run as a ctest; wired in tools/CMakeLists.txt).

Four invariants:

  1. every --flag printed by `bst_solve --help` and `bst_report --help`
     is documented somewhere under docs/;
  2. the BST_* variables declared in the table of src/util/env.cc and the
     environment table of docs/API.md list the same names, in both
     directions;
  3. every BST_* name referenced as a string literal in src/, tools/ or
     bench/ is declared in that table (the reader rejects any other);
  4. no file under src/, tools/ or bench/ other than src/util/env.cc reads
     the environment through the C library's lookup call, so one module
     decides how every setting is read.

A flag or env var that ships undocumented fails the build -- the docs and
the binaries drift apart exactly once, at review time, not at use time.

Usage: check_docs.py --repo=<repo root> --bst-solve=<path> --bst-report=<path>
"""

import pathlib
import re
import subprocess
import sys

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
ENV_RE = re.compile(r'"(BST_[A-Z0-9_]+)"')
DOC_ENV_RE = re.compile(r"`(BST_[A-Z0-9_]+)`")
# Spelled in two pieces so that this file does not match itself.
LOOKUP_RE = re.compile(r"\bget" r"env\b")
ENV_TABLE = pathlib.Path("src/util/env.cc")
SOURCE_DIRS = ("src", "tools", "bench")


def parse_args(argv):
    args = {}
    for arg in argv:
        if not arg.startswith("--") or "=" not in arg:
            sys.exit(f"check_docs: unexpected argument '{arg}'")
        key, _, value = arg[2:].partition("=")
        args[key] = value
    missing = {"repo", "bst-solve", "bst-report"} - set(args)
    if missing:
        sys.exit(f"check_docs: missing arguments: {sorted(missing)}")
    return args


def help_flags(binary):
    out = subprocess.run([binary, "--help"], capture_output=True, text=True, check=True)
    flags = set(FLAG_RE.findall(out.stdout))
    if not flags:
        sys.exit(f"check_docs: '{binary} --help' printed no --flags")
    return flags


def source_files(repo):
    for sub in SOURCE_DIRS:
        for path in sorted((repo / sub).rglob("*")):
            if path.is_file() and path.suffix in {".h", ".cc", ".py", ".txt"}:
                yield path


def declared_env_vars(repo):
    """Names in the kVars table of src/util/env.cc."""
    text = (repo / ENV_TABLE).read_text()
    start = text.find("kVars = {")
    end = text.find("\n};", start)
    if start < 0 or end < 0:
        sys.exit(f"check_docs: no kVars table in {ENV_TABLE}")
    return set(ENV_RE.findall(text[start:end]))


def api_env_vars(repo):
    """Names in the first column of the environment table of docs/API.md."""
    text = (repo / "docs" / "API.md").read_text()
    section = text.partition("## Environment variables")[2].partition("\n## ")[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `BST_"):
            names.update(DOC_ENV_RE.findall(line.split("|")[1]))
    if not names:
        sys.exit("check_docs: docs/API.md has no environment table")
    return names


def main(argv):
    args = parse_args(argv)
    repo = pathlib.Path(args["repo"])
    docs = ""
    for md in sorted((repo / "docs").glob("*.md")):
        docs += md.read_text(errors="replace")

    problems = []
    for label, binary in (("bst_solve", args["bst-solve"]), ("bst_report", args["bst-report"])):
        for flag in sorted(help_flags(binary)):
            if flag not in docs:
                problems.append(f"{label} flag '{flag}' is not documented in docs/*.md")

    declared = declared_env_vars(repo)
    documented = api_env_vars(repo)
    for name in sorted(declared - documented):
        problems.append(f"'{name}' is declared in {ENV_TABLE} but missing from docs/API.md")
    for name in sorted(documented - declared):
        problems.append(f"'{name}' is listed in docs/API.md but not declared in {ENV_TABLE}")

    for path in source_files(repo):
        text = path.read_text(errors="replace")
        rel = path.relative_to(repo)
        for name in sorted(set(ENV_RE.findall(text))):
            # Names ending in '_' are prefixes (the "BST_" family base),
            # not variables themselves.
            if not name.endswith("_") and name not in declared:
                problems.append(f"{rel} names '{name}', which {ENV_TABLE} does not declare")
        if rel != ENV_TABLE and LOOKUP_RE.search(text):
            problems.append(f"{rel} reads the environment directly; use util/env.h")

    if problems:
        print("check_docs: documentation drift detected:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_docs: all CLI flags are documented; the {len(declared)} BST_* variables "
          f"match docs/API.md and are read only through {ENV_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
