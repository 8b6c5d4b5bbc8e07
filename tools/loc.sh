#!/usr/bin/env bash
# Non-test Rust lines per crate, at a revision and in the working tree.
#
#   tools/loc.sh [REV]        (default HEAD)
#
# Counts every line (code, comments, blanks) of each `*.rs` file that is
# not under a `tests/`, `benches/` or `vendor/` directory, minus its
# `#[cfg(test)] mod … { }` blocks — the "non-test lines" figure CHANGES.md
# entries quote. Files outside `crates/<name>/` are grouped by their
# top-level directory. The working-tree side counts tracked and untracked,
# not ignored, files as they are on disk.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
rev=${1:-HEAD}
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "usage: $0 [REV]" >&2; exit 2; }

python3 - "$rev" <<'EOF'
import re, subprocess, sys
from collections import Counter

rev = sys.argv[1]

def git(*args):
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout

def counted(path):
    parts = path.split("/")
    return path.endswith(".rs") and not {"tests", "benches", "vendor"} & set(parts[:-1])

def crate(path):
    parts = path.split("/")
    return "/".join(parts[:2]) if parts[0] == "crates" else parts[0]

def non_test_lines(text):
    """Lines outside `#[cfg(test)] mod … { }` blocks. rustfmt closes a
    block with a lone `}` at the indentation of its `mod` line."""
    lines, n, i = text.splitlines(), 0, 0
    while i < len(lines):
        attr = re.fullmatch(r"(\s*)#\[cfg\(test\)\]", lines[i])
        if attr and i + 1 < len(lines) and re.match(r"\s*(pub(\(.*\))? )?mod \w+ \{", lines[i + 1]):
            close = attr.group(1) + "}"
            i += 2
            while i < len(lines) and lines[i] != close:
                i += 1
        else:
            n += 1
        i += 1
    return n

def tally(paths, read):
    t = Counter()
    for p in filter(counted, paths):
        t[crate(p)] += non_test_lines(read(p).decode("utf-8", "replace"))
    return t

at_rev = tally(git("ls-tree", "-r", "--name-only", "-z", rev).decode().split("\0"),
               lambda p: git("show", f"{rev}:{p}"))
tree_paths = git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0")
def on_disk(p):
    try:
        return open(p, "rb").read()
    except FileNotFoundError:  # deleted, not yet staged
        return b""
in_tree = tally(tree_paths, on_disk)

short = git("rev-parse", "--short", rev).decode().strip()
print(f"{'crate':<20} {short:>10} {'tree':>10} {'delta':>8}")
for c in sorted(set(at_rev) | set(in_tree)) + ["total"]:
    a = sum(at_rev.values()) if c == "total" else at_rev[c]
    b = sum(in_tree.values()) if c == "total" else in_tree[c]
    print(f"{c:<20} {a:>10} {b:>10} {b - a:>+8}")
EOF
