#!/usr/bin/env python3
"""Counts the non-test lines of Rust under `crates/*/src`.

    python3 scripts/src_lines.py

Paths are taken relative to the repository root, wherever the script is
run from. A line counts when it is in a `.rs` file under some
`crates/<name>/src/` (subdirectories such as `src/bin/` included) and is
not test code. Test code is:

- a whole file named `tests.rs` or `proptests.rs` (the test modules that
  `#[cfg(test)] mod tests;` declares);
- an item that starts with a line-initial `#[cfg(test)]`: the attribute
  line, then either the next line when it ends in `;` (a module
  declaration), or every line through the next line that is exactly `}`
  (an inline test module).

Every other line counts: code, comments, doc comments and blank lines.
One line per crate is printed, then the total.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_FILES = {"tests.rs", "proptests.rs"}


def counted_lines(lines):
    """The number of `lines` outside `#[cfg(test)]` items."""
    count, i = 0, 0
    while i < len(lines):
        if lines[i].rstrip("\n") != "#[cfg(test)]":
            count += 1
            i += 1
            continue
        i += 1
        if i < len(lines) and lines[i].rstrip().endswith(";"):
            i += 1
            continue
        while i < len(lines) and lines[i].rstrip("\n") != "}":
            i += 1
        i += 1
    return count


def main():
    crates_dir = os.path.join(ROOT, "crates")
    total = 0
    for crate in sorted(os.listdir(crates_dir)):
        src = os.path.join(crates_dir, crate, "src")
        n = 0
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".rs") and name not in TEST_FILES:
                    with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                        n += counted_lines(f.readlines())
        print(f"{crate:<16} {n:>7}")
        total += n
    print(f"non-test lines under crates/*/src: {total}")


if __name__ == "__main__":
    main()
