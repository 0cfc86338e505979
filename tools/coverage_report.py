#!/usr/bin/env python3
"""Print line coverage per src/ module of a --coverage build, with gcov only.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov --target iecd_tests -j
    ctest --test-dir build-cov -j
    python3 tools/coverage_report.py build-cov

Runs gcov in JSON mode over every .gcda file under the build directory and
merges the line records of each source file across translation units: a
header counts once, and a line is covered if any unit executed it.  Prints
covered / total executable lines per module (src/<module>/) and overall.
A report, not a gate: it exits 0 whatever the figures are.
"""
import argparse
import collections
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


def gcov_documents(directory, names):
    """The JSON documents gcov prints for the .gcda files \\p names."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", *names],
                         cwd=directory, capture_output=True, text=True,
                         check=True).stdout
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return
        doc, pos = decoder.raw_decode(out, pos)
        yield doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="build tree with .gcda files")
    args = parser.parse_args()

    covered = collections.defaultdict(dict)  # source -> {line: executed}
    for directory, _, files in os.walk(args.build_dir):
        names = sorted(f for f in files if f.endswith(".gcda"))
        if not names:
            continue
        for doc in gcov_documents(directory, names):
            cwd = doc.get("current_working_directory", directory)
            for record in doc["files"]:
                path = os.path.normpath(os.path.join(cwd, record["file"]))
                if not path.startswith(SRC):
                    continue
                lines = covered[path]
                for line in record["lines"]:
                    number = line["line_number"]
                    lines[number] = lines.get(number, False) or line["count"] > 0

    if not covered:
        print("coverage_report: no .gcda data for src/ under %s" %
              args.build_dir, file=sys.stderr)
        return 0
    modules = collections.defaultdict(lambda: [0, 0])  # module -> [hit, total]
    for path, lines in covered.items():
        module = os.path.relpath(path, SRC).split(os.sep)[0]
        modules[module][0] += sum(lines.values())
        modules[module][1] += len(lines)
    print("%-10s %8s %8s %7s" % ("module", "covered", "lines", "percent"))
    hit_all = total_all = 0
    for module in sorted(modules):
        hit, total = modules[module]
        hit_all += hit
        total_all += total
        print("%-10s %8d %8d %6.1f%%" % (module, hit, total, 100.0 * hit / total))
    print("%-10s %8d %8d %6.1f%%" %
          ("all", hit_all, total_all, 100.0 * hit_all / total_all))
    return 0


if __name__ == "__main__":
    sys.exit(main())
