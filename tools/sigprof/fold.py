#!/usr/bin/env python3
"""Folds a sigprof.so dump into tables.

    fold.py run.prof [--exe PATH] [--repo /crates/] [--top 30] [--callers SYMBOL]

Prints three tables, each in samples and percent of all samples: by leaf
function (innermost inlined frame at the interrupted pc), by the first
frame whose source file is in this repository (path contains --repo), and
inclusive (a function counts once a sample, wherever on the stack). With
--callers, the repository frames directly above any frame matching SYMBOL.
Frames outside the executable are named by their mapping: [libc.so.6],
[vdso]. Build the executable with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only.
"""
import argparse
import collections
import os
import subprocess
import sys


def load(path):
    samples, maps, in_maps = [], [], False
    for line in open(path):
        if in_maps:
            f = line.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        elif line.startswith("MAPS"):
            in_maps = True
        elif line.startswith("DROPPED"):
            if int(line.split()[1]):
                print("warning:", line.strip().lower(), "samples (buffer full)")
        elif line.strip():
            samples.append([int(x, 16) for x in line.split()])
    return samples, maps


def symbolize(exe, offsets):
    """offset -> [(function, file)], innermost inlined frame first."""
    offsets = sorted(offsets)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe] + [hex(o) for o in offsets],
        capture_output=True, text=True, check=True).stdout.splitlines()
    table, cur, k = {}, None, 0
    while k < len(out):
        if out[k].startswith("0x"):
            cur = table.setdefault(int(out[k], 16), [])
            k += 1
        else:
            cur.append((out[k], out[k + 1].split(":")[0]))
            k += 2
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--exe", help="default: the first file-backed mapping in the dump")
    ap.add_argument("--repo", default="/crates/", help="substring of this repository's source paths")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--callers")
    args = ap.parse_args()
    samples, maps = load(args.dump)
    # /proc/self/maps names files by absolute, resolved path.
    exe = os.path.realpath(args.exe) if args.exe else next(m[3] for m in maps if m[3].startswith("/"))
    bases = [lo - off for lo, hi, off, name in maps if name == exe]
    if not bases:
        sys.exit("%s holds no mapping of %s: is --exe the binary that was profiled?" % (args.dump, exe))
    # A PIE is mapped at a random base: file offset 0 of the executable.
    base = min(bases)

    def locate(pc):
        for lo, hi, _, name in maps:
            if lo <= pc < hi:
                if name == exe:
                    return pc - base, None
                return None, name if name.startswith("[") else "[%s]" % os.path.basename(name)
        return None, "[unmapped]"

    # Every pc but the interrupted one is a return address: look up the call before it.
    located = [[locate(pc - (k > 0)) for k, pc in enumerate(s)] for s in samples]
    table = symbolize(exe, {off for s in located for off, _ in s if off is not None})
    stacks = []  # per sample: [(function, file)], leaf first, inlined frames expanded
    for s in located:
        stacks.append([fr for off, lib in s
                       for fr in (table.get(off) or [("??", "??")] if lib is None else [(lib, lib)])])

    total = len(stacks)
    leaf, first_repo, inclusive, callers = (collections.Counter() for _ in range(4))
    for st in stacks:
        if not st:
            continue
        leaf[st[0][0]] += 1
        first_repo[next((fn for fn, file in st if args.repo in file), "(none)")] += 1
        inclusive.update({fn for fn, _ in st})
        if args.callers:
            for k, (fn, _) in enumerate(st):
                if args.callers in fn:
                    callers[next((c for c, file in st[k + 1:] if args.repo in file
                                  and args.callers not in c), "(none)")] += 1
                    break

    def show(title, counter):
        print("\n%s (%d samples)" % (title, total))
        for fn, n in counter.most_common(args.top):
            print("%7d %5.1f%%  %s" % (n, 100.0 * n / total, fn))

    show("leaf", leaf)
    show("first frame in " + args.repo, first_repo)
    show("inclusive", inclusive)
    if args.callers:
        show("callers of " + args.callers, callers)


if __name__ == "__main__":
    main()
