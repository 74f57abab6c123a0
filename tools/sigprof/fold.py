#!/usr/bin/env python3
"""Folds a sigprof.so dump into tables.

    fold.py run.prof [--exe PATH] [--repo /crates/] [--top 30] [--callers SYMBOL]

Prints four tables, each in samples and percent of all samples: by leaf
function (innermost inlined frame at the interrupted pc), by the first
frame whose source file is in this repository (path contains --repo),
inclusive (a function counts once a sample, wherever on the stack), and by
thread (samples grouped by the closure the thread was spawned with, and
named by the function they most often show it running: the outermost
repository frame under `thread_start` that is not a closure; `main` for
stacks with no `thread_start`). With
--callers, the repository frames directly above any frame matching SYMBOL.
Frames outside the executable are named by their mapping: [libc.so.6],
[vdso]. Build the executable with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only.
A dump names the size and mtime of the executable that ran; folding against
a file that differs from it (a rebuild since the run) is refused.
"""
import argparse
import collections
import os
import subprocess
import sys


def load(path):
    samples, maps, in_maps, stamp = [], [], False, None
    for line in open(path):
        if in_maps:
            f = line.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        elif line.startswith("MAPS"):
            in_maps = True
        elif line.startswith("EXE"):
            stamp = tuple(int(x) for x in line.split()[1:3])
        elif line.startswith("DROPPED"):
            if int(line.split()[1]):
                print("warning:", line.strip().lower(), "samples (buffer full)")
        elif line.strip():
            samples.append([int(x, 16) for x in line.split()])
    return samples, maps, stamp


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


def spawned(stack, repo):
    """What a stack (leaf first) ran under: None on the main thread (no
    `thread_start` frame); else the closure the thread was spawned with,
    as std's `__rust_begin_short_backtrace<F, _>` frame names it, and the
    outermost repository frame under it that is not a closure (None when
    inlining left none in this stack)."""
    start = next((k for k, (fn, _) in enumerate(stack) if "thread_start" in fn), None)
    if start is None:
        return None, None
    under = stack[:start]
    closure = next((fn for fn, _ in reversed(under) if fn.startswith("__rust_begin_short_backtrace<")),
                   under[-1][0] if under else "??")
    named = next((fn for fn, file in reversed(under) if repo in file
                  and not fn.startswith("{closure") and "__rust_begin_short_backtrace" not in fn), None)
    return closure, named


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--exe", help="default: the first file-backed mapping in the dump")
    ap.add_argument("--repo", default="/crates/", help="substring of this repository's source paths")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--callers")
    args = ap.parse_args()
    samples, maps, stamp = load(args.dump)
    # /proc/self/maps names files by absolute, resolved path.
    exe = os.path.realpath(args.exe) if args.exe else next(m[3] for m in maps if m[3].startswith("/"))
    bases = [lo - off for lo, hi, off, name in maps if name == exe]
    if not bases:
        sys.exit("%s holds no mapping of %s: is --exe the binary that was profiled?" % (args.dump, exe))
    if stamp is None:
        sys.exit("%s names no executable (no EXE line), so record it again with this sigprof.so." % args.dump)
    st = os.stat(exe)
    if stamp != (st.st_size, st.st_mtime_ns):
        sys.exit("%s differs in size or mtime from the executable that %s was recorded from,"
                 " so it was rebuilt or replaced since and would be symbolized wrongly." % (exe, args.dump))
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
    leaf, first_repo, inclusive, by_closure, callers = (collections.Counter() for _ in range(5))
    names = collections.defaultdict(collections.Counter)
    for st in stacks:
        if not st:
            continue
        leaf[st[0][0]] += 1
        closure, named = spawned(st, args.repo)
        by_closure[closure] += 1
        if named:
            names[closure][named] += 1
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
    # A thread is named by the function its samples most often show it
    # spawned to run: inlining drops that frame from some stacks.
    threads = collections.Counter()
    for closure, n in by_closure.items():
        name = "main" if closure is None else (names[closure].most_common(1) or [(closure,)])[0][0]
        threads[name] += n
    show("thread", threads)
    if args.callers:
        show("callers of " + args.callers, callers)


if __name__ == "__main__":
    main()
