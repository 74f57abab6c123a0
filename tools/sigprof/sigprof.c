/* Sampling profiler as an LD_PRELOAD: SIGPROF at SIGPROF_HZ (default 500)
 * of process CPU time, backtrace() of the interrupted thread into a fixed
 * buffer, and at exit the samples plus /proc/self/maps to SIGPROF_OUT
 * (default sigprof.out). fold.py turns that into tables.
 *
 * ITIMER_PROF signals coalesce while one is pending, so a multi-threaded run
 * dumps about half the expected samples (6 001 where 500 Hz x 24 CPU-s
 * predicts 12 000): the tables are shares, not totals.
 *
 * The dump also holds the size and mtime of the executable that ran, so that
 * fold.py can refuse to symbolize against a binary rebuilt since.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so SIGPROF_OUT=run.prof ./program args
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/time.h>

#define DEPTH 64
#define WORDS (1u << 22) /* 32 MiB of address space; pages are touched as used */

static void *buf[WORDS]; /* samples back to back: depth, then that many pcs */
static unsigned used;
static unsigned long dropped;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    void *pcs[DEPTH];
    int n = backtrace(pcs, DEPTH);
    unsigned at = __atomic_fetch_add(&used, (unsigned)n + 1, __ATOMIC_RELAXED);
    (void)sig, (void)si, (void)uc;
    if (at + n + 1 > WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = (void *)(long)n;
    memcpy(&buf[at + 1], pcs, n * sizeof(void *));
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    const char *path = getenv("SIGPROF_OUT");
    FILE *out, *maps;
    unsigned end = used < WORDS ? used : WORDS, at = 0;
    char line[4096];
    struct stat exe;
    setitimer(ITIMER_PROF, &off, NULL);
    if (!(out = fopen(path ? path : "sigprof.out", "w"))) return;
    while (at < end && at + 1 + (unsigned long)buf[at] <= end) {
        unsigned long n = (unsigned long)buf[at++];
        /* pcs[0] is on_prof and pcs[1] the signal trampoline */
        for (unsigned long k = 2; k < n; k++) fprintf(out, "%lx ", (unsigned long)buf[at + k]);
        fputc('\n', out);
        at += n;
    }
    fprintf(out, "DROPPED %lu\n", dropped);
    /* the running image: a rebuild replaces the file at the path, not this inode */
    if (stat("/proc/self/exe", &exe) == 0)
        fprintf(out, "EXE %lld %lld\n", (long long)exe.st_size,
                (long long)exe.st_mtim.tv_sec * 1000000000LL + exe.st_mtim.tv_nsec);
    fputs("MAPS\n", out);
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps)) fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("SIGPROF_HZ");
    long us = 1000000 / (hz && atol(hz) > 0 ? atol(hz) : 500);
    struct itimerval every = {{0, us}, {0, us}};
    struct sigaction sa;
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    setitimer(ITIMER_PROF, &every, NULL);
}
