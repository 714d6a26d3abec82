/* Heap-allocation counter, loaded with LD_PRELOAD (see alloc_sites.sh).
 *
 * Interposes malloc, calloc, realloc, aligned_alloc, posix_memalign and the
 * global operator new family, and counts every call by its call stack: up
 * to DEPTH return addresses, taken by walking frame pointers (the program
 * must be built with -fno-omit-frame-pointer). The walk stays between the
 * current frame and the top of the main thread's stack, all of it mapped,
 * so a frame without a frame pointer ends it early instead of faulting
 * (single-threaded programs only). At exit it writes to ALLOC_OUT a
 * "total N DROPPED" line (DROPPED: calls whose stack found no free table
 * slot, counted in N only), then one line per distinct stack,
 * "COUNT PC1 PC2 ...", innermost first; and the process's /proc/self/maps
 * to ALLOC_OUT.maps.
 *
 * Operator new calls __libc_malloc directly, so it counts once, and its
 * stack starts at its own caller.
 *
 *   cc -O2 -fno-omit-frame-pointer -shared -fPIC -o alloc_counter.so alloc_counter.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define DEPTH 8
#define TABLE_BITS 17
#define TABLE_SIZE (1u << TABLE_BITS)

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

struct site {
    uint64_t count;
    uintptr_t pc[DEPTH];
};

static struct site table[TABLE_SIZE];
static uint64_t total, dropped;
static uintptr_t stack_hi;
static int active;

/* Top of the [stack] mapping, read once before counting starts. */
__attribute__((constructor)) static void init(void) {
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0) return;
    static char buf[1 << 18];
    size_t used = 0;
    ssize_t n;
    while (used < sizeof buf - 1 && (n = read(fd, buf + used, sizeof buf - 1 - used)) > 0) {
        used += (size_t)n;
    }
    close(fd);
    buf[used] = '\0';
    char *line = strstr(buf, "[stack]");
    if (line == NULL) return;
    while (line > buf && line[-1] != '\n') --line;
    char *dash = strchr(line, '-');
    if (dash == NULL) return;
    stack_hi = (uintptr_t)strtoull(dash + 1, NULL, 16);
    active = 1;
}

__attribute__((noinline)) static void record(void) {
    if (!active) return;
    ++total;
    uintptr_t pcs[DEPTH] = {0};
    /* Frame 0 is record() itself; frame 1 the interposed function, whose
     * return address is the allocating call site. */
    uintptr_t *fp = (uintptr_t *)__builtin_frame_address(0);
    const uintptr_t lo = (uintptr_t)fp;
    fp = (uintptr_t *)fp[0];
    for (int d = 0; d < DEPTH; ++d) {
        if ((uintptr_t)fp < lo || (uintptr_t)fp + 16 > stack_hi || ((uintptr_t)fp & 7)) break;
        pcs[d] = fp[1];
        uintptr_t *next = (uintptr_t *)fp[0];
        if (next <= fp) break;
        fp = next;
    }
    uint64_t h = 0;
    for (int d = 0; d < DEPTH; ++d) h = (h ^ pcs[d]) * 0x9E3779B97F4A7C15ull;
    for (uint32_t i = (uint32_t)(h >> (64 - TABLE_BITS)), probes = 0; probes < TABLE_SIZE;
         i = (i + 1) & (TABLE_SIZE - 1), ++probes) {
        struct site *s = &table[i];
        if (s->count == 0) memcpy(s->pc, pcs, sizeof pcs);
        if (memcmp(s->pc, pcs, sizeof pcs) == 0) {
            ++s->count;
            return;
        }
    }
    ++dropped;
}

void *malloc(size_t n) {
    record();
    return __libc_malloc(n);
}

void *calloc(size_t k, size_t n) {
    record();
    return __libc_calloc(k, n);
}

void *realloc(void *p, size_t n) {
    record();
    return __libc_realloc(p, n);
}

void *aligned_alloc(size_t align, size_t n) {
    record();
    return __libc_memalign(align, n);
}

int posix_memalign(void **out, size_t align, size_t n) {
    record();
    void *p = __libc_memalign(align, n);
    if (p == NULL) return ENOMEM;
    *out = p;
    return 0;
}

static void *checked(void *p) {
    if (p == NULL) abort();
    return p;
}

/* operator new(size_t), new[](size_t), and their align_val_t forms. */
void *_Znwm(size_t n) {
    record();
    return checked(__libc_malloc(n));
}

void *_Znam(size_t n) {
    record();
    return checked(__libc_malloc(n));
}

void *_ZnwmSt11align_val_t(size_t n, size_t align) {
    record();
    return checked(__libc_memalign(align, n));
}

void *_ZnamSt11align_val_t(size_t n, size_t align) {
    record();
    return checked(__libc_memalign(align, n));
}

static void put(int fd, const char *s, size_t n) {
    while (n > 0) {
        ssize_t w = write(fd, s, n);
        if (w <= 0) return;
        s += w;
        n -= (size_t)w;
    }
}

__attribute__((destructor)) static void dump(void) {
    active = 0;
    const char *path = getenv("ALLOC_OUT");
    if (path == NULL) return;
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return;
    char line[32 + DEPTH * 20];
    int len = snprintf(line, sizeof line, "total %llu %llu\n", (unsigned long long)total,
                       (unsigned long long)dropped);
    put(fd, line, (size_t)len);
    for (uint32_t i = 0; i < TABLE_SIZE; ++i) {
        const struct site *s = &table[i];
        if (s->count == 0) continue;
        len = snprintf(line, sizeof line, "%llu", (unsigned long long)s->count);
        for (int d = 0; d < DEPTH && s->pc[d] != 0; ++d) {
            len += snprintf(line + len, sizeof line - (size_t)len, " %lx", (unsigned long)s->pc[d]);
        }
        line[len++] = '\n';
        put(fd, line, (size_t)len);
    }
    close(fd);

    char maps_path[4096];
    snprintf(maps_path, sizeof maps_path, "%s.maps", path);
    int in = open("/proc/self/maps", O_RDONLY);
    int out = open(maps_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in >= 0 && out >= 0) {
        char buf[4096];
        ssize_t n;
        while ((n = read(in, buf, sizeof buf)) > 0) put(out, buf, (size_t)n);
    }
    if (in >= 0) close(in);
    if (out >= 0) close(out);
}
