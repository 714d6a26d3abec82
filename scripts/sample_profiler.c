/* SIGPROF stack sampler, loaded with LD_PRELOAD (see sample_profile.sh).
 *
 * Every millisecond of consumed CPU time (1 kHz) the handler unwinds
 * the interrupted thread with glibc backtrace() and appends one record to
 * SAMPLE_OUT: a 64-bit frame count, then that many 64-bit return
 * addresses, innermost first, starting at the interrupted PC. At exit the
 * process's /proc/self/maps goes to SAMPLE_OUT.maps, followed by one
 * "ifunc NAME ADDRESS" line per string/allocator routine, giving the
 * implementation glibc chose for this CPU. Shared libraries ship without
 * a full symbol table, so those addresses are what lets memcpy and friends
 * be named in the report.
 *
 * backtrace() is not async-signal-safe on its first call, which loads the
 * unwinder; the constructor calls it once before arming the timer.
 *
 *   cc -O2 -shared -fPIC -o sample_profiler.so sample_profiler.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 128
#define BUF_WORDS (1u << 16)
#define SAMPLE_PERIOD_US 1000

static int out_fd = -1;
static uint64_t buf[BUF_WORDS];
static size_t used;

static void flush_buf(void) {
    const char *p = (const char *)buf;
    size_t left = used * sizeof buf[0];
    while (left > 0) {
        ssize_t n = write(out_fd, p, left);
        if (n <= 0) break;
        p += n;
        left -= (size_t)n;
    }
    used = 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    void *frames[MAX_FRAMES];
    int n = backtrace(frames, MAX_FRAMES);
    /* Drop the handler and signal-trampoline frames: start at the
     * interrupted PC when the unwinder reports it. */
    int first = n > 2 ? 2 : 0;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    for (int i = 0; i < n; ++i) {
        if ((uintptr_t)frames[i] == pc) {
            first = i;
            break;
        }
    }
#else
    (void)ctx;
#endif
    size_t count = (size_t)(n - first);
    if (used + count + 1 > BUF_WORDS) flush_buf();
    buf[used++] = count;
    for (int i = first; i < n; ++i) buf[used++] = (uint64_t)(uintptr_t)frames[i];
}

__attribute__((constructor)) static void start_sampler(void) {
    const char *path = getenv("SAMPLE_OUT");
    if (path == NULL || path[0] == '\0') return;
    out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd < 0) return;
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = SAMPLE_PERIOD_US;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop_sampler(void) {
    if (out_fd < 0) return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    flush_buf();
    close(out_fd);
    out_fd = -1;

    char maps_path[4096];
    snprintf(maps_path, sizeof maps_path, "%s.maps", getenv("SAMPLE_OUT"));
    FILE *out = fopen(maps_path, "w");
    FILE *in = fopen("/proc/self/maps", "r");
    if (out == NULL || in == NULL) {
        if (out != NULL) fclose(out);
        if (in != NULL) fclose(in);
        return;
    }
    char line[4096];
    while (fgets(line, sizeof line, in) != NULL) fputs(line, out);
    fclose(in);
    /* Taking a routine's address in a shared object yields the ifunc
     * implementation glibc resolved for this CPU. */
    const struct {
        const char *name;
        void *addr;
    } ifuncs[] = {
        {"memcpy", (void *)&memcpy},   {"memmove", (void *)&memmove},
        {"memset", (void *)&memset},   {"memcmp", (void *)&memcmp},
        {"strlen", (void *)&strlen},   {"memchr", (void *)&memchr},
        {"malloc", (void *)&malloc},   {"free", (void *)&free},
        {"calloc", (void *)&calloc},   {"realloc", (void *)&realloc},
    };
    for (size_t i = 0; i < sizeof ifuncs / sizeof ifuncs[0]; ++i) {
        fprintf(out, "ifunc %s %lx\n", ifuncs[i].name, (unsigned long)(uintptr_t)ifuncs[i].addr);
    }
    fclose(out);
}
