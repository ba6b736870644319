// exec_probe: runs one command and reports what it cost.
//
//   exec_probe PROGRAM [ARGS...]
//
// The command inherits stdin, stdout and stderr.  After it exits, one line
// is appended to stdout:
//
//   #exec <wait status> <wall ns> <user us> <sys us> <max rss KiB>
//
// The wall time runs from the spawn to the reap.  The probe exists because
// a process started straight from the benchmark harness inherits the
// harness's resident set into its own peak-RSS figure (the kernel folds
// the parent's memory into the child's high-water mark at exec).  Linked
// statically, this probe is small enough to leave the command's peak RSS
// as its own.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <cerrno>
#include <cstdio>

extern char** environ;

namespace {

long long now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

long long micros(const timeval& tv) {
  return static_cast<long long>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: exec_probe PROGRAM [ARGS...]\n");
    return 2;
  }
  const long long t0 = now_ns();
  pid_t pid = -1;
  if (posix_spawn(&pid, argv[1], nullptr, nullptr, argv + 1, environ) != 0) {
    std::fprintf(stderr, "exec_probe: cannot start %s\n", argv[1]);
    return 2;
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return 2;
  }
  const long long wall = now_ns() - t0;
  std::printf("#exec %d %lld %lld %lld %ld\n", status, wall,
              micros(usage.ru_utime), micros(usage.ru_stime), usage.ru_maxrss);
  return 0;
}
