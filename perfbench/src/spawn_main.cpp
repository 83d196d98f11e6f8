// perfbench_spawn — run a command and report its peak RSS.
//
//   perfbench_spawn PROGRAM [ARGS...]
//
// Runs PROGRAM with the launcher's stdin/stdout/stderr, waits for it, and
// then prints "peak_rss_kb N" on stdout: the ru_maxrss of PROGRAM as
// returned by wait4. Exits with PROGRAM's status (128 + signal if killed).
//
// Why a launcher: Linux folds the RSS high-water mark of the address space
// an exec replaces into the new program's ru_maxrss. A child forked from a
// large process (run.py under Python) would report that RSS as its
// own. Forked from this small launcher, it reports its own peak. The child
// dies with the launcher (PR_SET_PDEATHSIG), so killing the launcher on a
// hang stops the program too.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_spawn PROGRAM [ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 1;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);  // the launcher already died
    execvp(argv[1], argv + 1);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("perfbench_spawn: wait4");
    return 1;
  }
  std::printf("peak_rss_kb %ld\n", usage.ru_maxrss);
  std::fflush(stdout);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
