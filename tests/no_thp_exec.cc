/**
 * @file
 * Run a program with transparent huge pages disabled for it:
 *
 *   no_thp_exec PROGRAM [ARGS...]
 *
 * sets PR_SET_THP_DISABLE on this process, which execve keeps, then
 * execs PROGRAM. The setting covers only this process and its
 * children; nothing system-wide changes. The tests use it to run the
 * LPM table on its 4 KiB-page path.
 */

#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: no_thp_exec PROGRAM [ARGS...]\n");
        return 2;
    }
    if (prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0) {
        std::perror("no_thp_exec: prctl");
        return 1;
    }
    execv(argv[1], argv + 1);
    std::perror("no_thp_exec: execv");
    return 127;
}
