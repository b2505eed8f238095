#!/usr/bin/env python3
"""Per-thread CPU, run-queue and context-switch rates of one command.

    python3 scripts/thread_stats.py [--interval S] [--trim F] -- <cmd> [args...]

Runs <cmd> and, while it runs, samples /proc/<pid>/task/*/{stat,status,
schedstat} of that command's process and its descendants only (nothing
else on the host).  When it exits, prints, for the middle of the run
(the first and last --trim fraction of the wall time are dropped), each
thread's

    run%    share of wall time on a CPU        (schedstat field 1)
    wait%   share of wall time runnable but waiting on a run queue
                                                (schedstat field 2)
    vol/s   voluntary context switches per second (sleeps, futex waits)
    invol/s involuntary context switches per second (preemptions)

and the process-wide totals.  A thread that starts or exits inside the
window is measured over the part of the window it was seen in (the
"secs" column), so short-lived phases of one command (a bench that runs
one soak after another) still get their own rows.  The command's own
output passes through
unchanged; the table goes to stderr.  The exit code is the command's.

Linux only; needs schedstat (CONFIG_SCHED_INFO), which every common
distribution kernel has.
"""

import argparse
import os
import subprocess
import sys
import time


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:  # the thread or process exited between list and read
        return None


def children(pid):
    """Direct child pids of every thread of `pid`."""
    out = []
    try:
        tids = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return out
    for tid in tids:
        text = read("/proc/%d/task/%s/children" % (pid, tid))
        if text:
            out.extend(int(c) for c in text.split())
    return out


def tree(root):
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(children(pid))
    return pids


def sample(root):
    """{(pid, tid): (name, run_ns, wait_ns, vol, invol)} for the tree."""
    snap = {}
    for pid in tree(root):
        try:
            tids = os.listdir("/proc/%d/task" % pid)
        except OSError:
            continue
        for tid in tids:
            base = "/proc/%d/task/%s/" % (pid, tid)
            sched = read(base + "schedstat")
            status = read(base + "status")
            if sched is None or status is None:
                continue
            run_ns, wait_ns = (int(x) for x in sched.split()[:2])
            fields = dict(line.split(":", 1) for line in status.splitlines()
                          if ":" in line)
            snap[(pid, int(tid))] = (
                fields.get("Name", "?").strip(), run_ns, wait_ns,
                int(fields.get("voluntary_ctxt_switches", 0)),
                int(fields.get("nonvoluntary_ctxt_switches", 0)))
    return snap


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--interval S] [--trim F] -- <cmd> [args...]")
    ap.add_argument("--interval", type=float, default=0.25,
                    help="seconds between samples (default 0.25)")
    ap.add_argument("--trim", type=float, default=0.25,
                    help="fraction of the run dropped at each end "
                         "(default 0.25)")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given (put it after --)")
    if not 0 <= args.trim < 0.5:
        ap.error("--trim must be in [0, 0.5)")

    child = subprocess.Popen(cmd)
    samples = []  # (monotonic s, snapshot)
    while child.poll() is None:
        samples.append((time.monotonic(), sample(child.pid)))
        time.sleep(args.interval)
    code = child.returncode
    if len(samples) < 3:
        print("thread_stats: run too short to sample", file=sys.stderr)
        return code

    t0, t1 = samples[0][0], samples[-1][0]
    lo, hi = t0 + args.trim * (t1 - t0), t1 - args.trim * (t1 - t0)
    window = [s for s in samples if lo <= s[0] <= hi] or samples
    dt = window[-1][0] - window[0][0]
    if dt <= 0:
        print("thread_stats: sampling window is empty", file=sys.stderr)
        return code
    first, last = {}, {}  # key -> (time, stats) of its first/last sample
    for t, snap in window:
        for key, stats in snap.items():
            first.setdefault(key, (t, stats))
            last[key] = (t, stats)
    keys = sorted(k for k in first if last[k][0] > first[k][0])

    err = sys.stderr
    print("thread_stats: %.2f s window (middle of a %.2f s run), %d threads"
          % (dt, t1 - t0, len(keys)), file=err)
    print("%8s %8s  %-16s %6s %7s %7s %9s %9s"
          % ("pid", "tid", "name", "secs", "run%", "wait%", "vol/s",
             "invol/s"), file=err)
    def rates(d, span):  # run%, wait%, vol/s, invol/s over `span` s
        return (d[0] / 1e9 / span * 100, d[1] / 1e9 / span * 100,
                d[2] / span, d[3] / span)

    tot = [0, 0, 0, 0]
    for key in keys:
        (ta, a), (tb, b) = first[key], last[key]
        d = [b[i] - a[i] for i in range(1, 5)]
        tot = [x + y for x, y in zip(tot, d)]
        print("%8d %8d  %-16s %6.1f %7.1f %7.1f %9.0f %9.0f"
              % ((key[0], key[1], b[0][:16], tb - ta) + rates(d, tb - ta)),
              file=err)
    print("%8s %8s  %-16s %6.1f %7.1f %7.1f %9.0f %9.0f"
          % (("", "", "total", dt) + rates(tot, dt)), file=err)
    return code


if __name__ == "__main__":
    sys.exit(main())
