//! Child processes: their exit status, wall time and peak memory (from
//! `wait4`, not `/proc` polling), under a guard that leaves no orphans.
//!
//! Every child starts in a process group of its own and dies with this
//! process (`PR_SET_PDEATHSIG`). Dropping a [`Proc`] on any exit path —
//! an early return, a failed check, a panic — kills the whole group and
//! waits for each member, including the worker fleet a coordinator
//! spawned: [`become_subreaper`] makes those orphans children of this
//! process, so they can be waited for here.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark measures children through Linux's 64-bit wait4/prctl ABI");

use std::io::{self, Read};
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const ESRCH: i32 = 3;
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_CHILD_SUBREAPER: i32 = 36;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getppid() -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Makes this process the reaper of its orphaned descendants.
pub fn become_subreaper() {
    // SAFETY: PR_SET_CHILD_SUBREAPER takes one integer argument and touches
    // no memory of this process.
    unsafe {
        prctl(PR_SET_CHILD_SUBREAPER, 1u64);
    }
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Peak resident set of the child and every descendant it waited for,
    /// in KiB.
    pub maxrss_kb: u64,
}

impl Exit {
    /// Whether the child exited with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A running child, killed with its process group when dropped unreaped.
pub struct Proc {
    child: Child,
    started: Instant,
    exit: Option<Exit>,
}

impl Proc {
    /// Spawns `cmd` (stdin closed) in a new process group that dies with
    /// this process.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let parent = std::process::id() as i32;
        cmd.stdin(Stdio::null()).process_group(0);
        // SAFETY: the hook runs in the forked child before exec, calls only
        // prctl and getppid (both async-signal-safe) and does not allocate.
        unsafe {
            cmd.pre_exec(move || {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                if getppid() != parent {
                    // The benchmark died before the death signal was armed.
                    return Err(io::Error::from_raw_os_error(ESRCH));
                }
                Ok(())
            });
        }
        let started = Instant::now();
        Ok(Proc {
            child: cmd.spawn()?,
            started,
            exit: None,
        })
    }

    /// The child's stdout pipe, if it was spawned with one and not yet
    /// taken.
    pub fn take_stdout(&mut self) -> Option<ChildStdout> {
        self.child.stdout.take()
    }

    /// Blocks until the child exits and returns how it ended.
    pub fn wait(mut self) -> io::Result<Exit> {
        self.reap()
    }

    fn reap(&mut self) -> io::Result<Exit> {
        if let Some(exit) = self.exit {
            return Ok(exit);
        }
        let pid = self.child.id() as i32;
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out as
            // wait4 expects; `pid` is this process's own unreaped child.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let exit = Exit {
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            wall: self.started.elapsed(),
            maxrss_kb: usage.maxrss.max(0) as u64,
        };
        self.exit = Some(exit);
        Ok(exit)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let pgid = self.child.id() as i32;
        // SAFETY: plain syscalls on the process group this Proc created and
        // on this process's own children; no memory is shared.
        unsafe {
            kill(-pgid, SIGKILL);
        }
        let _ = self.reap();
        // Orphans of the group (a killed coordinator's workers) were
        // re-parented here; wait for each until none is left.
        loop {
            let mut status = 0i32;
            // SAFETY: as above; a null rusage pointer is allowed.
            let r = unsafe { wait4(-pgid, &mut status, 0, std::ptr::null_mut()) };
            if r <= 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                break;
            }
        }
    }
}

/// A finished child's captured stdout and exit.
#[derive(Debug)]
pub struct Output {
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// How it ended.
    pub exit: Exit,
}

/// Runs `cmd` to completion, capturing stdout (stderr goes wherever `cmd`
/// already sends it).
pub fn run(cmd: &mut Command) -> io::Result<Output> {
    cmd.stdout(Stdio::piped());
    let mut proc = Proc::spawn(cmd)?;
    let mut stdout = Vec::new();
    proc.take_stdout()
        .expect("stdout was piped")
        .read_to_end(&mut stdout)?;
    let exit = proc.wait()?;
    Ok(Output { stdout, exit })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_stdout_exit_code_and_memory() {
        let out = run(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(out.stdout, b"hi\n");
        assert_eq!(out.exit.code, Some(3));
        assert!(out.exit.maxrss_kb > 0);
    }

    #[test]
    fn dropping_an_unreaped_child_kills_its_whole_group() {
        become_subreaper();
        // The shell's background grandchild shares the shell's group.
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "sleep 300 & echo $!; wait"])
            .stdout(Stdio::piped());
        let mut proc = Proc::spawn(&mut cmd).unwrap();
        let mut line = String::new();
        let mut byte = [0u8; 1];
        let mut out = proc.take_stdout().unwrap();
        while out.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
            line.push(byte[0] as char);
        }
        let grandchild: i32 = line.trim().parse().unwrap();
        drop(proc);
        // SAFETY: signal 0 only probes for existence.
        let alive = unsafe { kill(grandchild, 0) } == 0;
        assert!(!alive, "grandchild {grandchild} survived the guard");
    }
}
