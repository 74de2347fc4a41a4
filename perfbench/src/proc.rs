//! Child processes and their memory: peak resident set sizes and port
//! files of spawned servers.

use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

use crate::Failure;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn maxrss_mb(who: i32) -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and `who` is a valid selector.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage.maxrss as f64 / 1024.0
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_self_mb() -> f64 {
    maxrss_mb(RUSAGE_SELF)
}

/// Largest peak resident memory of any child waited for so far, in MiB.
pub fn peak_rss_children_mb() -> f64 {
    maxrss_mb(RUSAGE_CHILDREN)
}

/// Peak resident memory (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, Failure> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure::Setup(format!("no VmHWM for pid {pid}")))
}

/// Waits for a server to write its bound address into `path`.
pub fn wait_port_file(path: &Path, child: &mut Child) -> Result<String, Failure> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.trim().is_empty() {
                return Ok(addr.trim().to_string());
            }
        }
        if let Some(status) = child.try_wait()? {
            return Err(Failure::Setup(format!(
                "{} exited ({status}) before writing its port",
                path.display()
            )));
        }
        if Instant::now() > deadline {
            return Err(Failure::Setup(format!("no port in {}", path.display())));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Kills and reaps `child`, ignoring a child that already exited.
pub fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}
