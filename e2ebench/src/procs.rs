//! Process hygiene: daemons on ephemeral ports with logs and data under
//! one per-run directory inside the checkout, stopped and removed on
//! every exit path.
//!
//! * Every daemon is a [`Daemon`] guard: dropping it kills and reaps the
//!   process, so an error or a panic unwinding through the run stops it.
//! * SIGINT/SIGTERM to the benchmark set a flag the loops poll; the run
//!   then unwinds through the same guards.
//! * If the benchmark itself is killed outright, the kernel kills its
//!   daemons (`PR_SET_PDEATHSIG`), and the next run removes the run
//!   directory it left behind.

use multihier_xquery::server::client::Client;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn prctl(option: i32, ...) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanos: i64,
}

fn clock_seconds(clock: i32) -> Option<f64> {
    let mut t = Timespec { seconds: 0, nanos: 0 };
    // SAFETY: clock_gettime(2) writes one struct timespec, whose layout
    // Timespec matches on 64-bit linux.
    let ok = unsafe { clock_gettime(clock, &mut t) } == 0;
    ok.then_some(t.seconds as f64 + t.nanos as f64 * 1e-9)
}

/// CPU seconds this process has used so far, all threads.
///
/// The benchmark's gated timings are CPU time: the kernel leaves out the
/// time the hypervisor gives the CPU to other guests, which on a shared
/// host comes in spells that double every wall-clock figure.
pub fn own_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(f64::NAN)
}

pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the handler only performs an atomic store, which is
    // async-signal-safe; the binding matches signal(2) on linux.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Fails once SIGINT/SIGTERM arrived, so every loop can bail out with `?`.
pub fn check_interrupt() -> Result<(), String> {
    if INTERRUPTED.load(Ordering::SeqCst) {
        Err("interrupted".into())
    } else {
        Ok(())
    }
}

/// Make this thread's sleeps wake within about a microsecond instead of
/// the default 50 µs timer slack, so open-loop sends leave on time.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(2) with an integer argument; it touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// CPU time the hypervisor gave to others, in seconds summed over the
/// machine's CPUs (`/proc/stat`; 0 where unreadable).
pub fn cpu_steal() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    steal / 100.0 // USER_HZ
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `.bench_run/<pid>` under the working directory (the checkout root):
/// daemon logs and data directories. Removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let base = std::env::current_dir().map_err(|e| e.to_string())?.join(".bench_run");
        fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
        // Directories of runs that were killed before they could clean up.
        for entry in fs::read_dir(&base).map_err(|e| e.to_string())?.flatten() {
            let pid = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok());
            if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        let dir = base.join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running `mhxd` or `mhxr`, killed and reaped on drop.
pub struct Daemon {
    name: String,
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start `bin` with `args` (which must bind port 0), its stderr going
    /// to `log`, and wait until its startup line names the bound address.
    pub fn spawn(bin: &Path, name: &str, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log_file = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null()).stderr(log_file);
        die_with_parent(&mut cmd);
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon { name: name.to_string(), child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // "mhxd: serving N document(s) on http://ADDR with W workers …"
            let addr = text
                .lines()
                .find(|l| l.contains(" on http://") && l.contains(" with "))
                .and_then(|l| l.split("http://").nth(1))
                .and_then(|rest| rest.split_whitespace().next());
            if let Some(addr) = addr {
                daemon.addr = addr.to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("{name} exited ({status}) before listening: {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("{name} did not report its address within 30 s: {text}"));
            }
            check_interrupt()?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("{}: /proc status: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{}: no VmHWM in /proc status", self.name))
    }

    /// CPU seconds the daemon has used so far, all threads.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let mut clock = 0;
        // SAFETY: clock_getcpuclockid(3) writes one clockid_t to `clock`.
        if unsafe { clock_getcpuclockid(self.child.id() as i32, &mut clock) } != 0 {
            return Err(format!("{}: no CPU-time clock", self.name));
        }
        clock_seconds(clock).ok_or_else(|| format!("{}: CPU-time clock unreadable", self.name))
    }

    /// Graceful stop: `POST /shutdown`, then wait for the drain to finish
    /// (killed after 10 s).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).map(|mut c| c.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (status.success(), asked) {
                    (true, Ok(Ok(()))) => Ok(()),
                    _ => Err(format!("{} did not stop cleanly ({status})", self.name)),
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!("{} ignored /shutdown for 10 s; killed", self.name))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Ask the kernel to SIGKILL the daemon when the thread that started it
/// dies, so even a `kill -9` of the benchmark leaks no process.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before exec and makes only
    // the prctl(2) system call, which is async-signal-safe and allocates
    // nothing.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}
