//! The service under test and the closed-loop clients that drive it.
//!
//! The clients model sweep drivers that wait for each reply before
//! sending the next request, so the loop is closed: a slower server
//! receives less load rather than a growing queue.

use std::io::Write;
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use suit_exec::Threads;
use suit_rng::SplitMix64;
use suit_serve::http::read_response;
use suit_serve::{ClientResponse, ServeConfig, Server, ShutdownHandle};

/// A reply slower than this counts as a failed op.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Share of the measured duration run first, unmeasured, as warm-up.
const WARMUP_SHARE: f64 = 0.02;
/// Latency samples kept per client. Past this many ops a uniform
/// reservoir sample stands in for all of them, so the benchmark's own
/// buffers stay out of `peak_rss_mb` (a million `serve_hot` samples per
/// client would add ~16 MB that grows with throughput).
const LATENCY_SAMPLES: usize = 1 << 16;

/// The real `suit_serve::Server`, in process on an ephemeral loopback
/// port with two workers. Dropping it drains and joins the server.
pub struct Service {
    addr: String,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Service {
    /// Binds and starts serving.
    pub fn start() -> Result<Service, String> {
        let cfg = ServeConfig {
            threads: Threads::Fixed(2),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Service {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    /// Opens a keep-alive connection and waits until the server answers
    /// on it.
    pub fn connect(&self) -> Result<Conn, String> {
        let mut conn = Conn {
            addr: self.addr.clone(),
            stream: None,
        };
        let ready = conn.exchange(b"GET /v1/healthz HTTP/1.1\r\nhost: bench\r\n\r\n")?;
        if ready.status != 200 {
            return Err(format!("healthz answered {}", ready.status));
        }
        Ok(conn)
    }

    /// Drains the server and reports how its accept loop ended.
    pub fn stop(mut self) -> Result<(), String> {
        self.handle.shutdown();
        let thread = self
            .thread
            .take()
            .expect("a running service has its thread");
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Error paths land here; `stop` is the path that reports.
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One client's keep-alive connection; it reconnects after an error.
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
}

impl Conn {
    /// Sends one complete request and reads its response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<ClientResponse, String> {
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                s.set_read_timeout(Some(TIMEOUT))
                    .map_err(|e| e.to_string())?;
                s.set_write_timeout(Some(TIMEOUT))
                    .map_err(|e| e.to_string())?;
                self.stream.insert(s)
            }
        };
        let result = stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream));
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency of each measured op (a uniform sample of at most
    /// `LATENCY_SAMPLES` of them), seconds.
    pub latencies: Vec<f64>,
    /// Successful measured ops per second of the client's measured window.
    pub rate: f64,
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that failed, warm-up included.
    pub failed: u64,
    /// `(op index, response)` pairs the op asked to keep for checks run
    /// after the timed phase.
    pub kept: Vec<(u64, Vec<u8>)>,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

/// Runs one closed-loop client per element of `states` for `seconds`
/// after a warm-up of 2 % of that. `op(state, client, k)` performs op `k`
/// and returns a response to keep, if any. Every client completes at
/// least one measured op.
pub fn closed_loop<S, F>(states: Vec<S>, seconds: f64, op: F) -> Vec<ClientLog>
where
    S: Send,
    F: Fn(&mut S, usize, u64) -> Result<Option<Vec<u8>>, String> + Sync,
{
    let measure = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let warm_end = start + measure.mul_f64(WARMUP_SHARE);
    let end = warm_end + measure;
    std::thread::scope(|scope| {
        let op = &op;
        let clients: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(c, mut state)| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        latencies: Vec::with_capacity(LATENCY_SAMPLES),
                        ..ClientLog::default()
                    };
                    let mut reservoir = SplitMix64::new(c as u64);
                    let mut measured_ops = 0u64;
                    let mut ok = 0u64;
                    let mut window: Option<(Instant, Instant)> = None;
                    for k in 0u64.. {
                        let t0 = Instant::now();
                        if t0 >= end && window.is_some() {
                            break;
                        }
                        let result = op(&mut state, c, k);
                        let t1 = Instant::now();
                        log.attempted += 1;
                        let measured = t0 >= warm_end;
                        match result {
                            Ok(keep) => {
                                ok += u64::from(measured);
                                if let Some(body) = keep {
                                    log.kept.push((k, body));
                                }
                            }
                            Err(e) => {
                                log.failed += 1;
                                if log.errors.len() < 3 {
                                    log.errors.push(format!("client {c} op {k}: {e}"));
                                }
                            }
                        }
                        if measured {
                            let latency = (t1 - t0).as_secs_f64();
                            if log.latencies.len() < LATENCY_SAMPLES {
                                log.latencies.push(latency);
                            } else {
                                let j = reservoir.next_u64() % (measured_ops + 1);
                                if let Some(slot) = log.latencies.get_mut(j as usize) {
                                    *slot = latency;
                                }
                            }
                            measured_ops += 1;
                            window = Some((window.map_or(t0, |w| w.0), t1));
                        }
                    }
                    let (first, last) = window.expect("the loop ends after a measured op");
                    log.rate = ok as f64 / (last - first).as_secs_f64();
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Nearest-rank percentile of ascending `sorted`, `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the first CPU it is allowed on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    /// glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn closed_loop_measures_after_warm_up_and_counts_failures() {
        let logs = closed_loop(vec![0u64, 0u64], 0.05, |n, _c, k| {
            *n += 1;
            std::thread::sleep(Duration::from_millis(1));
            if k == 3 {
                Err("boom".into())
            } else {
                Ok((k % 10 == 0).then(|| vec![k as u8]))
            }
        });
        for log in &logs {
            assert!(
                log.attempted > log.latencies.len() as u64,
                "warm-up ops were measured"
            );
            assert_eq!(log.failed, 1);
            assert!(log.rate > 100.0 && log.rate < 1000.0, "rate {}", log.rate);
            assert!(log
                .kept
                .iter()
                .all(|(k, b)| k % 10 == 0 && b[0] == *k as u8));
        }
    }
}
