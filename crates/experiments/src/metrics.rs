//! Live metrics export for long experiment runs: Prometheus text
//! exposition plus a streaming NDJSON snapshot log.
//!
//! `experiments --metrics <file|addr>` builds one [`MetricsExport`] and the
//! heartbeat thread ticks it: every tick snapshots the shared [`Recorder`]
//! and re-encodes it through the workspace's single Prometheus encoder
//! (`mltc_telemetry::export::PromMetrics`).
//!
//! * **File mode** (`--metrics out.prom`): the exposition text is written
//!   atomically (temp file + rename, so a scraper never reads a torn
//!   file) and one NDJSON line per tick is appended to `out.prom.ndjson`
//!   — `{"elapsed_seconds":…,"summary":{…}}`, the same summary object
//!   `summary.json` holds, so post-processing shares one schema.
//! * **Serve mode** (`--metrics 127.0.0.1:9184`): a background thread
//!   answers every HTTP GET on the address with the latest exposition
//!   (`text/plain; version=0.0.4`), which a Prometheus scrape job can
//!   point at directly.
//!
//! A final tick runs on clean shutdown (after the last experiment), so
//! the exported file always reflects the completed run.

use mltc_telemetry::export::{summaries_json, PromMetrics};
use mltc_telemetry::{Json, Recorder};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One metrics destination, cheap to clone across the heartbeat thread
/// and the main thread (shared internally).
#[derive(Clone)]
pub struct MetricsExport {
    inner: Arc<Inner>,
}

struct Inner {
    recorder: Recorder,
    mode: Mode,
    stop: Arc<AtomicBool>,
    server: Mutex<Option<JoinHandle<()>>>,
}

enum Mode {
    File {
        prom: PathBuf,
        ndjson: PathBuf,
    },
    Serve {
        latest: Arc<Mutex<String>>,
        addr: SocketAddr,
    },
}

impl MetricsExport {
    /// Opens the destination `spec` names: a socket address starts a
    /// serving thread, anything else is treated as a file path (parent
    /// directories are not created; the NDJSON sidecar is truncated so
    /// each run streams its own history).
    ///
    /// # Errors
    ///
    /// Address mode: whatever [`TcpListener::bind`] reports. File mode:
    /// failure to create either the exposition file or its sidecar.
    pub fn new(spec: &str, recorder: &Recorder) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let (mode, server) = match spec.parse::<SocketAddr>() {
            Ok(addr) => {
                let listener = TcpListener::bind(addr)?;
                let addr = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                let latest = Arc::new(Mutex::new(String::new()));
                let handle = serve(listener, Arc::clone(&latest), Arc::clone(&stop));
                (Mode::Serve { latest, addr }, Some(handle))
            }
            Err(_) => {
                let prom = PathBuf::from(spec);
                let ndjson = PathBuf::from(format!("{spec}.ndjson"));
                std::fs::write(&prom, "")?;
                std::fs::write(&ndjson, "")?;
                (Mode::File { prom, ndjson }, None)
            }
        };
        Ok(Self {
            inner: Arc::new(Inner {
                recorder: recorder.clone(),
                mode,
                stop,
                server: Mutex::new(server),
            }),
        })
    }

    /// Where ticks land, for the run banner ("out.prom" or
    /// "serving on 127.0.0.1:9184").
    pub fn describe(&self) -> String {
        match &self.inner.mode {
            Mode::File { prom, .. } => prom.display().to_string(),
            Mode::Serve { addr, .. } => format!("serving on {addr}"),
        }
    }

    /// The bound address in serve mode (tests bind port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.inner.mode {
            Mode::Serve { addr, .. } => Some(*addr),
            Mode::File { .. } => None,
        }
    }

    /// Snapshots the recorder and publishes: atomically rewrites the
    /// exposition file and appends one NDJSON line (file mode), or swaps
    /// the text the serving thread answers with (serve mode).
    ///
    /// # Errors
    ///
    /// File-mode I/O failures (serve mode cannot fail).
    pub fn tick(&self, elapsed: Duration) -> std::io::Result<()> {
        let snap = self.inner.recorder.snapshot();
        let text = PromMetrics::from_snapshot(&snap).encode();
        match &self.inner.mode {
            Mode::File { prom, ndjson } => {
                let tmp = prom.with_extension("prom.tmp");
                std::fs::write(&tmp, &text)?;
                std::fs::rename(&tmp, prom)?;
                let line = Json::obj([
                    ("elapsed_seconds", Json::fixed(elapsed.as_secs_f64(), 3)),
                    ("summary", summaries_json(&snap)),
                ]);
                let mut f = std::fs::OpenOptions::new().append(true).open(ndjson)?;
                writeln!(f, "{}", line.render_compact())?;
            }
            Mode::Serve { latest, .. } => {
                *latest.lock().unwrap_or_else(PoisonError::into_inner) = text;
            }
        }
        Ok(())
    }

    /// Final flush on clean shutdown: one last [`tick`](Self::tick), then
    /// the serving thread (if any) is stopped and joined.
    ///
    /// # Errors
    ///
    /// Propagates the final tick's I/O failure (shutdown still proceeds).
    pub fn finish(&self, elapsed: Duration) -> std::io::Result<()> {
        let result = self.tick(elapsed);
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self
            .inner
            .server
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        result
    }
}

/// The serve-mode accept loop. The listener is non-blocking so the thread
/// can poll the stop flag; 25 ms of poll latency is irrelevant against
/// multi-second scrape intervals.
fn serve(
    listener: TcpListener,
    latest: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Drain whatever request line arrived (best effort; the
                // response is the same for every path).
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = latest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                let _ = write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_mode_writes_exposition_and_streams_ndjson() {
        let dir = std::env::temp_dir().join(format!("mltc_metrics_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("out.prom");
        let rec = Recorder::enabled();
        rec.counter("c0/engine/mc/l1_hits").add(7);
        rec.gauge("c0/service/p99_frame_miss_rate").set(0.25);
        let m = MetricsExport::new(spec.to_str().unwrap(), &rec).unwrap();
        m.tick(Duration::from_millis(1500)).unwrap();
        rec.counter("c0/engine/mc/l1_hits").add(1);
        m.finish(Duration::from_secs(3)).unwrap();
        let prom = std::fs::read_to_string(&spec).unwrap();
        assert!(prom.contains("mltc_counter{name=\"c0/engine/mc/l1_hits\"} 8"));
        assert!(prom.contains("mltc_gauge{name=\"c0/service/p99_frame_miss_rate\"} 0.25"));
        let ndjson = std::fs::read_to_string(dir.join("out.prom.ndjson")).unwrap();
        let ticks: Vec<Json> = ndjson.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(ticks.len(), 2, "one line per tick, one for the final flush");
        assert_eq!(ticks[0].get("elapsed_seconds"), Some(&Json::Float(1.5)));
        let counters = ticks[1].get("summary").and_then(|s| s.get("counters"));
        let hits = counters.and_then(|c| c.get("c0/engine/mc/l1_hits"));
        assert_eq!(hits, Some(&Json::Num(8)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_mode_answers_http_with_latest_exposition() {
        let rec = Recorder::enabled();
        rec.counter("renders").add(3);
        let m = MetricsExport::new("127.0.0.1:0", &rec).unwrap();
        m.tick(Duration::ZERO).unwrap();
        let addr = m.local_addr().expect("serve mode");
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("mltc_counter{name=\"renders\"} 3"));
        m.finish(Duration::ZERO).unwrap();
    }

    #[test]
    fn describe_names_the_destination() {
        let rec = Recorder::disabled();
        let dir = std::env::temp_dir().join(format!("mltc_metrics_d_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("x.prom");
        let m = MetricsExport::new(spec.to_str().unwrap(), &rec).unwrap();
        assert!(m.describe().ends_with("x.prom"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
