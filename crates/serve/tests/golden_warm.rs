//! Golden-snapshot coverage for warm answers: the bodies of
//! `GET /runs/{key}`, a warm `POST /runs` and a warm
//! `POST /submit-batch` over a few prefilled `--smoke` runs, served by a
//! live in-process server from a file-mode store and from a WAL-mode
//! store. Both backends must render the committed document byte for
//! byte, so any drift in how a stored run becomes a summary (fields,
//! order, float formatting, which entry a key resolves to) fails here.
//!
//! Regenerating after an intentional schema change:
//!
//! ```text
//! RAMP_BLESS=1 cargo test -p ramp-serve --test golden_warm
//! ```
//!
//! then commit the updated `tests/golden/warm_answers.json` and call out
//! the schema change in the PR description.

use std::time::Duration;

use ramp_core::config::SystemConfig;
use ramp_serve::client::Client;
use ramp_serve::http::PoolPolicy;
use ramp_serve::json::ObjWriter;
use ramp_serve::server::{Server, ServerConfig};
use ramp_serve::spec::RunSpec;
use ramp_serve::store::{RunStore, StoreMode};

const GOLDEN_PATH: &str = "tests/golden/warm_answers.json";

/// The prefilled points: one of each run kind.
const SPECS: [(&str, &str, &str); 4] = [
    ("lbm", "profile", ""),
    ("mcf", "static", "perf-focused"),
    ("astar", "migration", "perf-fc"),
    ("milc", "annotated", ""),
];

/// `ramp-served --smoke` at a 20k-instruction budget.
fn smoke_sim() -> SystemConfig {
    SystemConfig {
        insts_per_core: 20_000,
        ..SystemConfig::smoke_test()
    }
}

/// Opens a fresh store in `mode` and simulates every point into it.
fn prefilled_store(mode: StoreMode) -> (RunStore, Vec<String>) {
    let dir = std::env::temp_dir().join(format!(
        "ramp-golden-warm-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open_mode(dir, mode).expect("open scratch store");
    let cfg = smoke_sim();
    let keys = SPECS
        .iter()
        .map(|(w, k, p)| {
            let spec = RunSpec::parse(w, k, p).expect("valid spec");
            spec.execute(&cfg, Some(&store));
            spec.key(&cfg)
        })
        .collect();
    (store, keys)
}

/// Serves `store` warm and renders every warm answer into one document.
fn render_document(mode: StoreMode) -> String {
    let (store, keys) = prefilled_store(mode);
    let dir = store.dir().to_path_buf();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            sim: smoke_sim(),
            workers: 1,
            queue_capacity: 4,
            request_timeout: Duration::from_secs(10),
            deadline: Duration::from_secs(60),
            restart_limit: 3,
            restart_backoff: Duration::from_millis(10),
            http: PoolPolicy::default(),
            store: Some(store),
            chaos: None,
        },
    )
    .expect("bind server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let mut out = String::new();
    for ((w, k, p), key) in SPECS.iter().zip(&keys) {
        let got = client.run_summary(key).expect("GET /runs/{key}");
        assert_eq!(got.status, 200, "{}", got.body);
        out.push_str(&format!("# GET /runs {}\n{}\n", label(w, k, p), got.body));
    }
    for (w, k, p) in SPECS {
        let posted = client.submit(w, k, p).expect("POST /runs");
        assert_eq!(posted.status, 200, "{}", posted.response.body);
        assert!(posted.cached, "warm submit must be served from the store");
        out.push_str(&format!(
            "# POST /runs {}\n{}\n",
            label(w, k, p),
            posted.response.body
        ));
    }
    // The typed batch view drops the raw body, so post it by hand.
    let mut batch = ObjWriter::new();
    batch.u64("count", SPECS.len() as u64);
    for (i, (w, k, p)) in SPECS.iter().enumerate() {
        batch
            .str(&format!("{i}.workload"), w)
            .str(&format!("{i}.kind"), k);
        if !p.is_empty() {
            batch.str(&format!("{i}.policy"), p);
        }
    }
    let answer = raw_post(&addr.to_string(), "/submit-batch", &batch.finish());
    assert!(
        !answer.contains("queued"),
        "every batch spec is warm: {answer}"
    );
    out.push_str(&format!("# POST /submit-batch\n{answer}\n"));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(dir);
    out
}

fn label(workload: &str, kind: &str, policy: &str) -> String {
    format!("{workload} {kind} {policy}").trim_end().to_string()
}

/// One `POST` over a fresh connection, returning the response body.
fn raw_post(addr: &str, path: &str, body: &str) -> String {
    use std::io::Write as _;
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    let req = format!(
        "POST {path} HTTP/1.1\r\nhost: golden\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send");
    let resp = ramp_serve::http::read_response_full(&mut s).expect("read response");
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.body
}

fn golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

#[test]
fn warm_answers_match_committed_golden_snapshot() {
    let files = render_document(StoreMode::Files);
    let wal = render_document(StoreMode::Wal);
    assert_eq!(files, wal, "file and WAL stores must answer identically");
    let path = golden_file();
    if std::env::var("RAMP_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &files).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with RAMP_BLESS=1 cargo test -p ramp-serve --test golden_warm",
            path.display()
        )
    });
    assert_eq!(
        files, golden,
        "warm answers drifted from {GOLDEN_PATH}; if the change is \
         intentional, regenerate with RAMP_BLESS=1 cargo test -p ramp-serve \
         --test golden_warm"
    );
}
