//! The daemon's core budget: a job borrows the cores idle workers leave,
//! never more than the daemon has, and borrowing changes no report body.
//!
//! The thread-count test samples `/proc/self/status`, which counts every
//! thread of this test process, so the tests here run one at a time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::service::{
    FaultPlan, JobSpec, PlacementService, ServeMode, ServiceClient, ServiceConfig, StreamFrame,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A two-worker daemon that solves every request (no cache), so a lending
/// run and its `threads:1` reference both really solve.
fn start(mode: ServeMode, fault_plan: Option<FaultPlan>) -> PlacementService {
    PlacementService::start(ServiceConfig {
        mode,
        workers: 2,
        cache_capacity: 0,
        fault_plan,
        ..ServiceConfig::default()
    })
    .expect("service starts")
}

fn spec(circuit: &str, seed: u64, restarts: usize) -> JobSpec {
    JobSpec::bundled(circuit).with_seed(seed).with_restarts(restarts).with_fast(true)
}

fn capped(spec: &JobSpec, threads: usize) -> JobSpec {
    JobSpec { threads: Some(threads), ..spec.clone() }
}

/// The `"name":N` value of a `stats` reply.
fn stat(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = stats.find(&key).unwrap_or_else(|| panic!("{name} missing from {stats}"));
    stats[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a count in {stats}"))
}

#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_hostile_thread_count_is_capped_by_the_daemon_cores() {
    let _serial = serial();
    let service = start(ServeMode::EventLoop, None);
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let job = spec("miller_opamp_fig6", 5, 100);
    let reference = client.place(&capped(&job, 1)).expect("round-trips");
    assert!(reference.is_ok(), "{reference:?}");

    // sample the process's thread count while the hostile job solves
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(os_threads(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    let baseline = os_threads();
    let hostile = client.place(&capped(&job, 1_000_000)).expect("round-trips");
    stop.store(true, Ordering::SeqCst);
    sampler.join().expect("sampler");

    assert!(hostile.is_ok(), "{hostile:?}");
    assert_eq!(hostile.report, reference.report, "the cap never changes the body");
    // One worker solves and at most the other worker's idle core is lent.
    // A helper that has handed its core back may still be exiting when the
    // next one starts, so allow one more; the uncapped map spawned hundreds.
    let extra = peak.load(Ordering::SeqCst).saturating_sub(baseline);
    assert!(extra <= 2, "the job ran {extra} threads beyond the idle daemon's {baseline}");

    client.shutdown().expect("acknowledged");
    service.join();
}

fn bodies_with_lending_match_serial_bodies(mode: ServeMode) {
    let _serial = serial();
    let service = start(mode, None);
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    for (i, name) in benchmarks::names().iter().enumerate() {
        let job = spec(name, 30 + i as u64, 1);
        let lent = client.place(&job).expect("round-trips");
        let serial = client.place(&capped(&job, 1)).expect("round-trips");
        assert!(lent.is_ok() && serial.is_ok(), "{lent:?} {serial:?}");
        assert!(!lent.cache_hit && !serial.cache_hit, "both solved");
        assert_eq!(lent.report, serial.report, "{name} differs with lending on");
    }
    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "cores_lent_total") > 0, "the idle worker's core was lent: {stats}");
    assert_eq!(stat(&stats, "cores_busy"), 0, "every core came back: {stats}");
    client.shutdown().expect("acknowledged");
    service.join();
}

#[test]
fn bodies_with_lending_match_serial_bodies_event_loop() {
    bodies_with_lending_match_serial_bodies(ServeMode::EventLoop);
}

#[test]
fn bodies_with_lending_match_serial_bodies_legacy_threads() {
    bodies_with_lending_match_serial_bodies(ServeMode::LegacyThreads);
}

#[test]
fn progress_frames_keep_plan_order_while_lanes_run_heaviest_first() {
    let _serial = serial();
    let service = start(ServeMode::EventLoop, None);
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let job = spec("comparator_v2", 8, 3).with_stream(1);
    let mut progress: Vec<(String, u64, u64)> = Vec::new();
    let response = client
        .place_streaming(&job, |frame| {
            if let StreamFrame::Progress { engine, restart, completed, .. } = frame {
                progress.push((engine.clone(), *restart, *completed));
            }
        })
        .expect("streams");
    assert!(response.is_ok(), "{response:?}");

    // plan order: generation by generation, engines in canonical order
    // (the deterministic lane only in generation 0)
    let mut plan = Vec::new();
    for restart in 0..3u64 {
        for engine in ["seqpair", "hbtree", "deterministic", "hier", "tempering"] {
            if engine != "deterministic" || restart == 0 {
                plan.push((engine.to_string(), restart));
            }
        }
    }
    let seen: Vec<(String, u64)> = progress.iter().map(|(e, r, _)| (e.clone(), *r)).collect();
    assert_eq!(seen, plan);
    let completed: Vec<u64> = progress.iter().map(|p| p.2).collect();
    assert_eq!(completed, (1..=plan.len() as u64).collect::<Vec<_>>());
    client.shutdown().expect("acknowledged");
    service.join();
}

#[test]
fn a_panicking_job_while_cores_are_lent_leaves_the_budget_full() {
    let _serial = serial();
    // job 1 panics; job 0 is a long job already borrowing the idle core
    let service = start(ServeMode::EventLoop, Some(FaultPlan::new().with_panic_job(1)));
    let addr = service.local_addr();
    let lender = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).expect("connects");
        client.place(&spec("folded_cascode", 4, 12)).expect("round-trips")
    });
    let mut client = ServiceClient::connect(addr).expect("connects");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while stat(&client.stats().expect("stats"), "cores_lent_total") == 0 {
        assert!(std::time::Instant::now() < deadline, "job 0 never borrowed a core");
        std::thread::sleep(Duration::from_millis(2));
    }
    let failed = client.place(&spec("miller_opamp_fig6", 9, 1)).expect("round-trips");
    assert_eq!(failed.kind.as_deref(), Some("internal"), "{failed:?}");
    let lent = lender.join().expect("lender");
    assert!(lent.is_ok(), "{lent:?}");

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "worker_panics_total"), 1, "{stats}");
    assert_eq!(stat(&stats, "cores_busy"), 0, "every core came back: {stats}");
    client.shutdown().expect("acknowledged");
    service.join();
}
