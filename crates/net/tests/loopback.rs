//! End-to-end loopback: a live TCP server under concurrent multi-client
//! load produces outcomes **bit-identical** to a serial in-process
//! replay — plus the full register→submit→revise→stats→shutdown
//! round trip and boot recovery from persisted snapshots.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use msoc_analog::paper_cores;
use msoc_core::{CoreEdit, JobSpec, MixedSignalSoc, SharingConfig};
use msoc_net::wire::{frame_request, read_response, Request, Response};
use msoc_net::{
    build_trace, run_loopback, Client, ServerConfig, ServerReport, WireJob, WireOutcome, WireSocRef,
};
use msoc_tam::Effort;

/// Boots a server on an ephemeral loopback port and runs `f` against
/// it; shuts down through the protocol and returns what the server
/// reported alongside `f`'s output.
fn with_server<T>(config: ServerConfig, f: impl FnOnce(SocketAddr) -> T) -> (ServerReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("ephemeral addr");
    let server = std::thread::spawn(move || msoc_net::serve(listener, &config).expect("serve"));
    let out = f(addr);
    let mut control = Client::connect(addr, "control").expect("control client");
    control.shutdown().expect("graceful shutdown");
    (server.join().expect("server thread"), out)
}

/// Sends `frame` on a fresh raw connection and requires the server to
/// answer it with an error naming `what`.
fn answers_with_error(addr: SocketAddr, frame: &[u8], what: &str) {
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(frame).expect("send a hostile frame");
    match read_response(&mut raw) {
        Ok(Response::Error { message }) => assert!(message.contains(what), "{message}"),
        other => panic!("a hostile frame must be answered with an error ({what}), got {other:?}"),
    }
}

#[test]
fn concurrent_tcp_load_is_bit_identical_to_serial_replay() {
    // Three clients race 12 mixed-priority batches (plans, tables,
    // best-width sweeps, pre-cancelled jobs) into one shared tenant
    // shard; the oracle replays the same trace serially on a fresh
    // service. Canonical outcome bytes must match batch for batch.
    let trace = build_trace(12, 3, 0x5EED);
    let (_, report) = with_server(ServerConfig { shards: 2, ..ServerConfig::default() }, |addr| {
        run_loopback(addr, "determinism", &trace, 3).expect("loopback run")
    });
    assert!(report.replay_identical, "TCP outcomes diverged from the serial replay: {report:?}");
    assert_eq!(report.jobs, 36);
    assert!(report.jobs_per_sec > 0.0);
    assert!(report.p99_us >= report.p50_us);

    // The digest is a property of the trace, not of the run: a second
    // serial replay reproduces the same canonical bytes.
    let again = msoc_net::serial_replay(&trace);
    let first = msoc_net::serial_replay(&trace);
    assert_eq!(again, first, "serial replay must be self-consistent");
}

#[test]
fn register_submit_revise_stats_round_trip() {
    let (server_report, ()) = with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr, "tenant-a").expect("connect");
        let soc_id = client.register(MixedSignalSoc::d695m()).expect("register the paper SOC");

        // Submit against the registered id: one plan, one pre-cancelled.
        let mut cancelled =
            WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 24 });
        cancelled.cancelled = true;
        let outcomes = client
            .submit(vec![
                WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 16 }),
                cancelled,
            ])
            .expect("submit");
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);
        assert!(matches!(outcomes[1], WireOutcome::Cancelled), "{:?}", outcomes[1]);

        // Revise core C, resubmit — the revision plans fine and the id
        // stays stable.
        let mut replacement = paper_cores()[2].clone();
        replacement.resolution_bits += 2;
        let revision = client
            .revise(soc_id, vec![CoreEdit::ReplaceAnalog { index: 2, core: replacement }])
            .expect("revise");
        assert_eq!(revision, 1, "first revision of a fresh registration");
        let outcomes = client
            .submit(vec![WireJob::new(
                WireSocRef::Registered(soc_id),
                JobSpec::Single { width: 16 },
            )])
            .expect("submit revised");
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);

        // Stats see all of it, with latency quantiles per class.
        let stats = client.stats().expect("stats");
        assert_eq!(stats.jobs_submitted, 3);
        assert!(stats.session_misses >= 1);
        let completed =
            stats.latency.iter().find(|l| l.outcome == "completed").expect("completed class");
        assert_eq!(completed.count, 2);
        assert!(completed.p99_us >= completed.p50_us);
        let interrupted =
            stats.latency.iter().find(|l| l.outcome == "interrupted").expect("interrupted class");
        assert_eq!(interrupted.count, 1);

        // Unknown ids and malformed jobs answer structurally.
        let outcomes = client
            .submit(vec![WireJob::new(WireSocRef::Registered(999), JobSpec::Single { width: 16 })])
            .expect("submit with unknown id still answers");
        assert!(
            matches!(&outcomes[0], WireOutcome::Rejected { error } if error.contains("999")),
            "{:?}",
            outcomes[0],
        );

        // A Submit naming no effort is answered with an error frame, and
        // the server keeps serving.
        let submit = |effort| {
            let mut job =
                WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 16 });
            job.effort = effort;
            frame_request(&Request::Submit { tenant: "tenant-a".into(), jobs: vec![job] })
        };
        let (quick, standard) = (submit(Effort::Quick), submit(Effort::Standard));
        let at = (0..quick.len()).find(|&i| quick[i] != standard[i]).expect("effort byte");
        for code in [3u8, 4, 0xff] {
            let mut frame = quick.clone();
            frame[at] = code;
            answers_with_error(addr, &frame, "effort");
        }
        assert_eq!(client.stats().expect("stats after hostile frames").jobs_submitted, 3);
    });
    // The unknown-id job was rejected at wire validation, before the
    // service ever saw it — only the three real jobs were submitted.
    let total: u64 = server_report.shards.iter().map(|s| s.stats.jobs_submitted).sum();
    assert_eq!(total, 3);
}

#[test]
fn latency_classes_record_each_jobs_own_wall_time() {
    // A job rejected at wire validation never runs; planning its real
    // sibling takes milliseconds. The rejected class must record 0 µs
    // (the histogram's lowest bucket reports as 1), not the batch's wall.
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr, "tenant-walls").expect("connect");
        let soc_id = client.register(MixedSignalSoc::d695m()).expect("register");
        let outcomes = client
            .submit(vec![
                WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 16 }),
                WireJob::new(WireSocRef::Registered(999), JobSpec::Single { width: 16 }),
            ])
            .expect("submit");
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);
        assert!(matches!(outcomes[1], WireOutcome::Rejected { .. }), "{:?}", outcomes[1]);
        let stats = client.stats().expect("stats");
        let class = |name| {
            stats.latency.iter().find(|l| l.outcome == name).expect("class recorded").clone()
        };
        let (completed, rejected) = (class("completed"), class("rejected"));
        assert_eq!((completed.count, rejected.count), (1, 1));
        assert!(completed.p50_us > 1, "a real plan takes time: {completed:?}");
        assert_eq!(rejected.p99_us, 1, "a job that never ran records 0 µs: {rejected:?}");
    });
}

#[test]
fn an_unknown_id_rejects_only_its_own_job() {
    // Registered ids resolve per job: an unknown id between known and
    // inline jobs is rejected alone, and every sibling answers exactly
    // like the same job with its SOC inline, in a batch of its own.
    let soc = MixedSignalSoc::d695m();
    let inline = || WireSocRef::Inline(soc.clone());
    let specs = [JobSpec::Single { width: 16 }, JobSpec::BestWidth { widths: vec![32, 24] }];
    let oracle: Vec<Vec<u8>> = msoc_net::serial_replay(
        &specs.iter().map(|spec| vec![WireJob::new(inline(), spec.clone())]).collect::<Vec<_>>(),
    );
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr, "tenant-ids").expect("connect");
        let soc_id = client.register(soc.clone()).expect("register");
        let batch = vec![
            WireJob::new(WireSocRef::Registered(soc_id), specs[0].clone()),
            WireJob::new(WireSocRef::Registered(soc_id + 1), specs[0].clone()),
            WireJob::new(inline(), specs[1].clone()),
            WireJob::new(WireSocRef::Registered(soc_id), specs[1].clone()),
        ];
        // Twice: the second request reuses the first one's handle.
        for _ in 0..2 {
            let outcomes = client.submit(batch.clone()).expect("submit");
            let unknown = format!("unknown registered soc id {}", soc_id + 1);
            assert!(
                matches!(&outcomes[1], WireOutcome::Rejected { error } if error.contains(&unknown)),
                "{:?}",
                outcomes[1],
            );
            for (outcome, want) in [(0, 0), (2, 1), (3, 1)] {
                let got = WireOutcome::encode_batch(std::slice::from_ref(&outcomes[outcome]));
                assert_eq!(got, oracle[want], "job {outcome}: {:?}", outcomes[outcome]);
            }
        }
    });
}

#[test]
fn shutdown_flushes_snapshots_and_boot_recovers_them() {
    let root = std::env::temp_dir().join(format!("msoc_net_loopback_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServerConfig {
        shards: 2,
        store_root: Some(root.clone()),
        snapshot_tick: Duration::from_millis(5),
        ..ServerConfig::default()
    };

    // Phase 1: warm one tenant, shut down gracefully (flush on).
    let (report, ()) = with_server(config.clone(), |addr| {
        let mut client = Client::connect(addr, "persist-me").expect("connect");
        let outcomes = client
            .submit(vec![WireJob::new(
                WireSocRef::Inline(MixedSignalSoc::d695m()),
                JobSpec::Single { width: 20 },
            )])
            .expect("submit");
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)));
        assert!(client.snapshot_now().expect("forced snapshot") >= 1);
    });
    let persisted: u64 = report.shards.iter().map(|s| s.generations_persisted).sum();
    assert!(persisted >= 1, "graceful shutdown must leave generations: {report:?}");

    // Phase 2: boot a fresh server over the same root; the warm shard
    // replays the same job with zero schedule misses.
    let (report, ()) = with_server(config, |addr| {
        let mut client = Client::connect(addr, "persist-me").expect("reconnect");
        let outcomes = client
            .submit(vec![WireJob::new(
                WireSocRef::Inline(MixedSignalSoc::d695m()),
                JobSpec::Single { width: 20 },
            )])
            .expect("warm resubmit");
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)));
        let stats = client.stats().expect("stats");
        // One plan job evaluates several candidate configurations, each
        // its own cache lookup — what matters is that *none* missed.
        assert_eq!(stats.schedule_misses, 0, "boot recovery must serve warm: {stats:?}");
        assert!(stats.schedule_hits >= 1, "{stats:?}");
    });
    let replayed: u64 = report.shards.iter().map(|s| s.stats.schedule_hits).sum();
    assert!(replayed >= 1, "{report:?}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_payload_that_ends_inside_a_record_is_answered() {
    // A complete frame whose payload stops two bytes into the tenant
    // string: the frame arrived whole, so this is a corrupt payload, not
    // a disconnect — the server must answer it, and keep serving.
    with_server(ServerConfig::default(), |addr| {
        let mut frame = frame_request(&Request::Stats { tenant: "tenant-cut".into() });
        frame.truncate(frame.len() - 2);
        frame[6] -= 2; // the one-byte payload length
        answers_with_error(addr, &frame, "payload ends inside a record");
        let mut client = Client::connect(addr, "tenant-cut").expect("connect");
        assert_eq!(client.stats().expect("the server still serves").jobs_submitted, 0);
    });
}

#[test]
fn tenants_on_one_shard_cannot_use_each_others_soc_ids() {
    with_server(ServerConfig { shards: 1, ..ServerConfig::default() }, |addr| {
        let mut owner = Client::connect(addr, "tenant-a").expect("connect owner");
        let soc_id = owner.register(MixedSignalSoc::d695m()).expect("register");
        let job = || WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 16 });

        let mut other = Client::connect(addr, "tenant-b").expect("connect other");
        let outcomes = other.submit(vec![job()]).expect("submit answers");
        let unknown = format!("unknown registered soc id {soc_id}");
        assert!(
            matches!(&outcomes[0], WireOutcome::Rejected { error } if error.contains(&unknown)),
            "another tenant's id must be unknown: {:?}",
            outcomes[0],
        );
        let revised = other.revise(
            soc_id,
            vec![CoreEdit::ReplaceAnalog { index: 2, core: paper_cores()[2].clone() }],
        );
        assert!(
            matches!(&revised, Err(e) if e.to_string().contains(&unknown)),
            "another tenant cannot revise the id: {revised:?}",
        );

        let outcomes = owner.submit(vec![job()]).expect("owner submits");
        assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);
        assert_eq!(owner.revise(soc_id, vec![]).expect("owner revises"), 1);
    });
}

#[test]
fn an_invalid_partition_is_refused_for_the_whole_frame() {
    // Sharing configs are validated when the frame is decoded: a Submit
    // whose config puts core 2 in two groups gets one error frame, not a
    // per-job outcome, and the server keeps serving new connections.
    with_server(ServerConfig::default(), |addr| {
        let mut job = WireJob::new(WireSocRef::Registered(1), JobSpec::Table { widths: vec![16] });
        job.configs = Some(vec![SharingConfig::new(5, vec![vec![0, 1], vec![2, 3, 4]])]);
        let mut frame =
            frame_request(&Request::Submit { tenant: "tenant-p".into(), jobs: vec![job] });
        let valid = [5, 2, 3, 2, 3, 4, 2, 0, 1];
        let at = (0..frame.len()).find(|&i| frame[i..].starts_with(&valid)).expect("config bytes");
        frame[at + valid.len() - 1] = 2;
        answers_with_error(addr, &frame, "core 2 in two groups");
        let mut client = Client::connect(addr, "tenant-p").expect("connect");
        assert_eq!(client.stats().expect("the server still serves").jobs_submitted, 0);
    });
}
