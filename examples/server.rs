//! The plan daemon end to end over loopback TCP: boot a sharded server
//! with persistent snapshots, then drive the whole protocol from a
//! client — register → submit → revise → stats → shutdown — and boot a
//! second server from the first one's snapshots to show recovery
//! serving warm.
//!
//! ```text
//! cargo run --release --example server
//! ```

use std::error::Error;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use msoc::net::ServerReport;
use msoc::prelude::*;

fn boot(
    config: ServerConfig,
) -> Result<(SocketAddr, std::thread::JoinHandle<ServerReport>), Box<dyn Error>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server =
        std::thread::spawn(move || serve(listener, &config).expect("the server loop serves"));
    Ok((addr, server))
}

fn main() -> Result<(), Box<dyn Error>> {
    let root = std::env::temp_dir().join(format!("msoc_server_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = ServerConfig {
        shards: 2,
        store_root: Some(root.clone()),
        admission_cap: Some(8),
        queue_depth_cap: Some(32),
        snapshot_tick: Duration::from_millis(10),
        ..ServerConfig::default()
    };

    let (addr, server) = boot(config.clone())?;
    println!("msocd listening on {addr} ({} shards, snapshots under {})", 2, root.display());

    let mut client = Client::connect(addr, "example-tenant")?;

    // Register the paper's mixed-signal SOC once; plan against the id.
    let soc_id = client.register(MixedSignalSoc::d695m())?;
    println!("registered the d695m SOC as id {soc_id}");

    let outcomes = client.submit(vec![
        WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 16 }),
        WireJob::new(WireSocRef::Registered(soc_id), JobSpec::Single { width: 24 }),
        WireJob::new(
            WireSocRef::Registered(soc_id),
            JobSpec::BestWidth { widths: vec![16, 24, 32] },
        ),
    ])?;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            WireOutcome::Completed(result) => println!("job {i}: completed {result:?}"),
            other => println!("job {i}: {other:?}"),
        }
    }
    assert!(outcomes.iter().all(|o| matches!(o, WireOutcome::Completed(_))));

    // Revise analog core C to a higher-resolution variant and replan:
    // the id survives, the revision counter moves.
    let mut replacement = paper_cores()[2].clone();
    replacement.resolution_bits += 2;
    let revision =
        client.revise(soc_id, vec![CoreEdit::ReplaceAnalog { index: 2, core: replacement }])?;
    println!("revised soc {soc_id} to revision {revision}");
    let outcomes = client.submit(vec![WireJob::new(
        WireSocRef::Registered(soc_id),
        JobSpec::Single { width: 16 },
    )])?;
    assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);

    // Shard stats over the wire: cache traffic, admission accounting
    // and per-outcome latency quantiles.
    let stats = client.stats()?;
    println!(
        "shard {}: {} jobs, {}/{} schedule hits/misses, {} live sessions",
        stats.shard,
        stats.jobs_submitted,
        stats.schedule_hits,
        stats.schedule_misses,
        stats.live_sessions,
    );
    for l in &stats.latency {
        println!("  {}: {} requests, p50 {}µs, p99 {}µs", l.outcome, l.count, l.p50_us, l.p99_us);
    }
    assert_eq!(stats.jobs_submitted, 4);
    assert!(!stats.latency.is_empty());

    // Force a snapshot, then stop gracefully (which flushes once more).
    let persisted = client.snapshot_now()?;
    println!("forced snapshot: {persisted} shard(s) persisted a generation");
    client.shutdown()?;
    let report = server.join().expect("server thread");
    let generations: u64 = report.shards.iter().map(|s| s.generations_persisted).sum();
    println!("server drained; {generations} generation(s) persisted across shards");
    assert!(generations >= 1);

    // Boot a second server over the same store root: the tenant's shard
    // recovers the newest intact generation and serves warm — the same
    // job replays without a single schedule miss.
    let (addr, server) = boot(config)?;
    let mut client = Client::connect(addr, "example-tenant")?;
    let outcomes = client.submit(vec![WireJob::new(
        WireSocRef::Inline(MixedSignalSoc::d695m()),
        JobSpec::Single { width: 16 },
    )])?;
    assert!(matches!(outcomes[0], WireOutcome::Completed(_)), "{:?}", outcomes[0]);
    let stats = client.stats()?;
    assert_eq!(stats.schedule_misses, 0, "recovery must serve warm: {stats:?}");
    println!(
        "rebooted from disk: {} schedule hits, 0 misses — recovery serves warm",
        stats.schedule_hits,
    );
    client.shutdown()?;
    server.join().expect("server thread");

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
