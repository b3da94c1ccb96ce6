//! The factory-automation scenario from the paper's introduction: an emulsion-deposition
//! service (coordinator–cohort) and a transport service (replicated station status plus a
//! conveyor semaphore).
//!
//! Run with: `cargo run --example factory_automation`

use vsync_apps::factory::Factory;
use vsync_core::{Duration, LatencyProfile, SiteId};
use vsync_rt::{IsisHarness, SimRuntime};

fn main() {
    let mut sys = IsisHarness::new(SimRuntime::for_profile(4, LatencyProfile::Modern, 42));
    let factory = Factory::deploy(&mut sys, &[SiteId(0), SiteId(1), SiteId(2)]);
    let operator = sys.spawn(SiteId(3), |_| {});

    // Submit a few emulsion batches; each is processed by exactly one member (the
    // coordinator), with the others standing by as cohorts.
    for batch in 1..=5u64 {
        let done = factory.submit_batch(&mut sys, operator, batch, Duration::from_secs(5));
        println!("batch {batch} deposited by the service -> {done:?}");
    }
    println!(
        "total batches processed: {}",
        factory.total_batches_processed()
    );

    // Update station status through the replicated data tool and read it from another member.
    factory.update_station(&mut sys, 0, "station-7", "loaded");
    factory.update_station(&mut sys, 1, "station-9", "empty");
    sys.settle(Duration::from_millis(200));
    println!(
        "station-7 as seen from member 2: {:?}",
        factory.station_status(2, "station-7")
    );

    // Kill the oldest emulsion member mid-operation; the next batch still completes because
    // the cohorts take over.
    sys.kill_process(factory.emulsion[0].pid);
    sys.wait_until(Duration::from_secs(10), |s| {
        s.view_of(SiteId(1), factory.emulsion_gid)
            .map(|v| v.len() == 2)
            .unwrap_or(false)
    });
    let done = factory.submit_batch(&mut sys, operator, 6, Duration::from_secs(5));
    println!("batch 6 after a member failure -> {done:?}");
    println!("multicasts used: {}", sys.rt.stats().multicast_summary());
}
