//! The benchmark's own [`IsisRuntime`]s.
//!
//! The stock `SimRuntime` / `ThreadedRuntime` install a bare `SiteStack` privately, which
//! leaves no seam for the traced run.  These two do the same job through the public
//! `SimCluster::install` / `ThreadedCluster::spawn_site` and, when `traced` is set, put a
//! [`Traced`] wrapper around each stack.  The harness above them is the stock
//! [`IsisHarness`](vsync_rt::IsisHarness): the wrapper's `as_any_mut` yields the stack.

use std::sync::mpsc;

use vsync_core::{SiteStack, StackConfig};
use vsync_net::{NetStats, SharedStats, SiteHandler};
use vsync_proto::ProtoConfig;
use vsync_rt::transport::invoke_fn;
use vsync_rt::{
    FaultPlan, IsisRuntime, LinkFaults, NodeReport, SimCluster, StackJob, ThreadedCluster,
};
use vsync_util::{Duration, NetParams, SimTime, SiteId};

use crate::trace::{self, NodeTrace, Traced};

fn boxed(site: SiteId, stack: SiteStack, traced: bool) -> Box<dyn SiteHandler> {
    if traced {
        Box::new(Traced::new(site, stack))
    } else {
        Box::new(stack)
    }
}

fn site_list(n: usize) -> Vec<SiteId> {
    (0..n as u16).map(SiteId).collect()
}

/// Simulated backend: deterministic virtual time, `NetParams::modern` delays.
pub struct BenchSim {
    pub cluster: SimCluster,
    all_sites: Vec<SiteId>,
    stack_cfg: StackConfig,
    proto_cfg: ProtoConfig,
    traced: bool,
}

impl BenchSim {
    pub fn new(num_sites: usize, seed: u64, traced: bool) -> Self {
        let params = NetParams::modern();
        let mut rt = BenchSim {
            cluster: SimCluster::new(num_sites, params, seed),
            all_sites: site_list(num_sites),
            stack_cfg: StackConfig::from_params(&params),
            proto_cfg: ProtoConfig::fast(),
            traced,
        };
        for s in rt.all_sites.clone() {
            rt.install(s);
        }
        rt
    }

    fn install(&mut self, site: SiteId) {
        let stack = SiteStack::new(
            site,
            self.all_sites.clone(),
            self.stack_cfg,
            self.proto_cfg,
            self.cluster.stats(),
        );
        self.cluster.install(site, boxed(site, stack, self.traced));
    }

    pub fn stats(&self) -> NetStats {
        self.cluster.stats().snapshot()
    }
}

impl IsisRuntime for BenchSim {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster
            .with_node::<SiteStack, _>(site, |stack, now, out| job(stack, now, out))
            .is_some()
    }

    fn advance(&mut self, d: Duration) {
        self.cluster.run_for(d);
    }

    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill(site);
    }

    fn recover_site(&mut self, site: SiteId) {
        self.install(site);
    }

    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }

    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}

/// Threaded backend: one OS thread per site, no injected faults or delay.
pub struct BenchThreaded {
    cluster: ThreadedCluster,
    all_sites: Vec<SiteId>,
    traced: bool,
}

impl BenchThreaded {
    pub fn new(num_sites: usize, seed: u64, traced: bool) -> Self {
        let mut rt = BenchThreaded {
            cluster: ThreadedCluster::new(num_sites, FaultPlan::none(), seed),
            all_sites: site_list(num_sites),
            traced,
        };
        for s in rt.all_sites.clone() {
            rt.spawn(s);
        }
        rt
    }

    fn spawn(&mut self, site: SiteId) {
        let all = self.all_sites.clone();
        let traced = self.traced;
        self.cluster.spawn_site(site, move |_now| {
            let stack = SiteStack::new(
                site,
                all,
                vsync_rt::ThreadedRuntime::fast_local_config(),
                ProtoConfig::fast(),
                SharedStats::new(),
            );
            boxed(site, stack, traced)
        });
    }

    /// Runs `f` on every live node's thread and collects the results in site order.
    pub fn on_each_node<T: Send + 'static>(
        &self,
        f: impl Fn(&mut SiteStack) -> T + Send + Clone + 'static,
    ) -> Vec<T> {
        let mut results = Vec::new();
        for site in &self.all_sites {
            let (tx, rx) = mpsc::channel();
            let f = f.clone();
            let sent = self.cluster.invoke(
                *site,
                invoke_fn(move |h, _now, _out| {
                    if let Some(stack) = h.as_any_mut().downcast_mut::<SiteStack>() {
                        let _ = tx.send(f(stack));
                    }
                }),
            );
            if sent {
                if let Ok(v) = rx.recv_timeout(std::time::Duration::from_secs(10)) {
                    results.push(v);
                }
            }
        }
        results
    }

    /// Cluster-wide counters: every node counts on its own thread; merge them.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new();
        for snap in self.on_each_node(|stack| stack.stats().snapshot()) {
            total.merge(&snap);
        }
        total
    }

    /// Collects what each node thread's recorder holds.
    pub fn take_traces(&self) -> NodeTrace {
        let mut all = NodeTrace::default();
        for t in self.on_each_node(|_stack| trace::take()) {
            all.merge(t);
        }
        all
    }

    pub fn shutdown(self) -> Vec<NodeReport> {
        self.cluster.shutdown()
    }
}

impl IsisRuntime for BenchThreaded {
    fn num_sites(&self) -> usize {
        self.cluster.num_sites()
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn with_stack_job(&mut self, site: SiteId, job: StackJob) -> bool {
        self.cluster.invoke(
            site,
            invoke_fn(move |h, now, out| {
                if let Some(stack) = h.as_any_mut().downcast_mut::<SiteStack>() {
                    job(stack, now, out);
                }
            }),
        )
    }

    fn advance(&mut self, d: Duration) {
        std::thread::sleep(std::time::Duration::from_micros(d.as_micros()));
    }

    fn kill_site(&mut self, site: SiteId) {
        self.cluster.kill_site(site);
    }

    fn recover_site(&mut self, site: SiteId) {
        self.spawn(site);
    }

    fn site_is_up(&self, site: SiteId) -> bool {
        self.cluster.site_is_up(site)
    }

    fn set_link_faults(&mut self, links: LinkFaults) {
        self.cluster.set_link_faults(links);
    }
}
