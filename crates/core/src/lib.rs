//! **SpaceCDN** — the paper's contribution: CDN caches hosted on LEO
//! satellites.
//!
//! §4 proposes serving content from the constellation itself: fetch from the
//! satellite directly overhead if it caches the object; otherwise search the
//! ISL neighbourhood for the nearest cached copy; fall back to a ground
//! cache only when space misses entirely. This crate implements that design
//! and the §5 extensions:
//!
//! - [`network`] — the composed Starlink network model (constellation +
//!   gateways + PoP homing + terrestrial fibre): the *baseline* every
//!   SpaceCDN result is compared against;
//! - [`placement`] — cache copy placement strategies (k-per-plane, random
//!   fraction, hop-radius covering, popularity-weighted);
//! - [`retrieval`] — the three-step fetch logic of Figure 6 and its latency
//!   accounting, behind the unified builder-style [`RetrievalRequest`];
//! - [`scenario`] — long-lived retrieval sessions owning network, fault
//!   schedule, snapshot, copy set, and policy across many requests;
//! - [`traffic`] — the steady-state request-driven traffic engine:
//!   Zipf-distributed demand against warm per-satellite LRU+TTL caches;
//! - [`duty_cycle`] — Figure 8's thermal mitigation: only x % of satellites
//!   cache at a time, the rest relay;
//! - [`striping`] — §4's video striping across successive overhead
//!   satellites, with stall analysis;
//! - [`bubbles`] — §5's geographic content bubbles: prefetch a region's hot
//!   set onto satellites entering its field of view;
//! - [`power`] — §5's operational-overhead arithmetic: power, thermal duty
//!   and constellation storage economics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bubbles;
pub mod costs;
pub mod duty_cycle;
pub mod network;
pub mod placement;
pub mod power;
pub mod prefetch;
pub mod retrieval;
pub mod scenario;
pub mod simulation;
pub mod spacevm;
pub mod striping;
pub mod traffic;
pub mod wormhole;

pub use duty_cycle::DutyCycler;
pub use network::{
    clear_graph_pool, delta_enabled, delta_stats, graph_pool_stats, set_delta_override, DeltaStats,
    LsnNetwork, LsnSnapshot, PathBreakdown,
};
pub use placement::{popularity_copy_allocation, PlacementPlan, PlacementSpec, PlacementStrategy};
pub use retrieval::{
    DegradeReason, FetchResult, RetrievalOutcome, RetrievalRequest, RetrievalSource,
};
pub use scenario::{Scenario, ScenarioBuilder};
pub use spacevm::{plan_vm_service, VmMigrationPlan, VmServiceConfig};
pub use striping::{plan_stripes, plan_windows_pass_aware, playback_stalls, StripeAssignment};
pub use traffic::{
    run_traffic, run_traffic_multishell, Arrival, ArrivalStream, ShellTraffic, TrafficConfig,
    TrafficReport, TrafficSource,
};
pub use wormhole::{find_transits, wormhole_capacity, Transit, WormholeCapacity};
