//! Content substrate: catalogs, popularity models and caches.
//!
//! A CDN is, mechanically, a set of caches fed by skewed demand. This crate
//! provides the demand side of the reproduction:
//!
//! - a synthetic **catalog** of web objects and video segments
//!   ([`catalog`]),
//! - **Zipf** and **region-weighted** popularity ([`popularity`]) — the
//!   paper's "content bubbles" observation (§5) is that demand skew is
//!   *geographic*: a Boca Juniors match is hot in Argentina and cold in
//!   Finland;
//! - the **cache fleet** ([`PolicyFleet`]): one byte-capacity flat-SoA
//!   store (entry arena, byte accounting, the evicted/expired/invalidated
//!   taxonomy and an eager TTL timer queue) under four eviction orders —
//!   LRU, SIEVE, S3-FIFO and W-TinyLFU with count-min admission
//!   ([`sketch`]) — selected by [`PolicyKind`] ([`policy`]);
//! - the terrestrial **edge → regional → origin tree** ([`hierarchy`]),
//!   built on the same fleet running LRU;
//! - **video objects** ([`video`]): DASH-style segment groups ("stripes")
//!   that §4's striping design schedules across successive satellites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod catalog;
mod fleet;
pub mod hierarchy;
pub mod policy;
pub mod popularity;
mod s3fifo;
mod sieve;
pub mod sketch;
mod tinylfu;
pub mod video;

pub use catalog::{Catalog, ContentId, ContentKind, ContentObject, RegionTag};
pub use hierarchy::{
    CacheHierarchy, HierarchyOutcome, ServedBy, TierLatencies, TierLatenciesBuilder,
};
pub use policy::{CacheStats, PolicyFleet, PolicyKind};
pub use popularity::{RegionalPopularity, ZipfSampler};
pub use sketch::FrequencySketch;
pub use video::{StripePlanInput, VideoObject};
