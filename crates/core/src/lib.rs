//! Cache models for the Maya reproduction: the paper's contribution
//! ([`MayaCache`]), the designs it is compared against ([`MirageCache`],
//! the set-associative baseline [`SetAssocCache`], a true
//! [`FullyAssocCache`]), the Table XI secure-partitioning baselines, and an
//! exact storage model ([`storage`]).
//!
//! All designs implement the object-safe [`CacheModel`] trait, so the
//! `champsim-lite` simulator, the `attacks` framework, and the experiment
//! harness can swap them freely.
//!
//! # Quick start
//!
//! ```
//! use maya_core::{CacheModel, MayaCache, MayaConfig, Request, DomainId};
//!
//! let mut llc = MayaCache::new(MayaConfig::with_sets(1024, 42));
//! let domain = DomainId(0);
//!
//! // Maya only caches data that shows reuse: the first access installs a
//! // tag-only (priority-0) entry, the second promotes it.
//! llc.access(Request::read(0xABC, domain));
//! llc.access(Request::read(0xABC, domain));
//! assert!(llc.access(Request::read(0xABC, domain)).is_data_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cache;
mod ceaser;
mod decoupled;
mod fullassoc;
pub mod maya;
mod mirage;
pub mod partitioned;
mod replacement;
mod scatter;
mod skewed;
pub mod storage;
mod threshold;
mod types;

pub use baseline::{Partitioning, SetAssocCache, SetAssocConfig};
pub use cache::{CacheModel, FaultKind};
pub use ceaser::{CeaserCache, CeaserConfig};
pub use fullassoc::FullyAssocCache;
pub use maya::{MayaCache, MayaConfig};
pub use mirage::{MirageCache, MirageConfig, SkewSelection};
pub use replacement::Policy;
pub use scatter::{ScatterCache, ScatterConfig};
pub use threshold::{ThresholdCache, ThresholdConfig};
pub use types::{AccessEvent, AccessKind, CacheStats, DomainId, Request, Response, Writebacks};
