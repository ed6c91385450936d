//! V2V networking substrate for Cooper's feasibility study (§IV-G).
//!
//! The paper argues that region-of-interest-filtered point clouds fit
//! inside DSRC bandwidth: "the three presented are within the capacity
//! of DSRC bandwidth, as seen in real-world test". This crate provides
//! the machinery behind that claim:
//!
//! * [`DsrcChannel`] — an 802.11p-style channel model: data rates of
//!   3–27 Mbit/s, per-frame MAC/PHY overhead, MTU fragmentation and
//!   configurable loss.
//! * [`fragment`]/[`reassemble`] — splitting an exchange packet into
//!   MTU-sized fragments and recovering it (with explicit errors for
//!   missing or mixed fragments — the failure-injection surface).
//! * [`ExchangeScheduler`] over a [`SharedMedium`] — the 1 Hz ROI
//!   exchange between two cooperating vehicles, with the per-second
//!   data-volume accounting that regenerates Figure 12.
//!
//! # Examples
//!
//! ```
//! use cooper_v2x::{DataRate, DsrcChannel, DsrcConfig};
//!
//! let channel = DsrcChannel::new(DsrcConfig::default());
//! let report = channel.transmit_sized(225_000, &mut rand::thread_rng()); // ~1.8 Mbit frame
//! assert!(report.complete);
//! // A full frame at 1 Hz uses a fraction of the 6 Mbit/s default rate.
//! assert!(report.airtime_s < 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arq;
mod csma;
mod dsrc;
mod frag;
mod governor;
mod scheduler;

pub use arq::{transmit_with_arq, ArqConfig, ArqReport};
pub use csma::{CsmaMedium, CsmaReport};
pub use dsrc::{
    DataRate, DsrcChannel, DsrcConfig, GilbertElliott, LossModel, LossProcess, TransmissionReport,
    MTU,
};
pub use frag::{fragment, reassemble, salvage_prefix, Fragment, ReassemblyError, SalvagedPrefix};
pub use governor::{demand_roi, BandwidthGovernor};
pub use scheduler::{ExchangeScheduler, RoiTrace, SharedMedium};
