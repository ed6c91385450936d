//! The join between a fleet's reports and its trace buffer, shared by
//! the test binaries that check trace chains.

use cooper_core::fleet::{FleetStepReport, TransportDropReason};
use cooper_telemetry::trace::stage;
use cooper_telemetry::{ChromeTrace, TraceId};

/// The stage the fleet's drop table maps each [`TransportDropReason`]
/// to, spelled out here so a swapped table entry fails the join.
fn expected_stage(reason: &TransportDropReason) -> &'static str {
    match reason {
        TransportDropReason::DeadlineExceeded => stage::DEADLINE_EXCEEDED,
        TransportDropReason::PartialDelivery { .. } => stage::SALVAGED,
        TransportDropReason::SalvageFailed { .. } => stage::SALVAGE_FAILED,
        TransportDropReason::BudgetExceeded => stage::GOVERN_SKIP,
        TransportDropReason::AlignmentRejected { .. } => stage::ALIGN_REJECTED,
        TransportDropReason::Corrupted => stage::V2X_CORRUPTED,
        TransportDropReason::IntegrityFailed => stage::INTEGRITY_FAILED,
        TransportDropReason::Quarantined => stage::QUARANTINED,
        TransportDropReason::ConsistencyRejected { .. } => stage::CONSISTENCY_REJECTED,
    }
}

/// The join the tracing exists for: every reported transport drop must
/// resolve, by its `(step, from, to)` identity, to a trace chain whose
/// one terminal stage is the stage its [`TransportDropReason`] maps to
/// ([`expected_stage`]). A salvaged partial delivery passes its stage
/// without ending there: the chain continues into fusion, so its
/// terminal is whatever phase 3 decided. Beyond the drops, every
/// transfer the trace knows about must end in exactly one terminal.
pub fn assert_drops_join(reports: &[FleetStepReport], trace: &ChromeTrace) {
    for report in reports {
        for drop in &report.transport_drops {
            let id = TraceId::new(report.step, drop.from, drop.to);
            let chain = trace.events_for(id);
            let terminals: Vec<_> = chain.iter().filter(|e| e.terminal).collect();
            assert_eq!(
                terminals.len(),
                1,
                "transport drop {id} ({:?}) must end in exactly one terminal: {chain:?}",
                drop.reason
            );
            let expected = expected_stage(&drop.reason);
            match &drop.reason {
                TransportDropReason::PartialDelivery { .. } => {
                    assert!(
                        chain.iter().any(|e| e.name == stage::PARTIAL),
                        "{id}: {chain:?}"
                    );
                    assert!(
                        chain.iter().any(|e| e.name == expected && !e.terminal),
                        "{id}: {chain:?}"
                    );
                }
                reason => {
                    let terminal = terminals[0];
                    assert_eq!(terminal.name, expected, "{id} ({reason:?}): {chain:?}");
                    let detail = match reason {
                        TransportDropReason::AlignmentRejected { residual_mm } => *residual_mm,
                        TransportDropReason::ConsistencyRejected { ghost_points } => *ghost_points,
                        _ => continue,
                    };
                    assert_eq!(terminal.detail, Some(u64::from(detail)), "{id}: {chain:?}");
                }
            }
        }
    }
    // Every transfer the trace knows about ended exactly once — fused,
    // rejected, dropped or skipped. No chain dangles or ends twice.
    for id in trace.trace_ids() {
        let chain = trace.events_for(id);
        let terminals = chain.iter().filter(|e| e.terminal).count();
        assert_eq!(terminals, 1, "transfer {id} must end once: {chain:?}");
    }
}
