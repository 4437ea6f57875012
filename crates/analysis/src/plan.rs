//! The detection-run plan produced by the analyzer.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use waffle_mem::SiteId;
use waffle_sim::{MemoryModel, SimTime};

use crate::candidates::{CandidatePair, NearMissStats};
use crate::interference::InterferenceSet;

/// Everything a detection run needs from the preparation run.
///
/// The real tool saves this (plus evolving delay probabilities) to disk
/// after analyzing the preparation trace and loads it to bootstrap each
/// detection run (§4.4, §5); [`Plan::to_json`]/[`Plan::from_json`] mirror
/// that persistence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plan {
    /// Workload the plan was derived from.
    pub workload: String,
    /// The candidate set `S`.
    pub candidates: Vec<CandidatePair>,
    /// Planned delay length per delay location: `α · max-gap(ℓ)` (§4.3).
    pub delay_len: BTreeMap<SiteId, SimTime>,
    /// The interference set `I` (§4.4).
    pub interference: InterferenceSet,
    /// Near-miss window used during analysis.
    pub delta: SimTime,
    /// Scan statistics (reporting).
    pub stats: NearMissStats,
    /// Memory model the preparation run simulated: provenance for which
    /// model surfaced the candidate pairs. Omitted from JSON under `Sc`
    /// so pre-weak-memory plans (and their byte layouts) stay unchanged.
    #[serde(default, skip_serializing_if = "MemoryModel::is_sc")]
    pub memory_model: MemoryModel,
}

impl Plan {
    /// Sites at which detection runs inject delays.
    pub fn delay_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.delay_len.keys().copied()
    }

    /// Planned delay length for `site` (zero when not a candidate).
    pub fn delay_for(&self, site: SiteId) -> SimTime {
        self.delay_len.get(&site).copied().unwrap_or(SimTime::ZERO)
    }

    /// Whether `site` is a delay-injection candidate.
    pub fn is_delay_site(&self, site: SiteId) -> bool {
        self.delay_len.contains_key(&site)
    }

    /// Serializes the plan (cross-run persistence format); errors propagate
    /// to the caller instead of aborting the campaign.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::BugKind;
    use waffle_mem::ObjectId;

    fn plan() -> Plan {
        let mut delay_len = BTreeMap::new();
        delay_len.insert(SiteId(0), SimTime::from_us(115));
        let mut interference = InterferenceSet::new();
        interference.insert(SiteId(0), SiteId(2));
        Plan {
            workload: "demo".into(),
            candidates: vec![CandidatePair {
                delay_site: SiteId(0),
                other_site: SiteId(1),
                kind: BugKind::UseBeforeInit,
                obj: ObjectId(0),
                max_gap: SimTime::from_us(100),
                observations: 1,
            }],
            delay_len,
            interference,
            delta: SimTime::from_ms(100),
            stats: NearMissStats::default(),
            memory_model: MemoryModel::Sc,
        }
    }

    #[test]
    fn plan_lookups_work() {
        let p = plan();
        assert!(p.is_delay_site(SiteId(0)));
        assert!(!p.is_delay_site(SiteId(1)));
        assert_eq!(p.delay_for(SiteId(0)), SimTime::from_us(115));
        assert_eq!(p.delay_for(SiteId(9)), SimTime::ZERO);
        assert_eq!(p.delay_sites().count(), 1);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = plan();
        let back = Plan::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(back.candidates, p.candidates);
        assert_eq!(back.delay_len, p.delay_len);
        assert_eq!(back.interference, p.interference);
        assert_eq!(back.delta, p.delta);
    }
}
