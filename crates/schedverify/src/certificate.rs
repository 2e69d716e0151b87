//! Deterministic JSON certificates, written through
//! `pipefill_textfmt::json`: a pure function of the verdicts with keys
//! in a fixed order, so CI can regenerate the certificate grid and `cmp`
//! it byte-for-byte against the checked-in copy. The schema is versioned
//! by [`SCHEMA`].

use pipefill_pipeline::ScheduleKind;
use pipefill_sim_core::SimDuration;
use pipefill_textfmt::json::{Json, Layout};

use crate::stream::StreamSet;
use crate::{verify, Verdict, VerifyConfig};

/// Certificate schema version; bump on any shape change.
pub const SCHEMA: u32 = 1;

/// Uniform per-stage forward time the grid is weighted with.
pub const GRID_T_FWD: SimDuration = SimDuration::from_millis(10);
/// Uniform per-stage backward time the grid is weighted with (the r = 2
/// calibration every closed form in the paper is quoted at).
pub const GRID_T_BWD: SimDuration = SimDuration::from_millis(20);

/// The certified grid: every built-in schedule family across pipeline
/// shapes from toy to paper-scale, all within the closed forms' `m >= p`
/// regime.
pub fn grid() -> Vec<(ScheduleKind, usize, usize)> {
    let shapes = [(2, 4), (2, 8), (4, 8), (4, 16), (8, 16)];
    let kinds = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::ZbH1,
        ScheduleKind::Interleaved { chunks: 2 },
        ScheduleKind::Interleaved { chunks: 4 },
    ];
    let grid = kinds
        .into_iter()
        .flat_map(|kind| shapes.map(|(p, m)| (kind, p, m)));
    grid.collect()
}

/// A rendered certificate grid plus whether every entry certified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridReport {
    /// The full JSON document.
    pub json: String,
    /// True iff every grid entry certified.
    pub all_certified: bool,
}

/// Verifies the whole [`grid`] and renders the certificate document.
pub fn certify_grid() -> GridReport {
    let mut entries = Vec::new();
    let mut certified = 0usize;
    for (kind, p, m) in grid() {
        let set = StreamSet::from_schedule(kind, p, m);
        let cfg = VerifyConfig::new(GRID_T_FWD, GRID_T_BWD).with_schedule(kind);
        let verdict = verify(&set, &cfg);
        certified += usize::from(verdict.certified());
        let entry = fields(&kind.to_string(), &set, &verdict);
        entries.push(Json::object(Layout::Block, entry));
    }
    let all_certified = certified == entries.len();
    let fields = [
        ("schema", SCHEMA.into()),
        ("tool", "schedcheck".into()),
        ("t_fwd_nanos", GRID_T_FWD.as_nanos().into()),
        ("t_bwd_nanos", GRID_T_BWD.as_nanos().into()),
        ("entries", entries.len().into()),
        ("certified", certified.into()),
        ("grid", Json::Array(Layout::Block, entries)),
    ];
    let doc = Json::object(Layout::Block, fields);
    GridReport {
        all_certified,
        json: doc.render(),
    }
}

/// Renders one verdict as a standalone JSON document (the CLI's
/// `verify-schedule --format json` output).
pub fn verdict_json(target: &str, set: &StreamSet, verdict: &Verdict) -> String {
    let head = [("schema", SCHEMA.into()), ("tool", "schedcheck".into())];
    let doc = head.into_iter().chain(fields(target, set, verdict));
    Json::object(Layout::Block, doc).render()
}

/// A verdict's fields in schema order.
fn fields(target: &str, set: &StreamSet, verdict: &Verdict) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("target", target.into()),
        ("stages", set.stages().into()),
        ("microbatches", set.microbatches.into()),
        ("chunks", set.chunks.into()),
        ("certified", verdict.certified().into()),
    ];
    if let Some(stats) = &verdict.stats {
        let peaks = stats.memory_peaks.iter().map(|&p| p.into()).collect();
        let bubble = stats.bubble_fraction_static;
        fields.extend([
            ("instructions", stats.instructions.into()),
            ("dependency_edges", stats.dependency_edges.into()),
            ("memory_peaks", Json::Array(Layout::Inline, peaks)),
            ("period_nanos", stats.period.as_nanos().into()),
            ("bubble_fraction_static", bubble.into()),
        ]);
        if let Some(cf) = stats.closed_form {
            fields.extend([
                ("bubble_fraction_closed_form", cf.expected.into()),
                ("closed_form_relation", cf.relation.as_str().into()),
                ("closed_form_holds", cf.holds.into()),
            ]);
        }
    }
    let findings = verdict.findings.iter().map(|f| {
        let fields = [
            ("property", f.property.as_str().into()),
            ("device", f.device.map_or(Json::Null, Json::from)),
            ("message", f.message.as_str().into()),
        ];
        Json::object(Layout::Inline, fields)
    });
    fields.push(("findings", Json::Array(Layout::Block, findings.collect())));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_certifies_end_to_end() {
        let report = certify_grid();
        assert!(report.all_certified, "{}", report.json);
        assert!(report.json.starts_with("{\n  \"schema\": 1,\n"));
        assert!(report.json.ends_with("]\n}\n"));
        assert_eq!(report.json.matches("\"certified\": true").count(), 25);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(certify_grid(), certify_grid());
    }

    #[test]
    fn verdict_json_is_valid_shape_for_failures_too() {
        let set = StreamSet::parse(
            "stages = 2\nmicrobatches = 2\n\
             device_0 = \"F0 B0 F1 B1\"\n\
             device_1 = \"F1 F0 B0 B1\"\n",
        )
        .expect("parses");
        let verdict = verify(&set, &VerifyConfig::new(GRID_T_FWD, GRID_T_BWD));
        let json = verdict_json("wedge.toml", &set, &verdict);
        assert!(json.contains("\"certified\": false"));
        assert!(json.contains("\"property\": \"deadlock\""));
        assert!(json.ends_with("\n}\n"));
    }
}
