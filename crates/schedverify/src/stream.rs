//! Instruction-stream sets: the verifier's input format.
//!
//! A [`StreamSet`] is one iteration's per-device instruction streams plus
//! the two shape parameters the streams are keyed against (microbatch
//! count and chunks per device). Sets come from two places: the built-in
//! schedule generators ([`StreamSet::from_schedule`]) and external stream
//! files ([`StreamSet::parse`]): the workspace TOML subset with no
//! section header, one quoted instruction string per device:
//!
//! ```text
//! # 1F1B on two devices, two microbatches
//! stages = 2
//! microbatches = 2
//! device_0 = "F0 F1 B0 B1 sync opt"
//! device_1 = "F0 B0 F1 B1 sync opt"
//! ```
//!
//! Instruction mnemonics: `F<m>` / `B<m>` (full forward/backward of
//! microbatch `m`), `BI<m>` / `BW<m>` (ZB-H1's split backward halves),
//! `F<c>.<m>` / `B<c>.<m>` (chunked compute of model chunk `c`,
//! interleaved schedules), `sync`, `opt`, and
//! `bubble:fwd-bwd|non-contiguous|fill-drain` markers.

use pipefill_pipeline::{BubbleKind, PipelineInstruction, ScheduleKind};
use pipefill_textfmt::toml::{self, quote};

/// One iteration's per-device instruction streams, plus the shape they
/// are keyed against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSet {
    /// Per-device streams, indexed by stage; `streams.len()` is `p`.
    pub streams: Vec<Vec<PipelineInstruction>>,
    /// Microbatches per iteration (`m`).
    pub microbatches: usize,
    /// Model chunks per device (`v`); 1 for unchunked schedules.
    pub chunks: usize,
}

impl StreamSet {
    /// Number of pipeline stages (devices).
    pub fn stages(&self) -> usize {
        self.streams.len()
    }

    /// Total instruction count across all devices.
    pub fn instruction_count(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// The built-in generator's streams for `kind` on a `p`-stage
    /// pipeline with `m` microbatches.
    pub fn from_schedule(kind: ScheduleKind, p: usize, m: usize) -> StreamSet {
        StreamSet {
            streams: kind.all_stage_instructions(p, m),
            microbatches: m,
            chunks: kind.chunk_count(),
        }
    }

    /// Parses a stream file (format in the module docs).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending line, key, or token.
    pub fn parse(text: &str) -> Result<StreamSet, String> {
        let doc = toml::parse(text)?;
        if let Some(section) = doc.sections.first() {
            let msg = format!("unexpected section '[{}]'", section.name);
            return Err(section.pos.error(msg).into());
        }
        // Each count is kept with its (1-based) line number, so a bound
        // violation can name the line that set it.
        let mut stages: Option<(usize, usize)> = None;
        let mut microbatches: Option<(usize, usize)> = None;
        let mut chunks: (usize, Option<usize>) = (1, None);
        let mut devices: Vec<(usize, Vec<PipelineInstruction>)> = Vec::new();
        for entry in &doc.preamble {
            let (key, line, value) = (entry.key.as_str(), entry.pos.line, &entry.value);
            let count = || {
                let msg = format!("must be a non-negative integer, got '{value}'");
                value.parse().map_err(|_| entry.error(&msg))
            };
            match key {
                "stages" => stages = Some((count()?, line)),
                "microbatches" => microbatches = Some((count()?, line)),
                "chunks" => chunks = (count()?, Some(line)),
                _ => {
                    // Only the canonical spelling, so the shared
                    // duplicate-key check also catches duplicate devices.
                    let idx = key.strip_prefix("device_").and_then(|d| d.parse().ok());
                    let Some(idx) = idx.filter(|idx: &usize| *key == format!("device_{idx}"))
                    else {
                        let msg =
                            format!("unknown key '{key}' (stages|microbatches|chunks|device_<i>)");
                        return Err(entry.pos.error(msg).into());
                    };
                    let stream = value
                        .split_whitespace()
                        .map(parse_token)
                        .collect::<Result<_, _>>()
                        .map_err(|e| entry.pos.error(format!("{key}: {e}")))?;
                    devices.push((idx, stream));
                }
            }
        }

        let (p, stages_line) = stages.ok_or("missing 'stages'")?;
        let (m, microbatches_line) = microbatches.ok_or("missing 'microbatches'")?;
        let (chunks, chunks_line) = chunks;
        if p == 0 || m == 0 || chunks == 0 {
            return Err("stages, microbatches and chunks must all be >= 1".into());
        }
        // Bound every count by the text before anything is sized by it:
        // each stage needs its own device line, and each device needs a
        // forward per (chunk, microbatch).
        if let Some((idx, _)) = devices.iter().find(|(idx, _)| *idx >= p) {
            return Err(format!("device_{idx} out of range for {p} stages"));
        }
        devices.sort_unstable_by_key(|(idx, _)| *idx);
        if p > devices.len() {
            let missing = (0..).zip(&devices).find(|&(i, (idx, _))| i != *idx);
            let missing = missing.map_or(devices.len(), |(i, _)| i);
            return Err(format!(
                "line {stages_line}: stages = {p}, but the file has {} device line(s) \
                 (missing device_{missing})",
                devices.len()
            ));
        }
        let longest = devices.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        if chunks.checked_mul(m).is_none_or(|keys| keys > longest) {
            let keys = match chunks_line {
                Some(line) => format!("microbatches = {m} × chunks = {chunks} (line {line})"),
                None => format!("microbatches = {m}"),
            };
            return Err(format!(
                "line {microbatches_line}: {keys} exceeds the {longest} instructions \
                 of the longest device line; each device needs one forward per \
                 chunk and microbatch"
            ));
        }
        let streams: Vec<Vec<PipelineInstruction>> =
            devices.into_iter().map(|(_, stream)| stream).collect();
        Ok(StreamSet {
            streams,
            microbatches: m,
            chunks,
        })
    }

    /// Renders the set back to the stream-file format; `parse` of the
    /// output reproduces the set exactly.
    pub fn render(&self) -> String {
        let (p, m, v) = (self.stages(), self.microbatches, self.chunks);
        let mut out = format!("stages = {p}\nmicrobatches = {m}\nchunks = {v}\n");
        for (s, stream) in self.streams.iter().enumerate() {
            let tokens: Vec<String> = stream.iter().map(|&i| token(i)).collect();
            out += &format!("device_{s} = {}\n", quote(&tokens.join(" ")));
        }
        out
    }
}

/// The mnemonic for one instruction (inverse of token parsing); also used
/// by findings so diagnostics read like stream files.
pub fn token(instr: PipelineInstruction) -> String {
    use PipelineInstruction as I;
    match instr {
        I::Forward { microbatch } => format!("F{microbatch}"),
        I::Backward { microbatch } => format!("B{microbatch}"),
        I::ForwardChunk { chunk, microbatch } => format!("F{chunk}.{microbatch}"),
        I::BackwardChunk { chunk, microbatch } => format!("B{chunk}.{microbatch}"),
        I::BackwardInput { microbatch } => format!("BI{microbatch}"),
        I::BackwardWeight { microbatch } => format!("BW{microbatch}"),
        I::GradSync => "sync".into(),
        I::OptimizerStep => "opt".into(),
        I::Bubble { kind } => match kind {
            BubbleKind::FwdBwd => "bubble:fwd-bwd".into(),
            BubbleKind::NonContiguous => "bubble:non-contiguous".into(),
            BubbleKind::FillDrain => "bubble:fill-drain".into(),
        },
    }
}

fn parse_token(tok: &str) -> Result<PipelineInstruction, String> {
    use PipelineInstruction as I;
    let bubble = |kind| Ok(I::Bubble { kind });
    match tok {
        "sync" => return Ok(I::GradSync),
        "opt" => return Ok(I::OptimizerStep),
        "bubble:fwd-bwd" => return bubble(BubbleKind::FwdBwd),
        "bubble:non-contiguous" => return bubble(BubbleKind::NonContiguous),
        "bubble:fill-drain" => return bubble(BubbleKind::FillDrain),
        _ => {}
    }
    let bad = || {
        format!(
            "unknown instruction '{tok}' \
             (F<m>|B<m>|BI<m>|BW<m>|F<c>.<m>|B<c>.<m>|sync|opt|bubble:<kind>)"
        )
    };
    let num = |s: &str| -> Result<usize, String> { s.parse().map_err(|_| bad()) };
    // A letter prefix, then `<m>` or `<c>.<m>`.
    let (head, tail) = tok.split_at(tok.find(|c: char| c.is_ascii_digit()).unwrap_or(tok.len()));
    let (chunk, microbatch) = match tail.split_once('.') {
        Some((c, m)) => (Some(num(c)?), num(m)?),
        None => (None, num(tail)?),
    };
    Ok(match (head, chunk) {
        ("F", None) => I::Forward { microbatch },
        ("B", None) => I::Backward { microbatch },
        ("BI", None) => I::BackwardInput { microbatch },
        ("BW", None) => I::BackwardWeight { microbatch },
        ("F", Some(chunk)) => I::ForwardChunk { chunk, microbatch },
        ("B", Some(chunk)) => I::BackwardChunk { chunk, microbatch },
        _ => return Err(bad()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips_every_builtin() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::ZbH1,
        ] {
            let set = StreamSet::from_schedule(kind, 4, 8);
            let reparsed = StreamSet::parse(&set.render()).expect("round trip");
            assert_eq!(set, reparsed, "{kind}");
        }
    }

    #[test]
    fn parse_reads_the_documented_format() {
        let set = StreamSet::parse(
            "# comment\n\
             stages = 2\n\
             microbatches = 2\n\
             device_0 = \"F0 F1 B0 B1 sync opt\"  # trailing comment\n\
             device_1 = \"F0 B0 F1 B1\"\n",
        )
        .expect("parses");
        assert_eq!(set.stages(), 2);
        assert_eq!(set.chunks, 1);
        assert_eq!(
            set.streams[0][0],
            PipelineInstruction::Forward { microbatch: 0 }
        );
        assert_eq!(set.streams[0][4], PipelineInstruction::GradSync);
        assert_eq!(set.instruction_count(), 10);
    }

    #[test]
    fn parse_diagnoses_malformed_input() {
        for (text, needle) in [
            ("microbatches = 2\ndevice_0 = \"F0\"", "missing 'stages'"),
            ("stages = 1\ndevice_0 = \"F0\"", "missing 'microbatches'"),
            ("stages = 1\nmicrobatches = 1", "missing device_0"),
            (
                "stages = 1\nmicrobatches = 1\nbogus = 3\ndevice_0 = \"F0 B0\"",
                "unknown key 'bogus'",
            ),
            (
                "stages = 1\nmicrobatches = 1\ndevice_0 = \"F0 Q3\"",
                "unknown instruction 'Q3'",
            ),
            (
                "stages = 1\nmicrobatches = 1\ndevice_0 = \"F0\"\ndevice_0 = \"F0\"",
                "duplicate key 'device_0' (first set at line 3)",
            ),
            (
                "stages = 1\nmicrobatches = 1\ndevice_4 = \"F0\"",
                "device_4 out of range",
            ),
            (
                "stages = 0\nmicrobatches = 1\ndevice_0 = \"F0\"",
                "must all be >= 1",
            ),
        ] {
            let err = StreamSet::parse(text).expect_err(text);
            assert!(err.contains(needle), "'{err}' should mention '{needle}'");
        }
    }

    #[test]
    fn tokens_cover_every_variant() {
        for (tok, instr) in [
            ("F3", PipelineInstruction::Forward { microbatch: 3 }),
            ("B3", PipelineInstruction::Backward { microbatch: 3 }),
            (
                "F1.2",
                PipelineInstruction::ForwardChunk {
                    chunk: 1,
                    microbatch: 2,
                },
            ),
            (
                "B1.2",
                PipelineInstruction::BackwardChunk {
                    chunk: 1,
                    microbatch: 2,
                },
            ),
            ("BI4", PipelineInstruction::BackwardInput { microbatch: 4 }),
            ("BW4", PipelineInstruction::BackwardWeight { microbatch: 4 }),
            ("sync", PipelineInstruction::GradSync),
            ("opt", PipelineInstruction::OptimizerStep),
            (
                "bubble:fwd-bwd",
                PipelineInstruction::Bubble {
                    kind: BubbleKind::FwdBwd,
                },
            ),
        ] {
            assert_eq!(parse_token(tok).expect(tok), instr);
            assert_eq!(token(instr), tok);
        }
        assert!(parse_token("BIx").is_err());
        assert!(parse_token("F1.").is_err());
        assert!(parse_token("").is_err());
    }
}
