//! Instruction-stream sets: the verifier's input format.
//!
//! A [`StreamSet`] is one iteration's per-device instruction streams plus
//! the two shape parameters the streams are keyed against (microbatch
//! count and chunks per device). Sets come from two places: the built-in
//! schedule generators ([`StreamSet::from_schedule`]) and external stream
//! files ([`StreamSet::parse`]) written in the same TOML subset the
//! scenario layer uses — `key = value` lines, `#` comments, quoted
//! instruction strings:
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
        // Each count is kept with its (1-based) line number, so a bound
        // violation can name the line that set it.
        let mut stages: Option<(usize, usize)> = None;
        let mut microbatches: Option<(usize, usize)> = None;
        let mut chunks: (usize, Option<usize>) = (1, None);
        let mut devices: Vec<(usize, Vec<PipelineInstruction>)> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {}: expected 'key = value', got '{line}'", lineno + 1)
            })?;
            let key = key.trim();
            let value = value.trim().trim_matches('"').trim();
            match key {
                "stages" => stages = Some((parse_count(key, value)?, lineno + 1)),
                "microbatches" => microbatches = Some((parse_count(key, value)?, lineno + 1)),
                "chunks" => chunks = (parse_count(key, value)?, Some(lineno + 1)),
                _ => {
                    let idx: usize = key
                        .strip_prefix("device_")
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(|| {
                            format!(
                                "line {}: unknown key '{key}' \
                                 (stages|microbatches|chunks|device_<i>)",
                                lineno + 1
                            )
                        })?;
                    if devices.iter().any(|(i, _)| *i == idx) {
                        return Err(format!("line {}: duplicate device_{idx}", lineno + 1));
                    }
                    let mut stream = Vec::new();
                    for tok in value.split_whitespace() {
                        stream.push(
                            parse_token(tok)
                                .map_err(|e| format!("line {}: device_{idx}: {e}", lineno + 1))?,
                        );
                    }
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
        if p > devices.len() {
            let mut present: Vec<usize> = devices.iter().map(|(idx, _)| *idx).collect();
            present.sort_unstable();
            let missing = (0..)
                .zip(&present)
                .find(|&(i, &idx)| i != idx)
                .map_or(present.len(), |(i, _)| i);
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
        devices.sort_unstable_by_key(|(idx, _)| *idx);
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
        let mut out = String::new();
        out.push_str(&format!("stages = {}\n", self.stages()));
        out.push_str(&format!("microbatches = {}\n", self.microbatches));
        out.push_str(&format!("chunks = {}\n", self.chunks));
        for (s, stream) in self.streams.iter().enumerate() {
            let tokens: Vec<String> = stream.iter().map(|&i| token(i)).collect();
            out.push_str(&format!("device_{s} = \"{}\"\n", tokens.join(" ")));
        }
        out
    }
}

fn parse_count(key: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("'{key}' must be a non-negative integer, got '{value}'"))
}

/// The mnemonic for one instruction (inverse of token parsing); also used
/// by findings so diagnostics read like stream files.
pub fn token(instr: PipelineInstruction) -> String {
    match instr {
        PipelineInstruction::Forward { microbatch } => format!("F{microbatch}"),
        PipelineInstruction::Backward { microbatch } => format!("B{microbatch}"),
        PipelineInstruction::ForwardChunk { chunk, microbatch } => format!("F{chunk}.{microbatch}"),
        PipelineInstruction::BackwardChunk { chunk, microbatch } => {
            format!("B{chunk}.{microbatch}")
        }
        PipelineInstruction::BackwardInput { microbatch } => format!("BI{microbatch}"),
        PipelineInstruction::BackwardWeight { microbatch } => format!("BW{microbatch}"),
        PipelineInstruction::GradSync => "sync".into(),
        PipelineInstruction::OptimizerStep => "opt".into(),
        PipelineInstruction::Bubble { kind } => match kind {
            BubbleKind::FwdBwd => "bubble:fwd-bwd".into(),
            BubbleKind::NonContiguous => "bubble:non-contiguous".into(),
            BubbleKind::FillDrain => "bubble:fill-drain".into(),
        },
    }
}

fn parse_token(tok: &str) -> Result<PipelineInstruction, String> {
    match tok {
        "sync" => return Ok(PipelineInstruction::GradSync),
        "opt" => return Ok(PipelineInstruction::OptimizerStep),
        "bubble:fwd-bwd" => {
            return Ok(PipelineInstruction::Bubble {
                kind: BubbleKind::FwdBwd,
            })
        }
        "bubble:non-contiguous" => {
            return Ok(PipelineInstruction::Bubble {
                kind: BubbleKind::NonContiguous,
            })
        }
        "bubble:fill-drain" => {
            return Ok(PipelineInstruction::Bubble {
                kind: BubbleKind::FillDrain,
            })
        }
        _ => {}
    }
    let bad = || {
        format!(
            "unknown instruction '{tok}' \
             (F<m>|B<m>|BI<m>|BW<m>|F<c>.<m>|B<c>.<m>|sync|opt|bubble:<kind>)"
        )
    };
    let num = |s: &str| -> Result<usize, String> { s.parse().map_err(|_| bad()) };
    if let Some(rest) = tok.strip_prefix("BI") {
        return Ok(PipelineInstruction::BackwardInput {
            microbatch: num(rest)?,
        });
    }
    if let Some(rest) = tok.strip_prefix("BW") {
        return Ok(PipelineInstruction::BackwardWeight {
            microbatch: num(rest)?,
        });
    }
    if let Some(rest) = tok.strip_prefix('F') {
        return match rest.split_once('.') {
            Some((c, m)) => Ok(PipelineInstruction::ForwardChunk {
                chunk: num(c)?,
                microbatch: num(m)?,
            }),
            None => Ok(PipelineInstruction::Forward {
                microbatch: num(rest)?,
            }),
        };
    }
    if let Some(rest) = tok.strip_prefix('B') {
        return match rest.split_once('.') {
            Some((c, m)) => Ok(PipelineInstruction::BackwardChunk {
                chunk: num(c)?,
                microbatch: num(m)?,
            }),
            None => Ok(PipelineInstruction::Backward {
                microbatch: num(rest)?,
            }),
        };
    }
    Err(bad())
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
                "duplicate device_0",
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
