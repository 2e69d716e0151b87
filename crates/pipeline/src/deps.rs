//! Dependency-key introspection for instruction streams.
//!
//! The engine resolves cross-stage dependencies by keying activation and
//! gradient availability on `(virtual stage, microbatch)`; this module is
//! that keying as a standalone, inspectable artifact. [`produced`] and
//! [`consumed`] answer, for any instruction on any device, which key its
//! completion publishes and which key it must wait for — generalized over
//! virtual stages exactly as the engine executes them (chunk `c` on
//! device `s` is virtual stage `c·p + s`).
//!
//! Two consumers share it: the engine's list scheduler (so the executable
//! semantics and the published introspection cannot drift), and the
//! `schedverify` crate's deadlock explanation, which walks the very same
//! edges to spell out the cycle behind a wedged run.
//!
//! Both also share the storage of that keying: [`DepSlots`] numbers every
//! in-range `(iteration, DepKey)` densely, so a whole-stream pass looks a
//! key up in O(1) without hashing, and [`consumer_device`] names the one
//! device a published key can unblock, so list schedulers wake exactly
//! that device instead of polling every stage.

use std::collections::{BTreeMap, BTreeSet};

use crate::instructions::PipelineInstruction;

/// A cross-stage availability key: the engine's end-time maps are keyed
/// by `(iteration, DepKey)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKey {
    /// The forward activation of `microbatch` leaving virtual stage `vs`.
    Fwd {
        /// Virtual stage index in `0..chunks·p`.
        vs: usize,
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// The backward gradient of `microbatch` leaving virtual stage `vs`.
    Bwd {
        /// Virtual stage index in `0..chunks·p`.
        vs: usize,
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
}

/// One inbound dependency of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// The key the instruction waits for.
    pub key: DepKey,
    /// Whether satisfying it crosses a device boundary (and therefore
    /// pays the inter-stage communication latency). Chunk hand-offs that
    /// stay on the same device — `p == 1` wrap-arounds — do not.
    pub crosses_device: bool,
}

/// The key `instr` publishes when it completes on device `stage` of a
/// `p`-device pipeline, if any.
///
/// `BackwardWeight` publishes nothing (ZB-H1's `W` half has no
/// cross-stage consumers — that is the whole point of deferring it), and
/// neither do markers, gradient sync, or the optimizer step.
pub fn produced(instr: PipelineInstruction, stage: usize, p: usize) -> Option<DepKey> {
    match instr {
        PipelineInstruction::Forward { microbatch } => Some(DepKey::Fwd {
            vs: stage,
            microbatch,
        }),
        PipelineInstruction::ForwardChunk { chunk, microbatch } => Some(DepKey::Fwd {
            vs: chunk * p + stage,
            microbatch,
        }),
        PipelineInstruction::Backward { microbatch }
        | PipelineInstruction::BackwardInput { microbatch } => Some(DepKey::Bwd {
            vs: stage,
            microbatch,
        }),
        PipelineInstruction::BackwardChunk { chunk, microbatch } => Some(DepKey::Bwd {
            vs: chunk * p + stage,
            microbatch,
        }),
        PipelineInstruction::BackwardWeight { .. }
        | PipelineInstruction::Bubble { .. }
        | PipelineInstruction::GradSync
        | PipelineInstruction::OptimizerStep => None,
    }
}

/// The key `instr` must wait for before starting on device `stage` of a
/// `p`-device pipeline with `chunks` model chunks per device, if any.
///
/// `None` means the instruction is unconditionally runnable once the
/// device reaches it in program order: pipeline-entry forwards
/// (virtual stage 0), pipeline-exit backwards (the last virtual stage),
/// `BackwardWeight` (its `B` half precedes it in program order), and all
/// non-compute instructions.
pub fn consumed(
    instr: PipelineInstruction,
    stage: usize,
    p: usize,
    chunks: usize,
) -> Option<DepEdge> {
    match instr {
        PipelineInstruction::Forward { microbatch } => (stage > 0).then(|| DepEdge {
            key: DepKey::Fwd {
                vs: stage - 1,
                microbatch,
            },
            crosses_device: true,
        }),
        PipelineInstruction::ForwardChunk { chunk, microbatch } => {
            let vs = chunk * p + stage;
            (vs > 0).then(|| DepEdge {
                key: DepKey::Fwd {
                    vs: vs - 1,
                    microbatch,
                },
                // The previous virtual stage lives on the previous device
                // (wrapping across chunk boundaries), so the hand-off
                // pays the inter-stage link unless p == 1.
                crosses_device: (vs - 1) % p != stage,
            })
        }
        PipelineInstruction::Backward { microbatch }
        | PipelineInstruction::BackwardInput { microbatch } => (stage < p - 1).then(|| DepEdge {
            key: DepKey::Bwd {
                vs: stage + 1,
                microbatch,
            },
            crosses_device: true,
        }),
        PipelineInstruction::BackwardChunk { chunk, microbatch } => {
            let vs = chunk * p + stage;
            (vs < chunks * p - 1).then(|| DepEdge {
                key: DepKey::Bwd {
                    vs: vs + 1,
                    microbatch,
                },
                crosses_device: (vs + 1) % p != stage,
            })
        }
        PipelineInstruction::BackwardWeight { .. }
        | PipelineInstruction::Bubble { .. }
        | PipelineInstruction::GradSync
        | PipelineInstruction::OptimizerStep => None,
    }
}

/// The device whose stream waits on `key` in a `p`-device pipeline: the
/// device hosting the next virtual stage for activations, the previous
/// one for gradients.
///
/// Every instruction [`consumed`] keys on `key` runs on this device,
/// whatever its chunk or stage, so publishing `key` can unblock no other
/// device.
pub fn consumer_device(key: DepKey, p: usize) -> usize {
    match key {
        DepKey::Fwd { vs, .. } => match vs % p + 1 {
            next if next == p => 0,
            next => next,
        },
        DepKey::Bwd { vs, .. } => match vs % p {
            0 => p - 1,
            device => device - 1,
        },
    }
}

/// A map from `(iteration, DepKey)` to `T`, stored densely for the keys a
/// well-formed run can publish.
///
/// The dense range is iterations `0..iterations`, virtual stages
/// `0..chunks·p` and microbatches `0..m`, both directions: one slot per
/// key, laid out `((iteration·2 + direction)·chunks·p + vs)·m +
/// microbatch`. Anything outside it (only malformed streams name such
/// keys) lands in a small ordered overflow map and behaves identically.
/// The dense table is only allocated when it holds no more slots than the
/// run has instructions: a well-formed run publishes one key per
/// forward and backward, so a larger table could never fill, and an
/// oversized shape cannot drive an allocation.
///
/// A dense slot holds a bare `T`, so it costs no more than its value: one
/// value of `T`, `vacant`, marks an empty slot, and a small set records
/// the slots where `vacant` itself was stored. A caller that picks a
/// value it rarely or never stores pays nothing for that set.
#[derive(Debug)]
pub struct DepSlots<T> {
    virtual_stages: usize,
    microbatches: usize,
    iterations: usize,
    dense: Vec<T>,
    vacant: T,
    /// Dense slots that hold `vacant` as a stored value.
    stored_vacant: BTreeSet<usize>,
    overflow: BTreeMap<(usize, DepKey), T>,
}

impl<T: Copy + PartialEq> DepSlots<T> {
    /// An empty map for `iterations` unrolled iterations of a `p`-device,
    /// `chunks`-chunk, `microbatches`-microbatch run of `instructions`
    /// instruction occurrences in all, whose empty dense slots hold
    /// `vacant`.
    pub fn new(
        p: usize,
        chunks: usize,
        microbatches: usize,
        iterations: usize,
        instructions: usize,
        vacant: T,
    ) -> Self {
        let slots = chunks
            .checked_mul(p)
            .and_then(|vs| vs.checked_mul(microbatches))
            .and_then(|n| n.checked_mul(2))
            .and_then(|n| n.checked_mul(iterations))
            .filter(|&n| n <= instructions);
        let (virtual_stages, microbatches, iterations) = match slots {
            Some(_) => (chunks * p, microbatches, iterations),
            None => (0, 0, 0),
        };
        DepSlots {
            virtual_stages,
            microbatches,
            iterations,
            dense: vec![vacant; slots.unwrap_or(0)],
            vacant,
            stored_vacant: BTreeSet::new(),
            overflow: BTreeMap::new(),
        }
    }

    /// The value in dense slot `i`, if any.
    fn read(&self, i: usize) -> Option<T> {
        let value = self.dense[i];
        (value != self.vacant || self.stored_vacant.contains(&i)).then_some(value)
    }

    /// Stores `value` in dense slot `i`, returning the value it replaced.
    fn write(&mut self, i: usize, value: T) -> Option<T> {
        let earlier = self.read(i);
        if value == self.vacant {
            self.stored_vacant.insert(i);
        } else if earlier == Some(self.vacant) {
            self.stored_vacant.remove(&i);
        }
        self.dense[i] = value;
        earlier
    }

    /// Dense slots per iteration: `2·chunks·p·m`, or 0 when the dense
    /// table was not allocated.
    pub fn slots_per_iteration(&self) -> usize {
        2 * self.virtual_stages * self.microbatches
    }

    /// `key`'s dense offset within an iteration, the same in every
    /// iteration of the dense range, or `None` if the key lies outside it
    /// and so lives in the overflow map. `(iteration, key)` is slot
    /// `iteration · slots_per_iteration() + offset`, so a caller that
    /// replays one key iteration after iteration resolves it once and
    /// then reads [`DepSlots::get_at`] and writes [`DepSlots::insert_at`].
    pub fn offset(&self, key: DepKey) -> Option<usize> {
        let (direction, vs, microbatch) = match key {
            DepKey::Fwd { vs, microbatch } => (0, vs, microbatch),
            DepKey::Bwd { vs, microbatch } => (1, vs, microbatch),
        };
        (vs < self.virtual_stages && microbatch < self.microbatches)
            .then(|| (direction * self.virtual_stages + vs) * self.microbatches + microbatch)
    }

    fn slot(&self, iteration: usize, key: DepKey) -> Option<usize> {
        if iteration >= self.iterations {
            return None;
        }
        self.offset(key)
            .map(|offset| iteration * self.slots_per_iteration() + offset)
    }

    /// The value stored for `key` in `iteration`, if any.
    pub fn get(&self, iteration: usize, key: DepKey) -> Option<T> {
        match self.slot(iteration, key) {
            Some(i) => self.read(i),
            None => self.overflow.get(&(iteration, key)).copied(),
        }
    }

    /// Stores `value` for `key` in `iteration`, replacing any earlier one.
    pub fn insert(&mut self, iteration: usize, key: DepKey, value: T) {
        match self.slot(iteration, key) {
            Some(i) => {
                self.write(i, value);
            }
            None => {
                self.overflow.insert((iteration, key), value);
            }
        }
    }

    /// The value stored in `iteration` for the key at dense `offset`
    /// (from [`DepSlots::offset`]): [`DepSlots::get`] without resolving
    /// the key.
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is past the dense range.
    pub fn get_at(&self, iteration: usize, offset: usize) -> Option<T> {
        self.read(iteration * self.slots_per_iteration() + offset)
    }

    /// Stores `value` in `iteration` for the key at dense `offset`:
    /// [`DepSlots::insert`] without resolving the key. Returns the value
    /// it replaced, if any.
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is past the dense range.
    pub fn insert_at(&mut self, iteration: usize, offset: usize, value: T) -> Option<T> {
        self.write(iteration * self.slots_per_iteration() + offset, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_chain_links_adjacent_stages() {
        let f = PipelineInstruction::Forward { microbatch: 3 };
        assert_eq!(consumed(f, 0, 4, 1), None, "stage 0 enters the pipeline");
        assert_eq!(
            consumed(f, 2, 4, 1),
            Some(DepEdge {
                key: DepKey::Fwd {
                    vs: 1,
                    microbatch: 3
                },
                crosses_device: true,
            })
        );
        assert_eq!(
            produced(f, 2, 4),
            Some(DepKey::Fwd {
                vs: 2,
                microbatch: 3
            })
        );
    }

    #[test]
    fn backward_chain_links_in_reverse() {
        let b = PipelineInstruction::Backward { microbatch: 1 };
        assert_eq!(consumed(b, 3, 4, 1), None, "last stage turns around");
        assert_eq!(
            consumed(b, 1, 4, 1).map(|e| e.key),
            Some(DepKey::Bwd {
                vs: 2,
                microbatch: 1
            })
        );
        // ZB-H1's B half keys identically to a full backward.
        let bi = PipelineInstruction::BackwardInput { microbatch: 1 };
        assert_eq!(consumed(bi, 1, 4, 1), consumed(b, 1, 4, 1));
        assert_eq!(produced(bi, 1, 4), produced(b, 1, 4));
    }

    #[test]
    fn chunk_handoffs_wrap_across_devices() {
        // p=4, v=2: chunk 1 on device 0 is virtual stage 4; its input
        // comes from virtual stage 3 = chunk 0 on device 3 — a real link.
        let f = PipelineInstruction::ForwardChunk {
            chunk: 1,
            microbatch: 0,
        };
        let e = consumed(f, 0, 4, 2).expect("vs 4 has an upstream");
        assert_eq!(
            e.key,
            DepKey::Fwd {
                vs: 3,
                microbatch: 0
            }
        );
        assert!(e.crosses_device);
        // p=1: every hand-off stays on the lone device.
        let e = consumed(f, 0, 1, 2).expect("vs 1 has an upstream");
        assert!(!e.crosses_device);
        // The last virtual stage's backward enters unconditionally.
        let b = PipelineInstruction::BackwardChunk {
            chunk: 1,
            microbatch: 0,
        };
        assert_eq!(consumed(b, 3, 4, 2), None);
        assert_eq!(
            consumed(b, 2, 4, 2).map(|e| e.key),
            Some(DepKey::Bwd {
                vs: 7,
                microbatch: 0
            })
        );
    }

    #[test]
    fn weight_half_and_markers_are_dependency_free() {
        for instr in [
            PipelineInstruction::BackwardWeight { microbatch: 2 },
            PipelineInstruction::GradSync,
            PipelineInstruction::OptimizerStep,
            PipelineInstruction::Bubble {
                kind: crate::bubbles::BubbleKind::FwdBwd,
            },
        ] {
            assert_eq!(produced(instr, 1, 4), None, "{instr:?}");
            assert_eq!(consumed(instr, 1, 4, 1), None, "{instr:?}");
        }
    }

    /// Whatever instruction waits on a key, on whatever device, it runs
    /// on the key's consumer device — chunked or not, in or out of the
    /// configured chunk range, at every pipeline depth including p = 1.
    #[test]
    fn consumer_device_runs_every_consumer_of_a_key() {
        for p in 1..6 {
            for chunks in 1..4 {
                for stage in 0..p {
                    for chunk in 0..chunks + 2 {
                        for instr in [
                            PipelineInstruction::Forward { microbatch: 1 },
                            PipelineInstruction::Backward { microbatch: 1 },
                            PipelineInstruction::BackwardInput { microbatch: 1 },
                            PipelineInstruction::ForwardChunk {
                                chunk,
                                microbatch: 1,
                            },
                            PipelineInstruction::BackwardChunk {
                                chunk,
                                microbatch: 1,
                            },
                        ] {
                            if let Some(edge) = consumed(instr, stage, p, chunks) {
                                assert_eq!(
                                    consumer_device(edge.key, p),
                                    stage,
                                    "{instr:?} on device {stage} of p={p} v={chunks}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// In-range keys take dense slots and out-of-range ones the overflow
    /// map; both read back exactly what was stored last, and no two keys
    /// share a slot. The empty-slot marker (5, stored under the sixth
    /// key, which is dense) is a value like any other.
    #[test]
    fn dep_slots_store_every_key_once() {
        let fwd = |vs, microbatch| DepKey::Fwd { vs, microbatch };
        let bwd = |vs, microbatch| DepKey::Bwd { vs, microbatch };
        let (p, chunks, m, iters) = (3, 2, 4, 2);
        let mut slots = DepSlots::new(p, chunks, m, iters, 1_000, 5);
        let keys: Vec<(usize, DepKey)> = (0..iters + 1)
            .flat_map(|it| {
                (0..chunks * p + 2).flat_map(move |vs| {
                    (0..m + 2).flat_map(move |mb| [(it, fwd(vs, mb)), (it, bwd(vs, mb))])
                })
            })
            .collect();
        for (n, &(it, key)) in keys.iter().enumerate() {
            assert_eq!(slots.get(it, key), None);
            slots.insert(it, key, n);
        }
        for (n, &(it, key)) in keys.iter().enumerate() {
            assert_eq!(slots.get(it, key), Some(n), "{it} {key:?}");
        }
        slots.insert(0, fwd(0, 0), 7);
        assert_eq!(slots.get(0, fwd(0, 0)), Some(7));
        // A dense key's offset reaches the same slot in every iteration,
        // and an out-of-range key has none.
        for &(it, key) in keys.iter().filter(|&&(it, _)| it < iters) {
            match slots.offset(key) {
                Some(offset) => {
                    assert!(offset < slots.slots_per_iteration());
                    let stored = slots.get(it, key);
                    assert_eq!(slots.get_at(it, offset), stored, "{it} {key:?}");
                    assert_eq!(slots.insert_at(it, offset, usize::MAX), stored);
                    assert_eq!(slots.get(it, key), Some(usize::MAX), "{it} {key:?}");
                }
                None => assert!(
                    matches!(key, DepKey::Fwd { vs, microbatch } | DepKey::Bwd { vs, microbatch }
                        if vs >= chunks * p || microbatch >= m),
                    "{key:?} is in range"
                ),
            }
        }
        assert!(slots.stored_vacant.is_empty(), "the marker was overwritten");
        // A shape too large for its instruction count allocates nothing
        // dense, yet still stores and reads back.
        let mut sparse = DepSlots::new(usize::MAX, 2, 2, 4, 10, '\0');
        assert!(sparse.dense.is_empty());
        assert_eq!(sparse.offset(bwd(0, 0)), None);
        sparse.insert(3, bwd(5, 1), 'x');
        assert_eq!(sparse.get(3, bwd(5, 1)), Some('x'));
    }
}
