//! Concurrency tests for the SPSC ring fabric.
//!
//! Two complementary attacks on the same correctness claim (the
//! producer/consumer counter handoff of `fm_core::fabric`):
//!
//! * a two-thread **stress test** that hammers a real ring with randomized
//!   frame sizes and batch sizes — run it with `--release` for the full
//!   2M-frame workload (debug builds use a reduced count);
//! * an **exhaustive interleaving check** in the style of loom/shuttle
//!   (neither is available offline): the push/poll algorithms are broken
//!   into their atomic steps and every schedule of a small workload is
//!   explored, with the slot slab instrumented to catch
//!   publish-before-write and overwrite-before-consume races.
//!
//! The interleaving model explores sequentially-consistent schedules only.
//! That is sufficient here: both counters are monotonic single-writer
//! registers, so under acquire/release ordering the only extra behavior —
//! reading a *stale* value of the opposite counter — is indistinguishable
//! from a schedule where the read simply happened earlier, and every such
//! schedule is in the explored set. The slot contents are ordinary memory,
//! but each slot write/read is ordered by the release store / acquire load
//! of the counters, which the step granularity reproduces.

use fm_core::{spsc_ring, FM_FRAME_MAX};

// ---------------------------------------------------------------------------
// Stress
// ---------------------------------------------------------------------------

/// Tiny xorshift so both threads can derive sizes without sharing state.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Producer pushes frames of random length (8..=152 B) carrying a sequence
/// number and a derived fill pattern; the consumer polls with random batch
/// sizes and verifies sequence order and every payload byte.
#[test]
fn stress_two_threads_varied_sizes_and_batches() {
    let total: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        2_000_000
    };
    let (mut p, mut c) = spsc_ring(256);

    let producer = std::thread::spawn(move || {
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut pushed = 0u64;
        while pushed < total {
            let len = 8 + (xorshift(&mut rng) as usize) % (FM_FRAME_MAX - 8 + 1);
            let seq = pushed;
            let ok = p.try_push_with(|slot| {
                slot[..8].copy_from_slice(&seq.to_le_bytes());
                for (j, b) in slot[8..len].iter_mut().enumerate() {
                    *b = (seq as u8).wrapping_add(j as u8);
                }
                len
            });
            if ok {
                pushed += 1;
            } else {
                std::thread::yield_now();
            }
        }
        let stats = p.stats;
        (pushed, stats)
    });

    let mut rng = 0xD1B54A32D192ED03u64;
    let mut seen = 0u64;
    while seen < total {
        let batch = 1 + (xorshift(&mut rng) as usize) % 64;
        let n = c.poll_batch(batch, |frame| {
            assert!(frame.len() >= 8, "frame shorter than its header");
            let seq = u64::from_le_bytes(frame[..8].try_into().unwrap());
            assert_eq!(seq, seen, "frames reordered or lost");
            for (j, &b) in frame[8..].iter().enumerate() {
                assert_eq!(
                    b,
                    (seq as u8).wrapping_add(j as u8),
                    "payload corrupted at byte {j} of frame {seq}"
                );
            }
            seen += 1;
        });
        if n == 0 {
            std::thread::yield_now();
        }
    }
    let (pushed, pstats) = producer.join().expect("producer panicked");
    assert_eq!(pushed, total);
    assert_eq!(pstats.pushed, total);
    assert_eq!(c.stats.polled, total);
    assert!(c.is_empty_hint(), "ring drained");
}

// ---------------------------------------------------------------------------
// Exhaustive interleavings (loom-style, hand rolled)
// ---------------------------------------------------------------------------

/// The full cross-thread state, cloned at every scheduling branch. `slots`
/// holds `Some(seq)` between the producer's write and the consumer's read,
/// which is exactly the instrumentation that detects ordering races.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Model {
    cap: u64,
    /// Shared atomics (modeled as SC registers; see module docs).
    shared_produced: u64,
    shared_consumed: u64,
    slots: Vec<Option<u64>>,
    // Producer-private state.
    p_head: u64,
    p_cached_consumed: u64,
    p_target: u64,
    p_pc: u8, // 0 = check space, 1 = write slot, 2 = publish produced
    // Consumer-private state.
    c_tail: u64,
    c_cached_produced: u64,
    c_max: u64,
    c_batch: u64,
    c_read: u64,
    c_got: u64,
    c_pc: u8, // 0 = claim batch, 1 = read one slot, 2 = publish consumed
    /// Fault injection: publish `produced` before writing the slot. Used to
    /// prove the checker actually detects ordering bugs.
    buggy_publish_first: bool,
}

impl Model {
    fn new(cap: u64, pushes: u64, max_batch: u64, buggy: bool) -> Self {
        assert!(cap.is_power_of_two());
        Model {
            cap,
            shared_produced: 0,
            shared_consumed: 0,
            slots: vec![None; cap as usize],
            p_head: 0,
            p_cached_consumed: 0,
            p_target: pushes,
            p_pc: 0,
            c_tail: 0,
            c_cached_produced: 0,
            c_max: max_batch,
            c_batch: 0,
            c_read: 0,
            c_got: 0,
            c_pc: 0,
            buggy_publish_first: buggy,
        }
    }

    fn producer_done(&self) -> bool {
        self.p_pc == 0 && self.p_head == self.p_target
    }

    fn consumer_done(&self) -> bool {
        self.c_pc == 0 && self.c_got == self.p_target
    }

    /// A blocked thread (apparent-full producer / apparent-empty consumer
    /// whose refresh would re-read an unchanged counter) is not schedulable;
    /// if *neither* side is, that is a lost wakeup and the check fails.
    fn producer_enabled(&self) -> bool {
        if self.producer_done() {
            return false;
        }
        if self.p_pc == 0 && self.p_head - self.p_cached_consumed == self.cap {
            return self.shared_consumed != self.p_cached_consumed;
        }
        true
    }

    fn consumer_enabled(&self) -> bool {
        if self.consumer_done() {
            return false;
        }
        if self.c_pc == 0 && self.c_cached_produced == self.c_tail {
            return self.shared_produced != self.c_cached_produced;
        }
        true
    }

    fn producer_step(&mut self) -> Result<(), String> {
        match self.p_pc {
            // Space check, refreshing the cached consumer counter only on
            // apparent full — mirrors RingProducer::try_push_with.
            0 => {
                if self.p_head - self.p_cached_consumed == self.cap {
                    self.p_cached_consumed = self.shared_consumed; // Acquire
                } else {
                    self.p_pc = if self.buggy_publish_first { 2 } else { 1 };
                }
            }
            1 => {
                let idx = (self.p_head % self.cap) as usize;
                if self.slots[idx].is_some() {
                    return Err(format!(
                        "producer overwrote unconsumed slot {idx} at seq {}",
                        self.p_head
                    ));
                }
                self.slots[idx] = Some(self.p_head);
                self.p_pc = 2;
            }
            _ => {
                if self.buggy_publish_first && self.p_pc == 2 {
                    // Buggy order: publish first, write the slot afterwards.
                    self.shared_produced = self.p_head + 1;
                    self.p_pc = 3;
                    return Ok(());
                }
                if self.p_pc == 3 {
                    let idx = (self.p_head % self.cap) as usize;
                    self.slots[idx] = Some(self.p_head);
                } else {
                    self.shared_produced = self.p_head + 1; // Release
                }
                self.p_head += 1;
                self.p_pc = 0;
            }
        }
        Ok(())
    }

    fn consumer_step(&mut self) -> Result<(), String> {
        match self.c_pc {
            // Claim a batch, refreshing the cached producer counter only
            // when the cached window is short — mirrors poll_batch.
            0 => {
                let want = self.c_max.min(self.p_target - self.c_got);
                if self.c_cached_produced - self.c_tail < want {
                    self.c_cached_produced = self.shared_produced; // Acquire
                }
                let n = want.min(self.c_cached_produced - self.c_tail);
                if n > 0 {
                    self.c_batch = n;
                    self.c_read = 0;
                    self.c_pc = 1;
                }
            }
            1 => {
                let seq = self.c_tail + self.c_read;
                let idx = (seq % self.cap) as usize;
                match self.slots[idx].take() {
                    Some(v) if v == seq => {}
                    Some(v) => return Err(format!("slot {idx}: read seq {v}, expected {seq}")),
                    None => {
                        return Err(format!(
                            "slot {idx}: consumer read before producer wrote (seq {seq})"
                        ))
                    }
                }
                self.c_read += 1;
                if self.c_read == self.c_batch {
                    self.c_pc = 2;
                }
            }
            _ => {
                self.c_tail += self.c_batch;
                self.c_got += self.c_batch;
                self.shared_consumed = self.c_tail; // Release
                self.c_pc = 0;
            }
        }
        Ok(())
    }
}

/// Explore every reachable state (memoized DFS over schedules). Returns the
/// number of distinct states, or the first invariant violation.
fn explore(root: Model) -> Result<usize, String> {
    use std::collections::HashSet;
    let mut visited: HashSet<Model> = HashSet::new();
    let mut stack = vec![root];
    while let Some(m) = stack.pop() {
        if !visited.insert(m.clone()) {
            continue;
        }
        if m.producer_done() && m.consumer_done() {
            if m.shared_produced != m.p_target || m.c_got != m.p_target {
                return Err(format!(
                    "terminal state lost frames: produced {} delivered {} of {}",
                    m.shared_produced, m.c_got, m.p_target
                ));
            }
            continue;
        }
        let pe = m.producer_enabled();
        let ce = m.consumer_enabled();
        if !pe && !ce {
            return Err(format!(
                "deadlock (lost wakeup): produced={} consumed={} p_pc={} c_pc={}",
                m.shared_produced, m.shared_consumed, m.p_pc, m.c_pc
            ));
        }
        if pe {
            let mut n = m.clone();
            n.producer_step()?;
            stack.push(n);
        }
        if ce {
            let mut n = m.clone();
            n.consumer_step()?;
            stack.push(n);
        }
    }
    Ok(visited.len())
}

/// Every schedule of several small workloads completes with all frames
/// delivered in order, no slot races, and no lost wakeups.
#[test]
fn interleavings_of_counter_handoff_are_exhaustively_safe() {
    for (cap, pushes, max_batch) in [
        (1u64, 3u64, 1u64), // minimum ring: strict alternation forced
        (2, 4, 2),          // wraps twice, batched drain
        (2, 6, 3),          // batch larger than capacity remainder
        (4, 6, 4),          // partial final batch
        (4, 9, 2),          // more laps than depth
    ] {
        let states = explore(Model::new(cap, pushes, max_batch, false))
            .unwrap_or_else(|e| panic!("cap={cap} pushes={pushes} batch={max_batch}: {e}"));
        // Sanity: the schedule space is genuinely explored, not trivially
        // collapsed (a cap-1 ring forces strict alternation, so its space
        // is legitimately small; wider rings must branch).
        let floor = if cap == 1 { 3 * pushes } else { 50 } as usize;
        assert!(
            states > floor,
            "cap={cap} pushes={pushes}: only {states} states explored"
        );
    }
}

/// The checker has teeth: publishing `produced` before writing the slot
/// (the bug acquire/release ordering prevents) is detected in some
/// interleaving.
#[test]
fn interleaving_checker_detects_publish_before_write() {
    let err = explore(Model::new(2, 4, 2, true)).expect_err("racy ordering must be caught");
    assert!(
        err.contains("read before producer wrote"),
        "unexpected failure mode: {err}"
    );
}
