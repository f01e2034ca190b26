//! Batched evaluation of many assignments over one workload.
//!
//! [`BatchSimulator`] prepares everything that does **not** depend on the
//! assignment exactly once — workload validation, region base addresses, a
//! flat decoded op table, and the steady-state L2 prefill image — and then
//! evaluates assignments one at a time against that shared state, in
//! scratch buffers that are reset in place rather than reallocated.
//!
//! Each evaluation is an event loop over pipes. The scalar engine visits
//! every cycle that has a grant and scans every pipe on it, although most
//! grants are pipe-local ops (`Int`, `Mul`, `NiuRx`) that touch nothing but
//! their own strand. Here each pipe runs its own grants — same
//! least-recently-served arbitration, same cycles — until its next grant
//! is a shared op: the core's FPU or crypto unit, the memory hierarchy, a
//! queue, or a transmit. A global loop serves those pending shared grants
//! in the scalar engine's order, earliest cycle first and ascending pipe
//! within a cycle, and lets each served pipe run on. The L2 image is not
//! copied per evaluation either: the lane's L2 logs the sets it writes,
//! and the next evaluation restores only those sets from the template.
//!
//! The contract is strict bit-identity: for any assignment, warm-up and
//! measurement window, [`BatchSimulator::run_one`] returns exactly the
//! [`SimReport`] that `Simulator::new(..)?.run(..)` would, including error
//! strings for invalid assignments. The engine replays the scalar
//! implementation's arithmetic and RNG draw order precisely; where the
//! arithmetic is restructured (integer Bernoulli thresholds, decoded
//! access patterns, the order of grants that share no state), the
//! transformation is exact, not approximate.

use crate::machine::MachineConfig;
use crate::program::{AccessPattern, Op, WorkloadSpec};
use crate::report::SimReport;
use crate::rng::{Bernoulli, XorShift64};
use crate::SimError;

/// One program op with every workload-level lookup already resolved. Kept
/// to eight bytes — the table is re-read on every issue, so a fetch must be
/// a single load. Memory ops index into the shared [`MemOp`] side table,
/// which is only dereferenced on the (more expensive anyway) memory path.
#[derive(Debug, Clone, Copy)]
enum DecodedOp {
    Int(u16),
    Mul(u16),
    Fp(u16),
    Crypto(u16),
    /// Index into [`BatchSimulator::mem_ops`].
    Mem(u32),
    QueuePush(u32),
    QueuePop(u32),
    NiuRx,
    Transmit,
}

/// Resolved details of one memory op: the region's base/size/pattern and
/// whether the access is a store.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    base: u64,
    bytes: u64,
    pattern: DecodedPattern,
    region: u32,
    store: bool,
}

/// [`AccessPattern`] with its per-access constants precomputed: the hot-set
/// clamp and the Bernoulli threshold are resolved at decode time, so the
/// inner loop draws addresses with pure integer arithmetic while consuming
/// the RNG stream exactly like [`crate::engine`]'s `gen_addr`.
#[derive(Debug, Clone, Copy)]
enum DecodedPattern {
    Uniform,
    Sequential { stride: u64 },
    Hot { draw: Bernoulli, hot_span: u64 },
}

impl DecodedPattern {
    fn new(pattern: AccessPattern, bytes: u64) -> Self {
        match pattern {
            AccessPattern::Uniform => DecodedPattern::Uniform,
            AccessPattern::Sequential { stride } => DecodedPattern::Sequential {
                stride: stride as u64,
            },
            AccessPattern::Hot {
                hot_bytes,
                hot_prob,
            } => DecodedPattern::Hot {
                draw: Bernoulli::new(hot_prob),
                hot_span: hot_bytes.clamp(8, bytes),
            },
        }
    }
}

/// L2-bank selection, strength-reduced at decode time when the line size
/// and bank count are powers of two (they are for every shipped machine
/// config); the `Div` form keeps exact semantics for exotic geometries.
#[derive(Debug, Clone, Copy)]
enum BankSel {
    Pow2 { shift: u32, mask: u64 },
    Div { line: u64, banks: u64 },
}

impl BankSel {
    fn new(line: usize, banks: usize) -> Self {
        if line.is_power_of_two() && banks.is_power_of_two() {
            BankSel::Pow2 {
                shift: line.trailing_zeros(),
                mask: banks as u64 - 1,
            }
        } else {
            BankSel::Div {
                line: line as u64,
                banks: banks as u64,
            }
        }
    }

    /// Same value as `(addr / line) % banks`.
    #[inline]
    fn of(self, addr: u64) -> usize {
        match self {
            BankSel::Pow2 { shift, mask } => ((addr >> shift) & mask) as usize,
            BankSel::Div { line, banks } => ((addr / line) % banks) as usize,
        }
    }
}

/// Memory-controller selection — `(addr >> 12) % controllers`, reduced to a
/// mask when the controller count is a power of two.
#[derive(Debug, Clone, Copy)]
enum McSel {
    Pow2 { mask: u64 },
    Div { mcs: u64 },
}

impl McSel {
    fn new(mcs: usize) -> Self {
        if mcs.is_power_of_two() {
            McSel::Pow2 {
                mask: mcs as u64 - 1,
            }
        } else {
            McSel::Div { mcs: mcs as u64 }
        }
    }

    /// Same value as `(addr >> 12) % controllers`.
    #[inline]
    fn of(self, addr: u64) -> usize {
        match self {
            McSel::Pow2 { mask } => ((addr >> 12) & mask) as usize,
            McSel::Div { mcs } => ((addr >> 12) % mcs) as usize,
        }
    }
}

/// A set-associative LRU cache laid out for the batch inner loop: tag and
/// stamp interleaved per way (a 4-way L1 set is exactly one 64-byte cache
/// line) and the hit scan fused with victim selection into a single pass.
///
/// Decision-identical to [`crate::cache::Cache`]: same hit condition, same
/// victim (first invalid way, else the first way with the smallest stamp),
/// same counters — only the memory layout and the scan structure differ.
#[derive(Debug, Clone)]
struct LaneCache {
    sets_mask: usize,
    ways: usize,
    line_shift: u32,
    /// `(tag, stamp)` per way, `slots[set * ways + way]`; tag `u64::MAX`
    /// marks an invalid way.
    slots: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl LaneCache {
    fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways > 0, "ways must be non-zero");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LaneCache {
            sets_mask: sets - 1,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            slots: vec![(u64::MAX, 0); sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The set `addr` maps to.
    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & self.sets_mask
    }

    /// Accesses `addr` at time `now`; returns `true` on a hit, filling the
    /// LRU way on a miss — the exact replacement decision of
    /// [`crate::cache::Cache::access`] in one pass.
    #[inline]
    fn access(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = self.set_of(addr) * self.ways;
        let slots = &mut self.slots[base..base + self.ways];
        // Hit scan first, without early exit: the way-select compare
        // becomes conditional moves instead of one unpredictable branch
        // per way, leaving a single (usually well-predicted) hit/miss
        // branch. Tags are unique within a set, so "last match" equals
        // "first match".
        let mut hit = usize::MAX;
        for (w, &(tag, _)) in slots.iter().enumerate() {
            if tag == line {
                hit = w;
            }
        }
        if hit != usize::MAX {
            slots[hit].1 = now;
            self.hits += 1;
            return true;
        }
        // Miss path: first invalid way, else the first way with the
        // smallest stamp — the exact replacement decision of
        // [`crate::cache::Cache::access`].
        let mut invalid = usize::MAX;
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (w, &(tag, stamp)) in slots.iter().enumerate() {
            if tag == u64::MAX {
                if invalid == usize::MAX {
                    invalid = w;
                }
            } else if stamp < oldest {
                oldest = stamp;
                victim = w;
            }
        }
        self.misses += 1;
        let victim = if invalid != usize::MAX {
            invalid
        } else {
            victim
        };
        slots[victim] = (line, now);
        false
    }

    /// Invalidates every line and zeroes the stats.
    fn clear(&mut self) {
        self.slots.fill((u64::MAX, 0));
        self.hits = 0;
        self.misses = 0;
    }

    /// Resets the hit/miss counters, preserving contents.
    fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Hit rate over all accesses so far (0 when never accessed) — same
    /// definition as [`crate::cache::Cache::hit_rate`].
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The lane's L2: the prefilled image plus a log of the sets this lane
/// has written. Every access writes its set (a hit refreshes a stamp, a
/// miss fills a way), so [`L2Lane::restore`] rebuilds the template's
/// image by copying back only the logged sets — a few hundred per
/// evaluation, not the whole 1 MiB.
#[derive(Debug, Clone)]
struct L2Lane {
    cache: LaneCache,
    /// One bit per set: the set is already in `written`.
    logged: Vec<u64>,
    written: Vec<u32>,
}

impl L2Lane {
    fn new(template: &LaneCache) -> Self {
        L2Lane {
            cache: template.clone(),
            logged: vec![0; (template.sets_mask + 1).div_ceil(64)],
            written: Vec::new(),
        }
    }

    /// [`LaneCache::access`], logging the set it writes.
    #[inline]
    fn access(&mut self, addr: u64, now: u64) -> bool {
        let set = self.cache.set_of(addr);
        let bit = 1u64 << (set % 64);
        if self.logged[set / 64] & bit == 0 {
            self.logged[set / 64] |= bit;
            self.written.push(set as u32);
        }
        self.cache.access(addr, now)
    }

    /// Restores `template`, the image this lane started from, by copying
    /// back every set written since the last restore.
    fn restore(&mut self, template: &LaneCache) {
        let ways = template.ways;
        for &set in &self.written {
            let range = set as usize * ways..(set as usize + 1) * ways;
            self.cache.slots[range.clone()].copy_from_slice(&template.slots[range]);
        }
        self.written.clear();
        self.logged.fill(0);
        self.cache.hits = template.hits;
        self.cache.misses = template.misses;
    }
}

/// The per-task state touched on every issue, packed into one 64-byte
/// cache line per task: the RNG, the I-miss draw, the program counter and
/// the micro-op countdown all hit the same line.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct TaskHot {
    rng: XorShift64,
    /// Per-issue L1I miss draw for this task's core placement.
    imiss: Bernoulli,
    /// Absolute current position in the flat op table.
    op_pos: u32,
    /// Program bounds in the flat op table (`op_pos` wraps from `op_end`
    /// back to `op_start`).
    op_start: u32,
    op_end: u32,
    /// Core of the context this task is bound to.
    core: u32,
    /// Remaining micro-ops of the current burst op (0 = not started).
    micro: u16,
}

impl TaskHot {
    /// Issues one micro-op of an `n`-op burst (`Int`, `Mul`, `Fp`,
    /// `Crypto`); the burst is done when `micro` is back at 0.
    #[inline(always)]
    fn step_burst(&mut self, n: u16) {
        if self.micro == 0 {
            self.micro = n;
        }
        self.micro -= 1;
    }

    /// Moves to the next op; returns `true` when that wraps the program,
    /// completing an iteration.
    #[inline(always)]
    fn next_op(&mut self) -> bool {
        self.op_pos += 1;
        let wrapped = self.op_pos == self.op_end;
        if wrapped {
            self.op_pos = self.op_start;
        }
        wrapped
    }

    /// The I-miss stall of one issue: drawn before the op, as the scalar
    /// engine does.
    #[inline(always)]
    fn imiss_stall(&mut self, cfg: &MachineConfig) -> u64 {
        if self.imiss.sample(&mut self.rng) {
            cfg.lat_l2
        } else {
            0
        }
    }
}

/// Issues `op` if it is pipe-local — `Int`, `Mul` or `NiuRx`, which touch
/// only their own strand — and returns its latency. The strand moves on
/// to its next op once `micro` is 0. Returns `None`, changing nothing, for
/// an op that touches shared state.
#[inline(always)]
fn issue_local(th: &mut TaskHot, op: DecodedOp, cfg: &MachineConfig) -> Option<u64> {
    match op {
        DecodedOp::Int(n) => {
            th.step_burst(n);
            Some(1)
        }
        DecodedOp::Mul(n) => {
            th.step_burst(n);
            Some(cfg.lat_mul)
        }
        DecodedOp::NiuRx => Some(cfg.lat_niu_rx),
        _ => None,
    }
}

/// One pipe's arbitration state.
#[derive(Debug, Clone, Default)]
struct Pipe {
    /// The pipe's strands in task order: the scalar engine's rotation
    /// order.
    strands: Vec<usize>,
    /// Rotation position where the least-recently-served scan starts.
    rr: usize,
    /// While the pipe waits on a shared op: that grant's cycle, with `pos`
    /// the rotation position of its strand. Once the pipe has stopped at a
    /// window end: the first cycle at or past the end that the scalar loop
    /// visits for this pipe — the cycle after a grant at `end - 1`, else
    /// the pipe's next grant.
    at: u64,
    pos: usize,
}

/// Reusable per-lane state: one [`TaskHot`] record per task for the hot
/// fields, structure-of-arrays vectors for everything touched rarely (or
/// aggregated per core / pipe / queue / bank / controller), reset in place
/// between lanes instead of reallocated.
#[derive(Debug, Clone)]
struct Scratch {
    // Per task.
    tasks: Vec<TaskHot>,
    /// Cycle at which each strand becomes ready again. Kept outside
    /// [`TaskHot`] as a packed array: the arbitration of a pipe with
    /// several strands polls their wake-ups each cycle, and eight per
    /// cache line beats one.
    wake_at: Vec<u64>,
    iterations: Vec<u64>,
    transmits: Vec<u64>,
    /// `seq_cursors[task * n_regions + region]`.
    seq_cursors: Vec<u64>,
    // Per core.
    core_code: Vec<u64>,
    l1d: Vec<LaneCache>,
    lsu_free: Vec<u64>,
    fpu_free: Vec<u64>,
    crypto_free: Vec<u64>,
    // Per pipe.
    pipes: Vec<Pipe>,
    /// The pipes with at least one strand, ascending.
    active: Vec<usize>,
    // Per queue.
    q_count: Vec<usize>,
    q_lat: Vec<u64>,
    // Shared fabric.
    l2: L2Lane,
    bank_free: Vec<u64>,
    mc_free: Vec<u64>,
    // Measurement counters.
    issue_slots: u64,
    first_tx: Option<u64>,
    last_tx: Option<u64>,
    // Assignment validation.
    used: Vec<bool>,
}

/// A prepared batch evaluation of one workload on one machine.
///
/// Construction validates the workload, allocates region bases, decodes
/// every task program into one flat op table and computes the steady-state
/// L2 prefill image. [`BatchSimulator::run_one`] then evaluates a single
/// assignment reusing that shared state; results are bit-identical to
/// [`crate::Simulator`]. Each evaluation runs as the per-pipe event loop
/// the [module docs](self) describe. The simulator owns copies of its
/// machine and workload, and `run_one` carries nothing from one
/// assignment to the next, so one simulator can serve a model for its
/// whole life.
///
/// # Examples
///
/// ```
/// use optassign_sim::{BatchSimulator, MachineConfig, ProgramBuilder, Simulator, WorkloadSpec};
///
/// let m = MachineConfig::ultrasparc_t2();
/// let mut w = WorkloadSpec::new(1);
/// w.add_task("t", ProgramBuilder::new().int(10).transmit().build(), 2048);
///
/// let mut batch = BatchSimulator::new(&m, &w).unwrap();
/// let fast = batch.run_one(&[3], 1_000, 10_000).unwrap();
/// let slow = Simulator::new(&m, &w, &[3]).unwrap().run(1_000, 10_000);
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct BatchSimulator {
    cfg: MachineConfig,
    workload: WorkloadSpec,
    /// L2 image after steady-state prefill, stats already reset; each lane
    /// starts from it (see [`L2Lane::restore`]) instead of replaying the
    /// fill.
    l2_template: LaneCache,
    /// Strength-reduced L2-bank / memory-controller selection.
    bank_sel: BankSel,
    mc_sel: McSel,
    /// Flat decoded op table for all tasks (eight bytes per op).
    ops: Vec<DecodedOp>,
    /// Side table with the resolved details of every memory op.
    mem_ops: Vec<MemOp>,
    /// `(start, len)` into `ops` per task.
    task_ops: Vec<(usize, usize)>,
    /// Queue capacities (assignment-independent).
    q_cap: Vec<usize>,
    scratch: Scratch,
}

impl BatchSimulator {
    /// Prepares the shared state for a batch of evaluations.
    ///
    /// # Errors
    ///
    /// [`SimError::BadWorkload`] — inconsistent workload (see
    /// [`WorkloadSpec::validate`]).
    pub fn new(cfg: &MachineConfig, workload: &WorkloadSpec) -> Result<Self, SimError> {
        workload.validate()?;
        let topo = &cfg.topology;

        // Region bases: identical bump allocation to `Simulator::new`.
        let line = cfg.l2_line as u64;
        let mut next = 0x1000_0000u64;
        let mut region_bases = Vec::with_capacity(workload.regions().len());
        for r in workload.regions() {
            region_bases.push(next);
            let padded = r.bytes.div_ceil(line) * line + line;
            next += padded;
        }

        // Decode all programs into one flat table with region/queue lookups
        // pre-resolved, so the inner loop never touches the workload spec.
        let mut ops = Vec::new();
        let mut mem_ops = Vec::new();
        let mut task_ops = Vec::with_capacity(workload.tasks().len());
        for task in workload.tasks() {
            let start = ops.len();
            for &op in task.program.ops() {
                ops.push(match op {
                    Op::Int(n) => DecodedOp::Int(n),
                    Op::Mul(n) => DecodedOp::Mul(n),
                    Op::Fp(n) => DecodedOp::Fp(n),
                    Op::Crypto(n) => DecodedOp::Crypto(n),
                    Op::Load(r) | Op::Store(r) => {
                        let spec = &workload.regions()[r.0];
                        mem_ops.push(MemOp {
                            base: region_bases[r.0],
                            bytes: spec.bytes,
                            pattern: DecodedPattern::new(spec.pattern, spec.bytes),
                            region: r.0 as u32,
                            store: matches!(op, Op::Store(_)),
                        });
                        DecodedOp::Mem((mem_ops.len() - 1) as u32)
                    }
                    Op::QueuePush(q) => DecodedOp::QueuePush(q.0 as u32),
                    Op::QueuePop(q) => DecodedOp::QueuePop(q.0 as u32),
                    Op::NiuRx => DecodedOp::NiuRx,
                    Op::Transmit => DecodedOp::Transmit,
                });
            }
            task_ops.push((start, ops.len() - start));
        }

        // Steady-state L2 prefill: the fill sequence only depends on the
        // workload's regions, so it is computed once here and restored per
        // lane. This block mirrors `Simulator::run` exactly.
        let mut l2_template = LaneCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.l2_line);
        {
            let budget = (cfg.l2_bytes / cfg.l2_line) * 3 / 2;
            let mut inserted = 0usize;
            let mut round: u64 = 0;
            let mut any = true;
            while inserted < budget && any {
                any = false;
                for (ri, r) in workload.regions().iter().enumerate() {
                    let lines = r.bytes.div_ceil(line);
                    if round < lines {
                        l2_template.access(region_bases[ri] + round * line, round);
                        inserted += 1;
                        any = true;
                        if inserted >= budget {
                            break;
                        }
                    }
                }
                round += 1;
            }
            l2_template.reset_stats();
        }

        let n_tasks = workload.tasks().len();
        let n_regions = workload.regions().len();
        let n_queues = workload.queues().len();
        let scratch = Scratch {
            tasks: vec![
                TaskHot {
                    rng: XorShift64::new(0),
                    imiss: Bernoulli::Never,
                    op_pos: 0,
                    op_start: 0,
                    op_end: 0,
                    core: 0,
                    micro: 0,
                };
                n_tasks
            ],
            wake_at: vec![0; n_tasks],
            iterations: vec![0; n_tasks],
            transmits: vec![0; n_tasks],
            seq_cursors: vec![0; n_tasks * n_regions],
            core_code: vec![0; topo.cores],
            l1d: (0..topo.cores)
                .map(|_| LaneCache::new(cfg.l1d_bytes, cfg.l1d_ways, cfg.l1d_line))
                .collect(),
            lsu_free: vec![0; topo.cores],
            fpu_free: vec![0; topo.cores],
            crypto_free: vec![0; topo.cores],
            pipes: vec![Pipe::default(); topo.pipes()],
            active: Vec::with_capacity(topo.pipes()),
            q_count: vec![0; n_queues],
            q_lat: vec![0; n_queues],
            l2: L2Lane::new(&l2_template),
            bank_free: vec![0; cfg.l2_banks],
            mc_free: vec![0; cfg.mem_controllers],
            issue_slots: 0,
            first_tx: None,
            last_tx: None,
            used: vec![false; topo.contexts()],
        };

        Ok(BatchSimulator {
            cfg: cfg.clone(),
            workload: workload.clone(),
            l2_template,
            bank_sel: BankSel::new(cfg.l2_line, cfg.l2_banks),
            mc_sel: McSel::new(cfg.mem_controllers),
            ops,
            mem_ops,
            task_ops,
            q_cap: workload.queues().iter().map(|q| q.capacity).collect(),
            scratch,
        })
    }

    /// The workload this batch evaluates.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// Evaluates one assignment, reusing the shared batch state. Returns
    /// the same report, bit for bit, as
    /// `Simulator::new(cfg, workload, assignment)?.run(warmup, measure)`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAssignment`] — wrong length, out-of-range context, or
    /// two tasks mapped to the same context (identical messages to
    /// [`crate::Simulator::new`]).
    pub fn run_one(
        &mut self,
        assignment: &[usize],
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<SimReport, SimError> {
        let n_tasks = self.workload.tasks().len();
        let clock_hz = self.cfg.clock_hz;

        // ---- validation (same checks, same messages as Simulator::new) --
        let contexts = self.cfg.topology.contexts();
        if assignment.len() != n_tasks {
            return Err(SimError::BadAssignment(format!(
                "assignment has {} entries for {} tasks",
                assignment.len(),
                n_tasks
            )));
        }
        self.scratch.used.fill(false);
        for (t, &ctx) in assignment.iter().enumerate() {
            if ctx >= contexts {
                return Err(SimError::BadAssignment(format!(
                    "task {t} mapped to context {ctx}, machine has {contexts}"
                )));
            }
            if self.scratch.used[ctx] {
                return Err(SimError::BadAssignment(format!(
                    "two tasks mapped to context {ctx}"
                )));
            }
            self.scratch.used[ctx] = true;
        }

        self.reset_lane(assignment);

        // ---- main loop --------------------------------------------------
        // The scalar engine's single loop is split into a warm-up window
        // and a measurement window with the boundary reset in between, so
        // `MEASURING` is a compile-time constant inside each window.
        let total_end = warmup_cycles + measure_cycles;
        self.run_window::<false>(warmup_cycles, warmup_cycles);
        // Measurement-boundary reset: the scalar engine performs it on the
        // first cycle it visits at or past the warm-up, if that cycle is
        // before the end. Its idle jump can leap from the warm-up straight
        // to `total_end`, and then it never resets.
        let s = &mut self.scratch;
        let first_visit = s.active.iter().map(|&p| s.pipes[p].at).min();
        if warmup_cycles > 0 && first_visit.is_some_and(|at| at < total_end) {
            s.transmits.fill(0);
            s.iterations.fill(0);
            s.issue_slots = 0;
            s.first_tx = None;
            s.last_tx = None;
            for c in s.l1d.iter_mut() {
                c.reset_stats();
            }
            s.l2.cache.reset_stats();
        }
        self.run_window::<true>(total_end, warmup_cycles);

        let s = &self.scratch;
        Ok(SimReport {
            measured_cycles: measure_cycles,
            clock_hz,
            packets_transmitted: s.transmits.iter().sum(),
            per_task_transmits: s.transmits.clone(),
            per_task_iterations: s.iterations.clone(),
            l1d_hit_rates: s.l1d.iter().map(|cache| cache.hit_rate()).collect(),
            l2_hit_rate: s.l2.cache.hit_rate(),
            issue_slots_granted: s.issue_slots,
            first_transmit_cycle: s.first_tx,
            last_transmit_cycle: s.last_tx,
        })
    }

    /// Resets the scratch to the machine state at cycle 0 for `assignment`
    /// (already validated).
    fn reset_lane(&mut self, assignment: &[usize]) {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        let s = &mut self.scratch;

        // ---- per-task state ---------------------------------------------
        // Same placement-hash seeding as the scalar engine: identical
        // placements replay exactly, distinct placements sample distinct
        // stochastic streams.
        let mut placement_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &ctx in assignment {
            placement_hash ^= ctx as u64 + 1;
            placement_hash = placement_hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        for (t, &(ostart, olen)) in self.task_ops.iter().enumerate() {
            s.tasks[t] = TaskHot {
                rng: XorShift64::new(
                    self.workload.seed() ^ placement_hash ^ (t as u64).wrapping_mul(0x9E37_79B9),
                ),
                imiss: Bernoulli::Never,
                op_pos: ostart as u32,
                op_start: ostart as u32,
                op_end: (ostart + olen) as u32,
                core: topo.core_of(assignment[t]) as u32,
                micro: 0,
            };
        }
        s.wake_at.fill(0);
        s.iterations.fill(0);
        s.transmits.fill(0);
        s.seq_cursors.fill(0);

        // L1I contention: per-core code footprint -> per-strand I-miss
        // probability.
        s.core_code.fill(0);
        for (t, task) in self.workload.tasks().iter().enumerate() {
            s.core_code[s.tasks[t].core as usize] += task.code_bytes;
        }
        for th in s.tasks.iter_mut() {
            let total = s.core_code[th.core as usize] as f64;
            let capacity = cfg.l1i_bytes as f64;
            let overflow = ((total - capacity) / capacity).max(0.0);
            th.imiss =
                Bernoulli::new((cfg.imiss_base + cfg.imiss_slope * overflow).min(cfg.imiss_max));
        }

        // ---- pipes --------------------------------------------------------
        for pipe in s.pipes.iter_mut() {
            pipe.strands.clear();
            pipe.rr = 0;
            pipe.at = 0;
        }
        for (t, &ctx) in assignment.iter().enumerate() {
            s.pipes[topo.pipe_of(ctx)].strands.push(t);
        }
        s.active.clear();
        for (p, pipe) in s.pipes.iter().enumerate() {
            if !pipe.strands.is_empty() {
                s.active.push(p);
            }
        }

        // ---- queues -------------------------------------------------------
        s.q_count.fill(0);
        for (qi, q) in self.workload.queues().iter().enumerate() {
            let same_core = s.tasks[q.producer.0].core == s.tasks[q.consumer.0].core;
            s.q_lat[qi] = if same_core {
                cfg.queue_same_core_lat
            } else {
                cfg.queue_cross_core_lat
            };
        }

        // ---- memory hierarchy and counters ----------------------------------
        for c in s.l1d.iter_mut() {
            c.clear();
        }
        s.l2.restore(&self.l2_template);
        s.lsu_free.fill(0);
        s.fpu_free.fill(0);
        s.crypto_free.fill(0);
        s.bank_free.fill(0);
        s.mc_free.fill(0);
        s.issue_slots = 0;
        s.first_tx = None;
        s.last_tx = None;
    }

    /// Runs every grant before cycle `end`. Each pipe runs its pipe-local
    /// grants on its own ([`Self::advance`]); shared grants are served
    /// one at a time, earliest cycle first and, within a cycle, in
    /// ascending pipe order — the order of the scalar engine's loop.
    ///
    /// That is exact because a pipe's arbitration reads only its own
    /// strands' wake-ups, which only its own grants write; a pipe-local op
    /// touches no shared state, so it commutes with every grant on other
    /// pipes; and a cycle without a grant changes nothing.
    fn run_window<const MEASURING: bool>(&mut self, end: u64, warmup: u64) {
        for i in 0..self.scratch.active.len() {
            let p = self.scratch.active[i];
            self.advance::<MEASURING>(p, end);
        }
        loop {
            let s = &self.scratch;
            let mut next = None;
            let mut at = end;
            for &p in &s.active {
                if s.pipes[p].at < at {
                    at = s.pipes[p].at;
                    next = Some(p);
                }
            }
            let Some(p) = next else { return };
            self.serve::<MEASURING>(p, warmup);
            self.advance::<MEASURING>(p, end);
        }
    }

    /// Grants pipe `p`'s ops from cycle `at` on, each on the cycle the
    /// scalar engine grants it, until the next grant is a shared op (left
    /// pending in `at` and `pos`) or falls at or past `end`.
    #[inline]
    fn advance<const MEASURING: bool>(&mut self, p: usize, end: u64) {
        let cfg = &self.cfg;
        let ops = &self.ops[..];
        let s = &mut self.scratch;
        let pipe = &mut s.pipes[p];
        let mut c = pipe.at;
        let mut grants = 0u64;
        if let [t] = pipe.strands[..] {
            // Alone on its pipe, the strand's wake-up is the whole
            // arbitration: its burst runs as a tight loop over locals.
            let mut th = s.tasks[t].clone();
            let mut wake = s.wake_at[t];
            let mut laps = 0u64;
            while c < end {
                let g = c.max(wake);
                if g >= end {
                    c = g;
                    break;
                }
                let op = ops[th.op_pos as usize];
                let Some(lat) = issue_local(&mut th, op, cfg) else {
                    c = g;
                    pipe.pos = 0;
                    break;
                };
                wake = g + lat + th.imiss_stall(cfg);
                if th.micro == 0 && th.next_op() {
                    laps += 1;
                }
                grants += 1;
                c = g + 1;
            }
            s.tasks[t] = th;
            s.wake_at[t] = wake;
            s.iterations[t] += laps;
        } else {
            let len = pipe.strands.len();
            let mut rr = pipe.rr;
            while c < end {
                // Least-recently-served rotation — the scalar engine's
                // `(start + i) % len` walk with a branchy wrap. A failed
                // scan jumps to the pipe's next wake-up.
                let mut chosen = usize::MAX;
                let mut earliest = u64::MAX;
                let mut j = rr;
                for _ in 0..len {
                    let w = s.wake_at[pipe.strands[j]];
                    if w <= c {
                        chosen = j;
                        break;
                    }
                    earliest = earliest.min(w);
                    j += 1;
                    if j == len {
                        j = 0;
                    }
                }
                if chosen == usize::MAX {
                    c = earliest;
                    continue;
                }
                let t = pipe.strands[chosen];
                let th = &mut s.tasks[t];
                let op = ops[th.op_pos as usize];
                let Some(lat) = issue_local(th, op, cfg) else {
                    pipe.pos = chosen;
                    break;
                };
                s.wake_at[t] = c + lat + th.imiss_stall(cfg);
                if th.micro == 0 && th.next_op() {
                    s.iterations[t] += 1;
                }
                rr = if chosen + 1 == len { 0 } else { chosen + 1 };
                grants += 1;
                c += 1;
            }
            pipe.rr = rr;
        }
        pipe.at = c;
        if MEASURING {
            s.issue_slots += grants;
        }
    }

    /// Grants pipe `p`'s pending shared op on its cycle.
    fn serve<const MEASURING: bool>(&mut self, p: usize, warmup: u64) {
        let cfg = &self.cfg;
        let s = &mut self.scratch;
        let pipe = &mut s.pipes[p];
        let (now, pos) = (pipe.at, pipe.pos);
        let t = pipe.strands[pos];
        pipe.rr = if pos + 1 == pipe.strands.len() {
            0
        } else {
            pos + 1
        };
        pipe.at = now + 1;
        if MEASURING {
            s.issue_slots += 1;
        }

        let th = &mut s.tasks[t];
        let c = th.core as usize;
        let op = self.ops[th.op_pos as usize];
        let imiss_extra = th.imiss_stall(cfg);
        let mut retry = false;
        let wake = match op {
            DecodedOp::Fp(n) => {
                th.step_burst(n);
                let issue = now.max(s.fpu_free[c]);
                s.fpu_free[c] = issue + 1;
                issue + cfg.lat_fp
            }
            DecodedOp::Crypto(n) => {
                th.step_burst(n);
                let issue = now.max(s.crypto_free[c]);
                s.crypto_free[c] = issue + 1;
                issue + cfg.lat_crypto
            }
            DecodedOp::Mem(mi) => {
                let m = &self.mem_ops[mi as usize];
                // Inline `gen_addr` over the decoded pattern — the RNG
                // consumption matches the scalar engine draw for draw.
                let addr = match m.pattern {
                    DecodedPattern::Uniform => m.base + (th.rng.next_below(m.bytes) & !7),
                    DecodedPattern::Sequential { stride } => {
                        let n_regions = self.workload.regions().len();
                        let cur = &mut s.seq_cursors[t * n_regions + m.region as usize];
                        let offset = *cur;
                        // `(offset + stride) % bytes` — the cursor stays
                        // below `bytes`, so when the stride does too (the
                        // common case) the modulo is a single conditional
                        // subtraction.
                        let mut next = offset + stride;
                        if stride < m.bytes {
                            if next >= m.bytes {
                                next -= m.bytes;
                            }
                        } else {
                            next %= m.bytes;
                        }
                        *cur = next;
                        m.base + offset
                    }
                    DecodedPattern::Hot { draw, hot_span } => {
                        let span = if draw.sample(&mut th.rng) {
                            hot_span
                        } else {
                            m.bytes
                        };
                        m.base + (th.rng.next_below(span) & !7)
                    }
                };
                let issue = now.max(s.lsu_free[c]);
                s.lsu_free[c] = issue + 1;
                let done = if s.l1d[c].access(addr, now) {
                    issue + cfg.lat_l1
                } else {
                    let bank = self.bank_sel.of(addr);
                    let t_bank = (issue + cfg.lat_l1).max(s.bank_free[bank]);
                    s.bank_free[bank] = t_bank + 1;
                    if s.l2.access(addr, now) {
                        t_bank + cfg.lat_l2
                    } else {
                        let mc = self.mc_sel.of(addr);
                        let t_mc = (t_bank + cfg.lat_l2).max(s.mc_free[mc]);
                        s.mc_free[mc] = t_mc + cfg.mem_issue_gap;
                        t_mc + cfg.lat_mem
                    }
                };
                if m.store {
                    // Store buffer hides the latency from the strand;
                    // bandwidth was still charged above.
                    issue + 1
                } else {
                    done
                }
            }
            DecodedOp::QueuePush(q) => {
                let q = q as usize;
                if s.q_count[q] >= self.q_cap[q] {
                    retry = true;
                    now + cfg.queue_retry
                } else {
                    s.q_count[q] += 1;
                    now + s.q_lat[q]
                }
            }
            DecodedOp::QueuePop(q) => {
                let q = q as usize;
                if s.q_count[q] == 0 {
                    retry = true;
                    now + cfg.queue_retry
                } else {
                    s.q_count[q] -= 1;
                    now + s.q_lat[q]
                }
            }
            DecodedOp::Transmit => {
                s.transmits[t] += 1;
                if MEASURING {
                    let rel = now - warmup.min(now);
                    if s.first_tx.is_none() {
                        s.first_tx = Some(rel);
                    }
                    s.last_tx = Some(rel);
                }
                now + cfg.lat_niu_tx
            }
            DecodedOp::Int(_) | DecodedOp::Mul(_) | DecodedOp::NiuRx => {
                unreachable!("`advance` issues pipe-local ops itself")
            }
        };
        s.wake_at[t] = wake + imiss_extra;
        // A burst moves on with its last micro-op, a queue op only once
        // it succeeds.
        if !retry && th.micro == 0 && th.next_op() {
            s.iterations[t] += 1;
        }
    }

    /// Evaluates a slice of assignments in order.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first [`SimError::BadAssignment`] — the
    /// same error a sequential scalar loop would hit first.
    pub fn run_batch<A: AsRef<[usize]>>(
        &mut self,
        assignments: &[A],
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<Vec<SimReport>, SimError> {
        let mut out = Vec::with_capacity(assignments.len());
        for a in assignments {
            out.push(self.run_one(a.as_ref(), warmup_cycles, measure_cycles)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::program::ProgramBuilder;
    use crate::topology::Topology;

    fn machine() -> MachineConfig {
        MachineConfig::ultrasparc_t2()
    }

    /// A mixed workload exercising every op kind and every access pattern.
    fn mixed_workload(seed: u64) -> WorkloadSpec {
        let mut w = WorkloadSpec::new(seed);
        let uni = w.add_region("uniform", 96 * 1024, AccessPattern::Uniform);
        let seq = w.add_region(
            "stream",
            48 * 1024,
            AccessPattern::Sequential { stride: 64 },
        );
        let hot = w.add_region(
            "hot",
            256 * 1024,
            AccessPattern::Hot {
                hot_bytes: 4 * 1024,
                hot_prob: 0.9,
            },
        );
        let rx = w.add_task("rx", ProgramBuilder::new().build(), 4096);
        let work = w.add_task("work", ProgramBuilder::new().build(), 8192);
        let tx = w.add_task("tx", ProgramBuilder::new().build(), 4096);
        let q1 = w.add_queue(rx, work, 16);
        let q2 = w.add_queue(work, tx, 16);
        w.set_program(
            rx,
            ProgramBuilder::new()
                .niu_rx()
                .int(6)
                .loads(seq, 2)
                .push(q1)
                .build(),
        );
        w.set_program(
            work,
            ProgramBuilder::new()
                .pop(q1)
                .int(4)
                .loads(uni, 3)
                .mul(3)
                .fp(2)
                .store(hot)
                .push(q2)
                .build(),
        );
        w.set_program(
            tx,
            ProgramBuilder::new()
                .pop(q2)
                .crypto(2)
                .loads(hot, 2)
                .transmit()
                .build(),
        );
        w
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let m = machine();
        let w = mixed_workload(11);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let assignments: [&[usize]; 5] = [
            &[0, 1, 2],   // one pipe
            &[0, 4, 8],   // spread over pipes/cores
            &[0, 8, 16],  // three cores
            &[63, 31, 7], // scattered high contexts
            &[5, 6, 4],   // same pipe, reordered
        ];
        for a in assignments {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(2_000, 20_000);
            let fast = batch.run_one(a, 2_000, 20_000).unwrap();
            assert_eq!(fast, scalar, "assignment {a:?}");
        }
    }

    #[test]
    fn lane_reuse_does_not_leak_state() {
        // Running the same assignment first, repeatedly, and after other
        // lanes must give identical reports: scratch reset is complete.
        let m = machine();
        let w = mixed_workload(23);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let first = batch.run_one(&[0, 1, 2], 1_000, 8_000).unwrap();
        for other in [&[9usize, 17, 33][..], &[2, 1, 0], &[40, 41, 42]] {
            batch.run_one(other, 1_000, 8_000).unwrap();
        }
        let again = batch.run_one(&[0, 1, 2], 1_000, 8_000).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn zero_warmup_and_tiny_windows_match() {
        let m = machine();
        let w = mixed_workload(3);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for (warm, meas) in [(0, 5_000), (0, 1), (100, 100), (7, 9)] {
            let scalar = Simulator::new(&m, &w, &[0, 8, 16]).unwrap().run(warm, meas);
            let fast = batch.run_one(&[0, 8, 16], warm, meas).unwrap();
            assert_eq!(fast, scalar, "windows ({warm}, {meas})");
        }
    }

    #[test]
    fn small_topology_matches() {
        let mut m = machine();
        m.topology = Topology::new(2, 2, 2);
        let w = mixed_workload(5);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for a in [&[0usize, 1, 2][..], &[7, 3, 5], &[0, 4, 6]] {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(1_000, 10_000);
            let fast = batch.run_one(a, 1_000, 10_000).unwrap();
            assert_eq!(fast, scalar, "assignment {a:?}");
        }
    }

    #[test]
    fn error_messages_match_scalar() {
        let m = machine();
        let w = mixed_workload(1);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let cases: [&[usize]; 3] = [&[0], &[0, 1, 64], &[3, 3, 4]];
        for a in cases {
            let scalar = Simulator::new(&m, &w, a).err().unwrap();
            let fast = batch.run_one(a, 1_000, 1_000).err().unwrap();
            assert_eq!(format!("{fast}"), format!("{scalar}"), "assignment {a:?}");
        }
    }

    #[test]
    fn run_batch_orders_and_propagates_errors() {
        let m = machine();
        let w = mixed_workload(9);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let good: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![0, 8, 16]];
        let reports = batch.run_batch(&good, 1_000, 5_000).unwrap();
        assert_eq!(reports.len(), 2);
        for (a, r) in good.iter().zip(&reports) {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(1_000, 5_000);
            assert_eq!(*r, scalar);
        }
        let bad: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![0, 0, 1]];
        assert!(batch.run_batch(&bad, 1_000, 5_000).is_err());
    }
}
