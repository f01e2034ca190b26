//! Batched evaluation of many assignments over one workload.
//!
//! [`BatchSimulator`] prepares everything that does **not** depend on the
//! assignment exactly once — workload validation, region base addresses, a
//! flat decoded op table, and the steady-state L2 prefill image — and then
//! evaluates assignments one lane at a time against that shared state. Lane
//! state lives in structure-of-arrays scratch buffers that are reused (not
//! reallocated) across lanes, so the inner loop stays cache-resident and the
//! per-assignment setup cost of [`crate::Simulator`] is amortized over the
//! whole batch.
//!
//! The contract is strict bit-identity: for any assignment, warm-up and
//! measurement window, [`BatchSimulator::run_one`] returns exactly the
//! [`SimReport`] that `Simulator::new(..)?.run(..)` would, including error
//! strings for invalid assignments. The engine replays the scalar
//! implementation's arithmetic and RNG draw order precisely; where the
//! arithmetic is restructured (integer Bernoulli thresholds, decoded
//! access patterns), the transformation is exact, not approximate.

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

    /// Accesses `addr` at time `now`; returns `true` on a hit, filling the
    /// LRU way on a miss — the exact replacement decision of
    /// [`crate::cache::Cache::access`] in one pass.
    #[inline]
    fn access(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.sets_mask;
        let base = set * self.ways;
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

    /// Copies the full state from a same-geometry template.
    fn copy_state_from(&mut self, src: &LaneCache) {
        debug_assert_eq!(self.sets_mask, src.sets_mask);
        debug_assert_eq!(self.ways, src.ways);
        debug_assert_eq!(self.line_shift, src.line_shift);
        self.slots.copy_from_slice(&src.slots);
        self.hits = src.hits;
        self.misses = src.misses;
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

/// The per-task state touched on every issue, packed into one 64-byte
/// cache line per task: the arbitration wake check, the RNG, the program
/// counter and the micro-op countdown all hit the same line, and the inner
/// loop keeps a single base pointer live instead of one per field.
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

/// Reusable per-lane state: one [`TaskHot`] record per task for the hot
/// fields, structure-of-arrays vectors for everything touched rarely (or
/// aggregated per core / pipe / queue / bank / controller), reset in place
/// between lanes instead of reallocated.
#[derive(Debug, Clone)]
struct Scratch {
    // Per task.
    tasks: Vec<TaskHot>,
    /// Cycle at which each strand becomes ready again. Kept outside
    /// [`TaskHot`] as a packed array: the arbitration loop polls every
    /// task's wake-up each cycle, and eight per cache line beats one.
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
    pipe_tasks: Vec<Vec<usize>>,
    /// Visit order for the arbitration loop: `(pipe, solo)` per active
    /// pipe in ascending pipe order, where `solo` is the pipe's only task
    /// when it has exactly one (arbitration degenerates to a wake check)
    /// or `usize::MAX` for the general scan.
    visits: Vec<(usize, usize)>,
    pipe_rr: Vec<usize>,
    /// Earliest cycle at which pipe `p` might have a ready strand — a
    /// conservative lower bound used to skip the arbitration scan for
    /// pipes that are certainly all-blocked. Never affects outcomes.
    pipe_next: Vec<u64>,
    // Per queue.
    q_count: Vec<usize>,
    q_lat: Vec<u64>,
    // Shared fabric.
    l2: LaneCache,
    bank_free: Vec<u64>,
    mc_free: Vec<u64>,
    // Assignment validation.
    used: Vec<bool>,
}

/// A prepared batch evaluation of one workload on one machine.
///
/// Construction validates the workload, allocates region bases, decodes
/// every task program into one flat op table and computes the steady-state
/// L2 prefill image. [`BatchSimulator::run_one`] then evaluates a single
/// assignment reusing that shared state; results are bit-identical to
/// [`crate::Simulator`].
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
pub struct BatchSimulator<'a> {
    cfg: &'a MachineConfig,
    workload: &'a WorkloadSpec,
    /// L2 image after steady-state prefill, stats already reset; restored
    /// into scratch with a memcpy per lane instead of replaying the fill.
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

impl<'a> BatchSimulator<'a> {
    /// Prepares the shared state for a batch of evaluations.
    ///
    /// # Errors
    ///
    /// [`SimError::BadWorkload`] — inconsistent workload (see
    /// [`WorkloadSpec::validate`]).
    pub fn new(cfg: &'a MachineConfig, workload: &'a WorkloadSpec) -> Result<Self, SimError> {
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
            pipe_tasks: vec![Vec::new(); topo.pipes()],
            visits: Vec::with_capacity(topo.pipes()),
            pipe_rr: vec![0; topo.pipes()],
            pipe_next: vec![0; topo.pipes()],
            q_count: vec![0; n_queues],
            q_lat: vec![0; n_queues],
            l2: l2_template.clone(),
            bank_free: vec![0; cfg.l2_banks],
            mc_free: vec![0; cfg.mem_controllers],
            used: vec![false; topo.contexts()],
        };

        Ok(BatchSimulator {
            cfg,
            workload,
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
        self.workload
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
        let cfg = self.cfg;
        let topo = &cfg.topology;
        let n_tasks = self.workload.tasks().len();
        let n_regions = self.workload.regions().len();
        let bank_sel = self.bank_sel;
        let mc_sel = self.mc_sel;

        // ---- validation (same checks, same messages as Simulator::new) --
        let contexts = topo.contexts();
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

        // Split-borrow the scratch so lane state and the shared tables can
        // be used together in the loop below.
        let Scratch {
            tasks,
            wake_at,
            iterations,
            transmits,
            seq_cursors,
            core_code,
            l1d,
            lsu_free,
            fpu_free,
            crypto_free,
            pipe_tasks,
            visits,
            pipe_rr,
            pipe_next,
            q_count,
            q_lat,
            l2,
            bank_free,
            mc_free,
            used: _,
        } = &mut self.scratch;
        let ops = &self.ops;

        // ---- per-task state (lane reset) --------------------------------
        // Same placement-hash seeding as the scalar engine: identical
        // placements replay exactly, distinct placements sample distinct
        // stochastic streams.
        let mut placement_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &ctx in assignment {
            placement_hash ^= ctx as u64 + 1;
            placement_hash = placement_hash.wrapping_mul(0x0000_0100_0000_01B3);
        }

        for t in 0..n_tasks {
            let (ostart, olen) = self.task_ops[t];
            tasks[t] = TaskHot {
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
            wake_at[t] = 0;
            iterations[t] = 0;
            transmits[t] = 0;
        }
        seq_cursors.fill(0);

        // L1I contention: per-core code footprint -> per-strand I-miss
        // probability.
        core_code.fill(0);
        for (t, task) in self.workload.tasks().iter().enumerate() {
            core_code[tasks[t].core as usize] += task.code_bytes;
        }
        for t in 0..n_tasks {
            let total = core_code[tasks[t].core as usize] as f64;
            let capacity = cfg.l1i_bytes as f64;
            let overflow = ((total - capacity) / capacity).max(0.0);
            tasks[t].imiss =
                Bernoulli::new((cfg.imiss_base + cfg.imiss_slope * overflow).min(cfg.imiss_max));
        }

        // ---- pipes ------------------------------------------------------
        for list in pipe_tasks.iter_mut() {
            list.clear();
        }
        for (t, &ctx) in assignment.iter().enumerate() {
            pipe_tasks[topo.pipe_of(ctx)].push(t);
        }
        visits.clear();
        for (p, list) in pipe_tasks.iter().enumerate() {
            match list.len() {
                0 => {}
                1 => visits.push((p, list[0])),
                _ => visits.push((p, usize::MAX)),
            }
        }
        pipe_rr.fill(0);
        pipe_next.fill(0);

        // ---- queues -----------------------------------------------------
        q_count.fill(0);
        for (qi, q) in self.workload.queues().iter().enumerate() {
            let same_core = tasks[q.producer.0].core == tasks[q.consumer.0].core;
            q_lat[qi] = if same_core {
                cfg.queue_same_core_lat
            } else {
                cfg.queue_cross_core_lat
            };
        }

        // ---- memory hierarchy -------------------------------------------
        for c in l1d.iter_mut() {
            c.clear();
        }
        l2.copy_state_from(&self.l2_template);
        lsu_free.fill(0);
        fpu_free.fill(0);
        crypto_free.fill(0);
        bank_free.fill(0);
        mc_free.fill(0);

        // ---- main loop (exact port of Simulator::run) -------------------
        // The scalar engine's single loop is split into a warm-up window
        // and a measurement window with the boundary reset in between, so
        // the `measuring` flag becomes a compile-time constant inside each
        // window. `issue_op!` / `run_window!` stamp out the shared body.
        let total_end = warmup_cycles + measure_cycles;
        let mut now: u64 = 0;
        let mut issue_slots: u64 = 0;
        let mut first_tx: Option<u64> = None;
        let mut last_tx: Option<u64> = None;

        macro_rules! issue_op {
            ($t:expr, $measuring:expr) => {{
                let t = $t;
                let th = &mut tasks[t];
                let c = th.core as usize;
                let op = ops[th.op_pos as usize];

                // Probabilistic L1I miss, drawn before the op — same RNG
                // draw order as the scalar engine.
                let imiss_extra = if th.imiss.sample(&mut th.rng) {
                    cfg.lat_l2
                } else {
                    0
                };

                let mut advance = true;
                let wake = match op {
                    DecodedOp::Int(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        now + 1
                    }
                    DecodedOp::Mul(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        now + cfg.lat_mul
                    }
                    DecodedOp::Fp(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        let issue = now.max(fpu_free[c]);
                        fpu_free[c] = issue + 1;
                        issue + cfg.lat_fp
                    }
                    DecodedOp::Crypto(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        let issue = now.max(crypto_free[c]);
                        crypto_free[c] = issue + 1;
                        issue + cfg.lat_crypto
                    }
                    DecodedOp::Mem(mi) => {
                        let m = &self.mem_ops[mi as usize];
                        // Inline `gen_addr` over the decoded pattern — the
                        // RNG consumption matches the scalar engine draw
                        // for draw.
                        let addr = match m.pattern {
                            DecodedPattern::Uniform => m.base + (th.rng.next_below(m.bytes) & !7),
                            DecodedPattern::Sequential { stride } => {
                                let cur = &mut seq_cursors[t * n_regions + m.region as usize];
                                let offset = *cur;
                                // `(offset + stride) % bytes` — the cursor
                                // stays below `bytes`, so when the stride
                                // does too (the common case) the modulo is
                                // a single conditional subtraction.
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
                        let issue = now.max(lsu_free[c]);
                        lsu_free[c] = issue + 1;
                        let done = if l1d[c].access(addr, now) {
                            issue + cfg.lat_l1
                        } else {
                            let bank = bank_sel.of(addr);
                            let t_bank = (issue + cfg.lat_l1).max(bank_free[bank]);
                            bank_free[bank] = t_bank + 1;
                            if l2.access(addr, now) {
                                t_bank + cfg.lat_l2
                            } else {
                                let mc = mc_sel.of(addr);
                                let t_mc = (t_bank + cfg.lat_l2).max(mc_free[mc]);
                                mc_free[mc] = t_mc + cfg.mem_issue_gap;
                                t_mc + cfg.lat_mem
                            }
                        };
                        if m.store {
                            // Store buffer hides the latency from the
                            // strand; bandwidth was still charged above.
                            issue + 1
                        } else {
                            done
                        }
                    }
                    DecodedOp::QueuePush(q) => {
                        let q = q as usize;
                        if q_count[q] >= self.q_cap[q] {
                            advance = false;
                            now + cfg.queue_retry
                        } else {
                            q_count[q] += 1;
                            now + q_lat[q]
                        }
                    }
                    DecodedOp::QueuePop(q) => {
                        let q = q as usize;
                        if q_count[q] == 0 {
                            advance = false;
                            now + cfg.queue_retry
                        } else {
                            q_count[q] -= 1;
                            now + q_lat[q]
                        }
                    }
                    DecodedOp::NiuRx => now + cfg.lat_niu_rx,
                    DecodedOp::Transmit => {
                        transmits[t] += 1;
                        if $measuring {
                            let rel = now - warmup_cycles.min(now);
                            if first_tx.is_none() {
                                first_tx = Some(rel);
                            }
                            last_tx = Some(rel);
                        }
                        now + cfg.lat_niu_tx
                    }
                };
                wake_at[t] = wake + imiss_extra;
                if advance {
                    th.op_pos += 1;
                    if th.op_pos == th.op_end {
                        th.op_pos = th.op_start;
                        iterations[t] += 1;
                    }
                }
            }};
        }

        macro_rules! run_window {
            ($end:expr, $measuring:expr) => {
                while now < $end {
                    let mut granted = 0usize;
                    // Visit pipes in two steps: a branchless pass computes
                    // a bitmask of the pipes that might issue this cycle
                    // (solo wake check, or the conservative all-blocked
                    // bound for shared pipes), then only the set bits are
                    // walked. At typical issue densities roughly half the
                    // pipes are blocked each cycle, and folding those
                    // unpredictable per-pipe branches into setcc arithmetic
                    // is markedly cheaper than mispredicting them.
                    for chunk in visits.chunks(32) {
                        let mut due: u32 = 0;
                        for (i, &(p, solo)) in chunk.iter().enumerate() {
                            let ready = if solo != usize::MAX {
                                wake_at[solo] <= now
                            } else {
                                pipe_next[p] <= now
                            };
                            due |= u32::from(ready) << i;
                        }
                        while due != 0 {
                            let i = due.trailing_zeros() as usize;
                            due &= due - 1;
                            let (p, solo) = chunk[i];
                            let t = if solo != usize::MAX {
                                // Single-strand pipe: the wake check above
                                // was the whole arbitration; the round-robin
                                // pointer and blocked-pipe bound never
                                // change outcomes.
                                solo
                            } else {
                                let list = &pipe_tasks[p];
                                let len = list.len();
                                let start = pipe_rr[p];
                                // Least-recently-served rotation — same
                                // order as the scalar engine's
                                // `(start + i) % len` walk, expressed with
                                // a branchy wrap to avoid the integer
                                // division.
                                let mut chosen = None;
                                let mut earliest = u64::MAX;
                                let mut j = start;
                                for _ in 0..len {
                                    let t = list[j];
                                    let w = wake_at[t];
                                    if w <= now {
                                        chosen = Some((j, t));
                                        break;
                                    }
                                    earliest = earliest.min(w);
                                    j += 1;
                                    if j == len {
                                        j = 0;
                                    }
                                }
                                let Some((pos, t)) = chosen else {
                                    // Full scan failed: `earliest` is the
                                    // true next wake-up of this pipe; skip
                                    // it until then.
                                    pipe_next[p] = earliest;
                                    continue;
                                };
                                // A grant invalidates the bound (other
                                // strands may already be ready); `now`
                                // keeps the skip disabled until the next
                                // failed scan tightens it again.
                                pipe_next[p] = now;
                                pipe_rr[p] = if pos + 1 == len { 0 } else { pos + 1 };
                                t
                            };
                            granted += 1;
                            if $measuring {
                                issue_slots += 1;
                            }
                            issue_op!(t, $measuring);
                        }
                    }

                    if granted == 0 {
                        // Jump to the next wake-up instead of spinning.
                        let next = wake_at
                            .iter()
                            .copied()
                            .filter(|&w| w > now)
                            .min()
                            .unwrap_or(now + 1);
                        now = next.min(total_end).max(now + 1);
                    } else {
                        now += 1;
                    }
                }
            };
        }

        run_window!(warmup_cycles, false);
        // Measurement-boundary reset: the scalar engine performs it on the
        // first iteration with `now >= warmup_cycles`, i.e. exactly when a
        // warm-up actually ran and the loop continues past it (an idle jump
        // can leap straight to `total_end`, in which case the scalar loop
        // exits without ever resetting).
        if warmup_cycles > 0 && now < total_end {
            transmits.fill(0);
            iterations.fill(0);
            issue_slots = 0;
            first_tx = None;
            last_tx = None;
            for c in l1d.iter_mut() {
                c.reset_stats();
            }
            l2.reset_stats();
        }
        run_window!(total_end, true);

        Ok(SimReport {
            measured_cycles: measure_cycles,
            clock_hz: cfg.clock_hz,
            packets_transmitted: transmits.iter().sum(),
            per_task_transmits: transmits.clone(),
            per_task_iterations: iterations.clone(),
            l1d_hit_rates: l1d.iter().map(|cache| cache.hit_rate()).collect(),
            l2_hit_rate: l2.hit_rate(),
            issue_slots_granted: issue_slots,
            first_transmit_cycle: first_tx,
            last_transmit_cycle: last_tx,
        })
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
