//! Task programs, data regions, software queues, and workload specs.
//!
//! A task's behaviour is a [`StageProgram`]: a loop body of abstract
//! operations executed once per packet (or per iteration for non-packet
//! work). Programs reference **data regions** (lookup tables, automata, hash
//! tables, packet buffers) by [`RegionId`] and **software queues**
//! (Netra DPS-style memory queues between pipeline stages) by [`QueueId`].
//! Both live in the enclosing [`WorkloadSpec`].

use crate::SimError;

/// Identifies a task within a [`WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Identifies a data region within a [`WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Identifies a software queue within a [`WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub usize);

/// One abstract operation of a task program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` single-cycle integer/branch operations; each consumes one issue
    /// slot of the task's hardware pipeline.
    Int(u16),
    /// `n` long-latency integer multiplies; each consumes one issue slot
    /// and then blocks the strand for the multiply latency.
    Mul(u16),
    /// `n` floating-point operations through the per-core FPU.
    Fp(u16),
    /// `n` operations through the per-core cryptographic unit.
    Crypto(u16),
    /// One load from the given region (address per the region's pattern).
    Load(RegionId),
    /// One store to the given region.
    Store(RegionId),
    /// Push a descriptor to a software queue; blocks (retry loop) if full.
    QueuePush(QueueId),
    /// Pop a descriptor from a software queue; blocks (retry loop) if empty.
    QueuePop(QueueId),
    /// Fetch the next received packet descriptor from the NIU DMA channel.
    /// The traffic generator saturates the link, so this never starves.
    NiuRx,
    /// Hand the packet to the NIU for transmission. Each `Transmit`
    /// increments the packets-per-second counter.
    Transmit,
}

/// How addresses are generated for accesses to a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Uniformly random over the region (hash-table / lookup-table style).
    Uniform,
    /// Sequential with the given stride in bytes (streaming over payload).
    Sequential {
        /// Stride between consecutive accesses, in bytes.
        stride: u32,
    },
    /// With probability `hot_prob`, access the first `hot_bytes` of the
    /// region; otherwise uniform over the whole region. Models skewed
    /// lookup keys.
    Hot {
        /// Size of the hot prefix in bytes.
        hot_bytes: u64,
        /// Probability of hitting the hot prefix.
        hot_prob: f64,
    },
}

/// A data region (lookup table, automaton, hash table, packet buffer…).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// Region size in bytes.
    pub bytes: u64,
    /// Address-generation pattern for accesses.
    pub pattern: AccessPattern,
}

/// A single-producer single-consumer software queue between two tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSpec {
    /// Task allowed to push.
    pub producer: TaskId,
    /// Task allowed to pop.
    pub consumer: TaskId,
    /// Capacity in descriptors.
    pub capacity: usize,
}

/// The per-packet loop body of one task.
///
/// Programs are built with [`ProgramBuilder`]; an empty program is invalid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageProgram {
    ops: Vec<Op>,
}

impl StageProgram {
    /// The operations of the loop body.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations (coalesced; an `Int(8)` counts once).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Builder for [`StageProgram`].
///
/// # Examples
///
/// ```
/// use optassign_sim::program::{ProgramBuilder, RegionId, QueueId};
///
/// let table = RegionId(0);
/// let inq = QueueId(0);
/// let prog = ProgramBuilder::new()
///     .pop(inq)
///     .int(20)
///     .load(table)
///     .int(8)
///     .transmit()
///     .build();
/// assert_eq!(prog.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends `n` single-cycle integer operations (no-op when `n == 0`).
    pub fn int(mut self, n: u16) -> Self {
        if n > 0 {
            self.ops.push(Op::Int(n));
        }
        self
    }

    /// Appends `n` long-latency integer multiplies.
    // Named for the op it appends, like `int`/`fp`/`crypto` — not an
    // arithmetic operator on the builder.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(mut self, n: u16) -> Self {
        if n > 0 {
            self.ops.push(Op::Mul(n));
        }
        self
    }

    /// Appends `n` floating-point operations.
    pub fn fp(mut self, n: u16) -> Self {
        if n > 0 {
            self.ops.push(Op::Fp(n));
        }
        self
    }

    /// Appends `n` cryptographic-unit operations.
    pub fn crypto(mut self, n: u16) -> Self {
        if n > 0 {
            self.ops.push(Op::Crypto(n));
        }
        self
    }

    /// Appends one load from `region`.
    pub fn load(mut self, region: RegionId) -> Self {
        self.ops.push(Op::Load(region));
        self
    }

    /// Appends `n` loads from `region`.
    pub fn loads(mut self, region: RegionId, n: usize) -> Self {
        self.ops.extend(std::iter::repeat_n(Op::Load(region), n));
        self
    }

    /// Appends one store to `region`.
    pub fn store(mut self, region: RegionId) -> Self {
        self.ops.push(Op::Store(region));
        self
    }

    /// Appends a queue push.
    pub fn push(mut self, queue: QueueId) -> Self {
        self.ops.push(Op::QueuePush(queue));
        self
    }

    /// Appends a queue pop.
    pub fn pop(mut self, queue: QueueId) -> Self {
        self.ops.push(Op::QueuePop(queue));
        self
    }

    /// Appends an NIU receive.
    pub fn niu_rx(mut self) -> Self {
        self.ops.push(Op::NiuRx);
        self
    }

    /// Appends an NIU transmit (the PPS counting point).
    pub fn transmit(mut self) -> Self {
        self.ops.push(Op::Transmit);
        self
    }

    /// Appends every op of `body`, in order.
    pub fn append(mut self, body: ProgramBuilder) -> Self {
        self.ops.extend(body.ops);
        self
    }

    /// Finalizes the program.
    pub fn build(self) -> StageProgram {
        StageProgram { ops: self.ops }
    }
}

/// One task of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Human-readable name (e.g. `"ipfwd-l1.3.P"`).
    pub name: String,
    /// Per-packet loop body.
    pub program: StageProgram,
    /// Code footprint in bytes, used by the L1I contention model.
    pub code_bytes: u64,
}

/// A complete workload: tasks, their data regions, and their queues.
///
/// # Examples
///
/// ```
/// use optassign_sim::program::{AccessPattern, ProgramBuilder, WorkloadSpec};
///
/// let mut w = WorkloadSpec::new(7);
/// let table = w.add_region("lookup", 4096, AccessPattern::Uniform);
/// // Tasks first, then the queues between them, then the programs that
/// // name the queues.
/// let rx = w.add_task("r", ProgramBuilder::new().build(), 2048);
/// let tx = w.add_task("t", ProgramBuilder::new().build(), 2048);
/// let q = w.add_queue(rx, tx, 64);
/// w.set_program(rx, ProgramBuilder::new().niu_rx().int(5).push(q).build());
/// w.set_program(tx, ProgramBuilder::new().pop(q).load(table).transmit().build());
/// assert_eq!(w.tasks().len(), 2);
/// assert_eq!(w.queues().len(), 1);
/// assert!(w.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    seed: u64,
    tasks: Vec<TaskSpec>,
    regions: Vec<RegionSpec>,
    queues: Vec<QueueSpec>,
}

impl WorkloadSpec {
    /// Creates an empty workload with a deterministic seed for all the
    /// stochastic elements of the simulation (address streams, I-cache
    /// draws).
    pub fn new(seed: u64) -> Self {
        WorkloadSpec {
            seed,
            tasks: Vec::new(),
            regions: Vec::new(),
            queues: Vec::new(),
        }
    }

    /// The workload's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds a task; returns its id. Task ids index the assignment vector
    /// used by the simulator and schedulers.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        program: StageProgram,
        code_bytes: u64,
    ) -> TaskId {
        self.tasks.push(TaskSpec {
            name: name.into(),
            program,
            code_bytes,
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Adds a data region; returns its id.
    pub fn add_region(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
        pattern: AccessPattern,
    ) -> RegionId {
        self.regions.push(RegionSpec {
            name: name.into(),
            bytes: bytes.max(8),
            pattern,
        });
        RegionId(self.regions.len() - 1)
    }

    /// Adds a software queue from `producer` to `consumer`.
    pub fn add_queue(&mut self, producer: TaskId, consumer: TaskId, capacity: usize) -> QueueId {
        self.queues.push(QueueSpec {
            producer,
            consumer,
            capacity: capacity.max(1),
        });
        QueueId(self.queues.len() - 1)
    }

    /// Replaces the program of `task`. A pipeline stage's program names
    /// queues that exist only once both endpoint tasks do, so stages are
    /// added with empty programs and set here after [`Self::add_queue`].
    ///
    /// # Panics
    ///
    /// Panics if `task` was not returned by this spec's
    /// [`Self::add_task`], like slice indexing.
    pub fn set_program(&mut self, task: TaskId, program: StageProgram) {
        self.tasks[task.0].program = program;
    }

    /// The tasks, in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// The regions, in id order.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// The queues, in id order.
    pub fn queues(&self) -> &[QueueSpec] {
        &self.queues
    }

    /// Validates internal consistency: every referenced region/queue
    /// exists, queue endpoints are distinct existing tasks, programs are
    /// non-empty, and queue ops are only used by the declared endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadWorkload`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.tasks.is_empty() {
            return Err(SimError::BadWorkload("workload has no tasks".into()));
        }
        for (qi, q) in self.queues.iter().enumerate() {
            if q.producer.0 >= self.tasks.len() || q.consumer.0 >= self.tasks.len() {
                return Err(SimError::BadWorkload(format!(
                    "queue {qi} references a missing task"
                )));
            }
            if q.producer == q.consumer {
                return Err(SimError::BadWorkload(format!(
                    "queue {qi} has identical producer and consumer"
                )));
            }
        }
        for (ti, t) in self.tasks.iter().enumerate() {
            if t.program.is_empty() {
                return Err(SimError::BadWorkload(format!(
                    "task {ti} ({}) has an empty program",
                    t.name
                )));
            }
            for op in t.program.ops() {
                match *op {
                    Op::Load(r) | Op::Store(r) if r.0 >= self.regions.len() => {
                        return Err(SimError::BadWorkload(format!(
                            "task {ti} references missing region {}",
                            r.0
                        )));
                    }
                    Op::QueuePush(q) => {
                        let spec = self.queues.get(q.0).ok_or_else(|| {
                            SimError::BadWorkload(format!(
                                "task {ti} references missing queue {}",
                                q.0
                            ))
                        })?;
                        if spec.producer != TaskId(ti) {
                            return Err(SimError::BadWorkload(format!(
                                "task {ti} pushes to queue {} but is not its producer",
                                q.0
                            )));
                        }
                    }
                    Op::QueuePop(q) => {
                        let spec = self.queues.get(q.0).ok_or_else(|| {
                            SimError::BadWorkload(format!(
                                "task {ti} references missing queue {}",
                                q.0
                            ))
                        })?;
                        if spec.consumer != TaskId(ti) {
                            return Err(SimError::BadWorkload(format!(
                                "task {ti} pops queue {} but is not its consumer",
                                q.0
                            )));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> WorkloadSpec {
        let mut w = WorkloadSpec::new(1);
        let region = w.add_region("tbl", 1024, AccessPattern::Uniform);
        let a = w.add_task("producer", StageProgram::default(), 1024);
        let b = w.add_task("consumer", StageProgram::default(), 1024);
        let q = w.add_queue(a, b, 16);
        w.set_program(a, ProgramBuilder::new().niu_rx().int(4).push(q).build());
        w.set_program(
            b,
            ProgramBuilder::new().pop(q).load(region).transmit().build(),
        );
        w
    }

    #[test]
    fn valid_workload_passes() {
        assert!(tiny_workload().validate().is_ok());
    }

    #[test]
    fn empty_workload_fails() {
        assert!(WorkloadSpec::new(0).validate().is_err());
    }

    #[test]
    fn empty_program_fails() {
        let mut w = WorkloadSpec::new(0);
        w.add_task("noop", StageProgram::default(), 0);
        assert!(w.validate().is_err());
    }

    #[test]
    fn dangling_region_fails() {
        let mut w = WorkloadSpec::new(0);
        w.add_task("loader", ProgramBuilder::new().load(RegionId(3)).build(), 0);
        let err = w.validate().unwrap_err();
        assert!(err.to_string().contains("missing region"));
    }

    #[test]
    fn wrong_queue_endpoint_fails() {
        let mut w = WorkloadSpec::new(0);
        let a = w.add_task("a", ProgramBuilder::new().int(1).build(), 0);
        let b = w.add_task("b", ProgramBuilder::new().int(1).build(), 0);
        let q = w.add_queue(a, b, 4);
        // Task b pushes, but it is the consumer.
        w.set_program(b, ProgramBuilder::new().push(q).build());
        assert!(w.validate().is_err());
    }

    #[test]
    fn self_queue_fails() {
        let mut w = WorkloadSpec::new(0);
        let a = w.add_task("a", ProgramBuilder::new().int(1).build(), 0);
        w.add_queue(a, a, 4);
        assert!(w.validate().is_err());
    }

    #[test]
    fn builder_coalesces_and_orders() {
        let p = ProgramBuilder::new()
            .int(0) // dropped
            .int(3)
            .mul(2)
            .transmit()
            .build();
        assert_eq!(p.ops(), &[Op::Int(3), Op::Mul(2), Op::Transmit]);
    }

    #[test]
    fn region_size_floor() {
        let mut w = WorkloadSpec::new(0);
        let r = w.add_region("tiny", 0, AccessPattern::Uniform);
        assert_eq!(w.regions()[r.0].bytes, 8);
    }
}
