//! The benchmark suite: paper workloads as simulator specs.
//!
//! Each benchmark instance is the paper's three-thread software pipeline
//! (Figure 9): a receive thread (R) reading packets from an NIU DMA
//! channel, a processing thread (P) doing the benchmark-specific work, and
//! a transmit thread (T) sending packets back out — connected by memory
//! queues. Up to eight instances run simultaneously (the NIU splits
//! traffic into at most eight DMA channels, §5).
//!
//! The per-packet operation budgets and data-region footprints of each
//! [`Benchmark`] are derived from the functional implementations in this
//! crate: the Aho-Corasick automaton's dense-table size, the IPFwd lookup
//! table sizes (L1-resident vs memory-resident), the 2¹⁶-entry flow table,
//! and the NTGen payload-length distribution.

use crate::aho_corasick::{snort_dos_keywords, AhoCorasick};
use crate::ipfwd::ENTRY_BYTES;
use crate::ntgen::TrafficConfig;
use crate::stateful::PAPER_TABLE_ENTRIES;
use optassign_sim::program::{AccessPattern, ProgramBuilder, WorkloadSpec};

/// Threads per benchmark instance (R, P, T).
pub const THREADS_PER_INSTANCE: usize = 3;

/// Maximum simultaneous instances (NIU DMA channel limit, paper §5).
pub const MAX_INSTANCES: usize = 8;

/// The network benchmarks of the paper's case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// IP forwarding, lookup table resident in the L1 data cache.
    IpFwdL1,
    /// IP forwarding, lookup table far larger than the L2 (every lookup
    /// goes to main memory).
    IpFwdMem,
    /// Header decoding and logging.
    PacketAnalyzer,
    /// Aho-Corasick payload matching against the Snort DoS keyword set.
    AhoCorasick,
    /// Stateful flow tracking with a 2¹⁶-entry hash table.
    Stateful,
    /// Figure 1 variant: IPFwd with an addition-heavy hash function.
    IpFwdIntAdd,
    /// Figure 1 variant: IPFwd with a multiplication-heavy hash function.
    IpFwdIntMul,
}

impl Benchmark {
    /// The five benchmarks of the paper's main evaluation (Figures 10–12
    /// and 14).
    pub fn paper_suite() -> [Benchmark; 5] {
        [
            Benchmark::IpFwdL1,
            Benchmark::IpFwdMem,
            Benchmark::PacketAnalyzer,
            Benchmark::AhoCorasick,
            Benchmark::Stateful,
        ]
    }

    /// Short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::IpFwdL1 => "IPFwd-L1",
            Benchmark::IpFwdMem => "IPFwd-Mem",
            Benchmark::PacketAnalyzer => "Packet analyzer",
            Benchmark::AhoCorasick => "Aho-Corasick",
            Benchmark::Stateful => "Stateful",
            Benchmark::IpFwdIntAdd => "IPFwd-intadd",
            Benchmark::IpFwdIntMul => "IPFwd-intmul",
        }
    }

    /// Builds the workload of `instances` pipeline instances
    /// (`3 × instances` tasks). Task order is `[R₀, P₀, T₀, R₁, …]`.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero or exceeds [`MAX_INSTANCES`].
    pub fn build_workload(&self, instances: usize, seed: u64) -> WorkloadSpec {
        assert!(
            (1..=MAX_INSTANCES).contains(&instances),
            "instances must be in 1..={MAX_INSTANCES} (NIU DMA channel limit)"
        );
        let mut w = WorkloadSpec::new(seed);
        let traffic = TrafficConfig::default();
        // Average payload length drives the scan-loop budgets.
        let avg_payload = (traffic.payload_min + traffic.payload_max) / 2;

        // Benchmark-wide derived footprints.
        let automaton_bytes = match self {
            Benchmark::AhoCorasick => {
                let ac = match AhoCorasick::new(&snort_dos_keywords()) {
                    Ok(ac) => ac,
                    // The keyword set is static and non-empty.
                    Err(e) => unreachable!("static keyword set: {e:?}"),
                };
                ac.memory_bytes() as u64
            }
            _ => 0,
        };

        for inst in 0..instances {
            let tag = format!("{}.{}", self.name(), inst);

            // Per-instance packet buffer the R stage writes and the P stage
            // reads (descriptor + payload working set).
            let pktbuf = w.add_region(
                format!("{tag}.pktbuf"),
                16 * 1024,
                AccessPattern::Sequential { stride: 64 },
            );

            // Tasks first, then the queues between them, then the programs
            // that name the queues.
            let r = w.add_task(format!("{tag}.R"), ProgramBuilder::new().build(), 2_560);

            // P's body: the benchmark-specific processing.
            let (p_body, p_code) = match self {
                Benchmark::IpFwdL1 => {
                    // 256-entry next-hop table: 4 KB, comfortably L1-resident.
                    let table = w.add_region(
                        format!("{tag}.lut"),
                        (256 * ENTRY_BYTES) as u64,
                        AccessPattern::Uniform,
                    );
                    let mut b = ProgramBuilder::new().load(pktbuf).load(pktbuf).int(140); // header checks + hash (add-mix)
                    for _ in 0..5 {
                        b = b.load(table).int(110);
                    }
                    (b.int(90).store(pktbuf), 5 * 1024)
                }
                Benchmark::IpFwdMem => {
                    // 4M-entry table: 64 MB, every lookup misses to memory.
                    let table = w.add_region(
                        format!("{tag}.lut"),
                        (4 * 1024 * 1024 * ENTRY_BYTES) as u64,
                        AccessPattern::Uniform,
                    );
                    let mut b = ProgramBuilder::new().load(pktbuf).load(pktbuf).int(140);
                    for _ in 0..5 {
                        b = b.load(table).int(60);
                    }
                    (b.int(90).store(pktbuf), 5 * 1024)
                }
                Benchmark::PacketAnalyzer => {
                    // Log buffer: 4 MB ring written sequentially.
                    let logbuf = w.add_region(
                        format!("{tag}.log"),
                        4 * 1024 * 1024,
                        AccessPattern::Sequential { stride: 64 },
                    );
                    let mut b = ProgramBuilder::new().int(90);
                    // Decode L2/L3/L4 headers: strided reads over the packet.
                    for _ in 0..6 {
                        b = b.load(pktbuf).int(70);
                    }
                    // Format + append the log record.
                    b = b.int(240);
                    for _ in 0..4 {
                        b = b.store(logbuf).int(30);
                    }
                    (b, 14 * 1024)
                }
                Benchmark::AhoCorasick => {
                    // Dense automaton; the root fan-out is hot.
                    let automaton = w.add_region(
                        format!("{tag}.acdfa"),
                        automaton_bytes.max(64 * 1024),
                        AccessPattern::Hot {
                            hot_bytes: 16 * 1024,
                            hot_prob: 0.7,
                        },
                    );
                    let mut b = ProgramBuilder::new().int(50).load(pktbuf).load(pktbuf);
                    // One transition load per 4 payload bytes (the dense
                    // next-state row stays in the same line for short runs).
                    let steps = (avg_payload / 4).clamp(8, 64);
                    for _ in 0..steps {
                        b = b.load(automaton).int(10);
                    }
                    (b.int(70), 9 * 1024)
                }
                Benchmark::Stateful => {
                    // Per-instance 2^16-entry flow table: 4 MB of records.
                    let table = w.add_region(
                        format!("{tag}.flows"),
                        (PAPER_TABLE_ENTRIES * 64) as u64,
                        AccessPattern::Uniform,
                    );
                    let b = ProgramBuilder::new()
                        .load(pktbuf)
                        .load(pktbuf)
                        .int(130) // read flow keys + nProbe hash
                        .load(table) // locate the record (lock)
                        .int(90)
                        .load(table) // read the record
                        .int(140) // update state machine
                        .store(table) // write back / unlock
                        .int(60);
                    (b, 11 * 1024)
                }
                Benchmark::IpFwdIntAdd => {
                    let table = w.add_region(
                        format!("{tag}.lut"),
                        (256 * ENTRY_BYTES) as u64,
                        AccessPattern::Uniform,
                    );
                    // Addition-dominated hash: single-cycle ALU pressure.
                    let b = ProgramBuilder::new()
                        .load(pktbuf)
                        .load(pktbuf)
                        .int(420)
                        .load(table)
                        .int(380)
                        .load(table)
                        .int(300);
                    (b, 5 * 1024)
                }
                Benchmark::IpFwdIntMul => {
                    let table = w.add_region(
                        format!("{tag}.lut"),
                        (256 * ENTRY_BYTES) as u64,
                        AccessPattern::Uniform,
                    );
                    // Multiplication-dominated hash: long-latency ops that
                    // block the strand but free the pipe's issue slot. The
                    // multiply count is chosen so the uncontended per-packet
                    // budget matches the intadd variant — the paper's two
                    // variants reach similar optima but differ sharply in
                    // issue-slot demand.
                    let b = ProgramBuilder::new()
                        .load(pktbuf)
                        .load(pktbuf)
                        .mul(118)
                        .load(table)
                        .mul(104)
                        .load(table)
                        .int(60);
                    (b, 5 * 1024)
                }
            };
            let p = w.add_task(format!("{tag}.P"), ProgramBuilder::new().build(), p_code);
            let t = w.add_task(format!("{tag}.T"), ProgramBuilder::new().build(), 2_560);
            let q_rp = w.add_queue(r, p, 128);
            let q_pt = w.add_queue(p, t, 128);

            // --- R: receive ------------------------------------------------
            // Fetch from the DMA channel, stage the packet, enqueue.
            // Per-packet descriptor handling, buffer management and header
            // sanity checks: a real R thread is not free, and its issue
            // pressure is what makes co-locating it with a compute-bound P
            // thread costly (the Figure 1 mechanism).
            w.set_program(
                r,
                ProgramBuilder::new()
                    .niu_rx()
                    .int(170)
                    .store(pktbuf)
                    .store(pktbuf)
                    .push(q_rp)
                    .build(),
            );

            // --- P: dequeue, process, enqueue for transmit -----------------
            w.set_program(
                p,
                ProgramBuilder::new()
                    .pop(q_rp)
                    .append(p_body)
                    .push(q_pt)
                    .build(),
            );

            // --- T: dequeue, rebuild the egress descriptor, transmit -------
            w.set_program(
                t,
                ProgramBuilder::new().pop(q_pt).int(130).transmit().build(),
            );
        }
        debug_assert!(w.validate().is_ok(), "suite produced invalid workload");
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optassign_sim::program::Op;

    #[test]
    fn suite_lists_the_five_paper_benchmarks() {
        let names: Vec<_> = Benchmark::paper_suite().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "IPFwd-L1",
                "IPFwd-Mem",
                "Packet analyzer",
                "Aho-Corasick",
                "Stateful"
            ]
        );
    }

    #[test]
    fn workloads_validate_and_have_right_shape() {
        for bench in [
            Benchmark::IpFwdL1,
            Benchmark::IpFwdMem,
            Benchmark::PacketAnalyzer,
            Benchmark::AhoCorasick,
            Benchmark::Stateful,
            Benchmark::IpFwdIntAdd,
            Benchmark::IpFwdIntMul,
        ] {
            for instances in [1, 2, 8] {
                let w = bench.build_workload(instances, 1);
                assert!(w.validate().is_ok(), "{bench:?} x{instances}");
                assert_eq!(w.tasks().len(), 3 * instances);
                assert_eq!(w.queues().len(), 2 * instances);
            }
        }
    }

    #[test]
    fn task_order_is_r_p_t_per_instance() {
        let w = Benchmark::IpFwdL1.build_workload(2, 7);
        let names: Vec<_> = w.tasks().iter().map(|t| t.name.as_str()).collect();
        assert!(names[0].ends_with(".R"));
        assert!(names[1].ends_with(".P"));
        assert!(names[2].ends_with(".T"));
        assert!(
            names[3].contains(".1."),
            "second instance tag: {}",
            names[3]
        );
    }

    #[test]
    fn exactly_one_transmit_per_instance() {
        let w = Benchmark::Stateful.build_workload(4, 2);
        let transmits = w
            .tasks()
            .iter()
            .flat_map(|t| t.program.ops())
            .filter(|op| matches!(op, Op::Transmit))
            .count();
        assert_eq!(transmits, 4);
    }

    #[test]
    fn memory_variant_has_bigger_tables_than_l1_variant() {
        let small = Benchmark::IpFwdL1.build_workload(1, 0);
        let large = Benchmark::IpFwdMem.build_workload(1, 0);
        let lut_bytes = |w: &WorkloadSpec| {
            w.regions()
                .iter()
                .find(|r| r.name.contains("lut"))
                .expect("lookup table present")
                .bytes
        };
        assert!(lut_bytes(&small) <= 8 * 1024);
        assert!(lut_bytes(&large) >= 32 * 1024 * 1024);
    }

    #[test]
    fn intmul_uses_multiplies_intadd_does_not() {
        let count_muls = |b: Benchmark| {
            b.build_workload(1, 0)
                .tasks()
                .iter()
                .flat_map(|t| t.program.ops())
                .filter(|op| matches!(op, Op::Mul(_)))
                .count()
        };
        assert!(count_muls(Benchmark::IpFwdIntMul) > 0);
        assert_eq!(count_muls(Benchmark::IpFwdIntAdd), 0);
    }

    #[test]
    fn automaton_region_sized_from_real_machine() {
        let w = Benchmark::AhoCorasick.build_workload(1, 0);
        let ac = AhoCorasick::new(&snort_dos_keywords()).unwrap();
        let dfa_region = w
            .regions()
            .iter()
            .find(|r| r.name.contains("acdfa"))
            .expect("automaton region present");
        assert_eq!(dfa_region.bytes, (ac.memory_bytes() as u64).max(64 * 1024));
    }

    #[test]
    #[should_panic(expected = "instances")]
    fn rejects_too_many_instances() {
        Benchmark::IpFwdL1.build_workload(9, 0);
    }
}
