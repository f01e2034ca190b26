//! Task assignments and their canonical forms.
//!
//! An assignment maps each task of a workload to one hardware context
//! (virtual CPU). Two assignments are *equivalent* when one can be obtained
//! from the other by permuting cores, permuting the pipes inside a core, or
//! permuting the strand slots inside a pipe — the hardware is symmetric
//! under all three. The paper's Table 1 counts assignments up to exactly
//! this equivalence (e.g. 11 assignments for 3 tasks), and
//! [`Assignment::canonical_key`] computes a representative for it.

use crate::CoreError;
use optassign_sim::Topology;

/// A placement of `T` tasks onto distinct hardware contexts.
///
/// # Examples
///
/// ```
/// use optassign::Assignment;
/// use optassign::Topology;
///
/// let topo = Topology::ultrasparc_t2();
/// let a = Assignment::new(vec![0, 1, 8], topo).unwrap();
/// assert_eq!(a.tasks(), 3);
/// // Tasks 0 and 1 share pipe 0; task 2 is on core 1.
/// assert!(a.contexts()[0] != a.contexts()[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    contexts: Vec<usize>,
    topology: Topology,
}

impl Assignment {
    /// Creates a validated assignment: every context in range, no two tasks
    /// on the same context.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infeasible`] on length/range/duplication
    /// violations.
    pub fn new(contexts: Vec<usize>, topology: Topology) -> Result<Self, CoreError> {
        let v = topology.contexts();
        if contexts.len() > v {
            return Err(CoreError::Infeasible(format!(
                "{} tasks exceed {v} hardware contexts",
                contexts.len()
            )));
        }
        let mut used = vec![false; v];
        for (t, &c) in contexts.iter().enumerate() {
            if c >= v {
                return Err(CoreError::Infeasible(format!(
                    "task {t} mapped to context {c}, machine has {v}"
                )));
            }
            if used[c] {
                return Err(CoreError::Infeasible(format!(
                    "two tasks share context {c}"
                )));
            }
            used[c] = true;
        }
        Ok(Assignment { contexts, topology })
    }

    /// The context of each task.
    pub fn contexts(&self) -> &[usize] {
        &self.contexts
    }

    /// Number of tasks.
    pub fn tasks(&self) -> usize {
        self.contexts.len()
    }

    /// The topology the assignment targets.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Groups tasks by pipe: for each core, for each pipe in it, the sorted
    /// list of task indices on that pipe (empty pipes included).
    pub fn pipe_groups(&self) -> Vec<Vec<Vec<usize>>> {
        let topo = &self.topology;
        let mut groups = vec![vec![Vec::new(); topo.pipes_per_core]; topo.cores];
        for (task, &ctx) in self.contexts.iter().enumerate() {
            let core = topo.core_of(ctx);
            let pipe_in_core = (ctx / topo.strands_per_pipe) % topo.pipes_per_core;
            groups[core][pipe_in_core].push(task);
        }
        for core in &mut groups {
            for pipe in core.iter_mut() {
                pipe.sort_unstable();
            }
        }
        groups
    }

    /// A canonical key identifying the assignment's equivalence class under
    /// core/pipe/strand permutations.
    ///
    /// Two assignments have the same key iff they are equivalent. The key
    /// is the multiset of cores, each core being the multiset of its pipes,
    /// each pipe the sorted set of its tasks — all serialized into a
    /// deterministic byte order.
    pub fn canonical_key(&self) -> Vec<Vec<Vec<usize>>> {
        let mut cores = self.pipe_groups();
        for core in &mut cores {
            core.sort(); // order pipes within the core canonically
        }
        cores.sort(); // order cores canonically
                      // Drop empty cores: they carry no information and machines with
                      // different spare capacity would otherwise compare differently.
        cores.retain(|core| core.iter().any(|pipe| !pipe.is_empty()));
        cores
    }

    /// Whether two assignments are equivalent under hardware symmetry.
    pub fn is_equivalent(&self, other: &Assignment) -> bool {
        self.topology == other.topology && self.canonical_key() == other.canonical_key()
    }

    /// A stable 64-bit content address for the assignment's equivalence
    /// class: equivalent assignments (same topology, same
    /// [`canonical_key`](Assignment::canonical_key)) hash identically,
    /// across processes and releases.
    ///
    /// The hash is FNV-1a 64 over a fixed serialization — topology
    /// dimensions, then the canonical key with every list length-prefixed
    /// — so it does not depend on `std`'s hasher internals. Every
    /// journal record in `optassign-store` carries it as its `key` field,
    /// so changing the serialization changes the store's bytes.
    pub fn canonical_hash(&self) -> u64 {
        const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET_BASIS;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.topology.cores as u64);
        mix(self.topology.pipes_per_core as u64);
        mix(self.topology.strands_per_pipe as u64);
        let key = self.canonical_key();
        mix(key.len() as u64);
        for core in &key {
            mix(core.len() as u64);
            for pipe in core {
                mix(pipe.len() as u64);
                for &task in pipe {
                    mix(task as u64);
                }
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Topology {
        Topology::ultrasparc_t2()
    }

    #[test]
    fn validation() {
        assert!(Assignment::new(vec![0, 1, 2], t2()).is_ok());
        assert!(Assignment::new(vec![0, 0], t2()).is_err());
        assert!(Assignment::new(vec![64], t2()).is_err());
        let too_many: Vec<usize> = (0..65).collect();
        assert!(Assignment::new(too_many, t2()).is_err());
    }

    #[test]
    fn pipe_groups_structure() {
        // Contexts 0,1 are pipe 0 of core 0; context 4 is pipe 1 of core 0;
        // context 8 is pipe 0 of core 1.
        let a = Assignment::new(vec![0, 1, 4, 8], t2()).unwrap();
        let g = a.pipe_groups();
        assert_eq!(g[0][0], vec![0, 1]);
        assert_eq!(g[0][1], vec![2]);
        assert_eq!(g[1][0], vec![3]);
        assert!(g[1][1].is_empty());
    }

    #[test]
    fn equivalence_under_core_swap() {
        // {[ab][]}{[c][]} is the same whether it uses cores 0,1 or 5,2.
        let a = Assignment::new(vec![0, 1, 8], t2()).unwrap();
        let b = Assignment::new(vec![40, 41, 16], t2()).unwrap();
        assert!(a.is_equivalent(&b));
    }

    #[test]
    fn equivalence_under_pipe_and_strand_swap() {
        // Same pipe, different strand slots.
        let a = Assignment::new(vec![0, 1], t2()).unwrap();
        let b = Assignment::new(vec![3, 2], t2()).unwrap();
        assert!(a.is_equivalent(&b));
        // Pipe 0 vs pipe 1 of the same core.
        let c = Assignment::new(vec![4, 5], t2()).unwrap();
        assert!(a.is_equivalent(&c));
    }

    #[test]
    fn distinct_classes_are_not_equivalent() {
        // Tasks sharing a pipe vs tasks on different pipes of one core vs
        // tasks on different cores: three distinct classes.
        let same_pipe = Assignment::new(vec![0, 1], t2()).unwrap();
        let same_core = Assignment::new(vec![0, 4], t2()).unwrap();
        let diff_core = Assignment::new(vec![0, 8], t2()).unwrap();
        assert!(!same_pipe.is_equivalent(&same_core));
        assert!(!same_core.is_equivalent(&diff_core));
        assert!(!same_pipe.is_equivalent(&diff_core));
    }

    #[test]
    fn task_identity_matters() {
        // {[task0 task1][task2]} differs from {[task0 task2][task1]}.
        let a = Assignment::new(vec![0, 1, 4], t2()).unwrap();
        let b = Assignment::new(vec![0, 4, 1], t2()).unwrap();
        assert!(!a.is_equivalent(&b));
    }

    /// Randomly permuting cores, pipes and strand slots never changes
    /// the canonical key.
    #[test]
    fn canonical_key_invariant_under_symmetry() {
        use optassign_stats::rng::{Rng, StdRng};
        for seed in 0u64..200 {
            let n_tasks = 1 + (seed as usize % 11);
            let topo = t2();
            let mut rng = StdRng::seed_from_u64(seed);
            // Random valid assignment.
            let mut all: Vec<usize> = (0..topo.contexts()).collect();
            rng.shuffle(&mut all);
            let contexts: Vec<usize> = all[..n_tasks].to_vec();
            let a = Assignment::new(contexts.clone(), topo).unwrap();

            // Random symmetry: permute cores, pipes per core, strands per pipe.
            let mut core_perm: Vec<usize> = (0..topo.cores).collect();
            rng.shuffle(&mut core_perm);
            let pipe_perms: Vec<Vec<usize>> = (0..topo.cores)
                .map(|_| {
                    let mut p: Vec<usize> = (0..topo.pipes_per_core).collect();
                    rng.shuffle(&mut p);
                    p
                })
                .collect();
            let strand_perms: Vec<Vec<usize>> = (0..topo.pipes())
                .map(|_| {
                    let mut s: Vec<usize> = (0..topo.strands_per_pipe).collect();
                    rng.shuffle(&mut s);
                    s
                })
                .collect();
            let permuted: Vec<usize> = contexts
                .iter()
                .map(|&ctx| {
                    let core = topo.core_of(ctx);
                    let pipe_in_core = (ctx / topo.strands_per_pipe) % topo.pipes_per_core;
                    let strand = ctx % topo.strands_per_pipe;
                    let new_core = core_perm[core];
                    let new_pipe = pipe_perms[core][pipe_in_core];
                    let global_pipe = core * topo.pipes_per_core + pipe_in_core;
                    let new_strand = strand_perms[global_pipe][strand];
                    topo.context_at(new_core, new_pipe, new_strand)
                })
                .collect();
            let b = Assignment::new(permuted, topo).unwrap();
            assert!(a.is_equivalent(&b), "seed {seed}");
            assert_eq!(a.canonical_hash(), b.canonical_hash(), "seed {seed}");
        }
    }

    #[test]
    fn canonical_hash_separates_classes() {
        // The three 2-task classes of distinct_classes_are_not_equivalent
        // plus task-identity variants must all hash differently.
        let classes = [
            Assignment::new(vec![0, 1], t2()).unwrap(),
            Assignment::new(vec![0, 4], t2()).unwrap(),
            Assignment::new(vec![0, 8], t2()).unwrap(),
            Assignment::new(vec![0, 1, 4], t2()).unwrap(),
            Assignment::new(vec![0, 4, 1], t2()).unwrap(),
        ];
        for (i, a) in classes.iter().enumerate() {
            for (j, b) in classes.iter().enumerate() {
                if i != j {
                    assert_ne!(a.canonical_hash(), b.canonical_hash(), "{i} vs {j}");
                }
            }
        }
        // And the topology is part of the address: the same placement on
        // a different machine is a different address.
        let small = Topology::new(2, 2, 4);
        let on_t2 = Assignment::new(vec![0, 1], t2()).unwrap();
        let on_small = Assignment::new(vec![0, 1], small).unwrap();
        assert_ne!(on_t2.canonical_hash(), on_small.canonical_hash());
    }

    /// The hash is written into every journal record, so its exact
    /// values are part of the store format. This pins one vector; if it ever changes,
    /// bump the store magic as well.
    #[test]
    fn canonical_hash_is_stable_across_releases() {
        let a = Assignment::new(vec![0, 1, 8], t2()).unwrap();
        assert_eq!(a.canonical_hash(), 0xF2DF_875E_4932_EC29);
        let b = Assignment::new(vec![40, 41, 16], t2()).unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }
}
