//! Property-based tests of the machine scheduler: no task is ever lost, all
//! work is conserved, a voluntary yield costs what it should, and runs are
//! deterministic, under random task mixes and machine shapes.

use machine::{Ctx, Machine, MachineConfig, Step, Task, WorkTag, CONTEXT_SWITCH};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A task performing a fixed schedule of work slices, yields, and sleeps.
struct Script {
    ops: Vec<ScriptOp>,
    pos: usize,
}

#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    Work(u64),
    Yield,
}

impl Task for Script {
    fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
        let Some(&op) = self.ops.get(self.pos) else {
            return Step::Done;
        };
        self.pos += 1;
        match op {
            ScriptOp::Work(c) => Step::work(c, WorkTag::Sim),
            ScriptOp::Yield => Step::Yield,
        }
    }
}

fn arb_script() -> impl Strategy<Value = Vec<ScriptOp>> {
    prop::collection::vec(
        prop_oneof![(1u64..5000).prop_map(ScriptOp::Work), Just(ScriptOp::Yield),],
        1..20,
    )
}

/// `rounds` × (work, yield), logging each work slice's owner.
struct Rotor {
    id: usize,
    rounds: u32,
    work: u64,
    yielding: bool,
    log: Rc<RefCell<Vec<usize>>>,
}

impl Task for Rotor {
    fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
        if std::mem::take(&mut self.yielding) {
            return Step::Yield;
        }
        if self.rounds == 0 {
            return Step::Done;
        }
        self.rounds -= 1;
        self.yielding = true;
        self.log.borrow_mut().push(self.id);
        Step::work(self.work, WorkTag::Sim)
    }
}

fn total_work(ops: &[ScriptOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            ScriptOp::Work(c) => *c,
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every task finishes, and the exact requested work is accounted.
    #[test]
    fn work_is_conserved(
        scripts in prop::collection::vec(arb_script(), 1..8),
        cores in 1usize..4,
        smt in 1usize..3,
        pin_mask in any::<u8>(),
    ) {
        let mut cfg = MachineConfig::small(cores, smt);
        cfg.quantum = 10_000;
        let mut m = Machine::new(cfg);
        for (i, ops) in scripts.iter().enumerate() {
            let pin = if pin_mask & (1 << (i % 8)) != 0 {
                Some(i % cores)
            } else {
                None
            };
            m.add_task(
                Box::new(Script { ops: ops.clone(), pos: 0 }),
                format!("t{i}"),
                pin,
            );
        }
        let r = m.run(None).expect("no deadlock possible");
        prop_assert!(r.tasks.iter().all(|t| t.finished));
        for (i, ops) in scripts.iter().enumerate() {
            prop_assert_eq!(
                r.tasks[i].work_for(WorkTag::Sim),
                total_work(ops),
                "task {} work accounting", i
            );
        }
    }

    /// Yielding with nobody waiting is free: the task is re-dispatched into
    /// the slot it left, at the same instant, with no context switch.
    #[test]
    fn yield_on_an_empty_runqueue_costs_nothing(
        slices in prop::collection::vec(prop_oneof![
            (1u64..5000).prop_map(ScriptOp::Work),
            Just(ScriptOp::Yield),
        ], 1..30),
    ) {
        let mut m = Machine::new(MachineConfig::small(1, 1));
        m.add_task(Box::new(Script { ops: slices.clone(), pos: 0 }), "lone", None);
        let r = m.run(None).expect("completes");
        let yields = slices.iter().filter(|op| matches!(op, ScriptOp::Yield)).count();
        prop_assert_eq!(r.voluntary_yields, yields as u64);
        prop_assert_eq!(r.ctx_switches, 1, "only the initial dispatch");
        // A script with no work never runs a slice, so the dispatch's
        // switch is never charged either.
        let work = total_work(&slices);
        prop_assert_eq!(r.virtual_ns, if work > 0 { work + CONTEXT_SWITCH } else { 0 });
    }

    /// Yielding with waiters rotates the runqueue FIFO, and every hand-over
    /// costs exactly one context switch, charged to the task coming in.
    #[test]
    fn yield_with_waiters_rotates_fifo_one_switch_per_handover(
        tasks in 2usize..5,
        rounds in 1u32..6,
        work in 1u64..5000,
    ) {
        let mut cfg = MachineConfig::small(1, 1);
        cfg.quantum = u64::MAX; // only yields hand the context over
        let mut m = Machine::new(cfg);
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..tasks {
            let rotor = Rotor { id, rounds, work, yielding: false, log: Rc::clone(&log) };
            m.add_task(Box::new(rotor), format!("r{id}"), Some(0));
        }
        let r = m.run(None).expect("completes");
        let slices = tasks as u64 * rounds as u64;
        let expect: Vec<usize> = (0..slices as usize).map(|i| i % tasks).collect();
        prop_assert_eq!(&*log.borrow(), &expect, "strict round-robin");
        prop_assert_eq!(r.voluntary_yields, slices);
        prop_assert_eq!(r.virtual_ns, slices * (work + CONTEXT_SWITCH));
        for t in &r.tasks {
            prop_assert_eq!(t.overhead_work, rounds as u64 * CONTEXT_SWITCH);
        }
        // One dispatch per work slice plus each task's final `Done` step.
        prop_assert_eq!(r.ctx_switches, slices + tasks as u64);
    }

    /// Same configuration → bit-identical report.
    #[test]
    fn machine_is_deterministic(
        scripts in prop::collection::vec(arb_script(), 1..6),
        cores in 1usize..4,
    ) {
        let build = || {
            let mut cfg = MachineConfig::small(cores, 2);
            cfg.quantum = 7_000;
            let mut m = Machine::new(cfg);
            for (i, ops) in scripts.iter().enumerate() {
                m.add_task(Box::new(Script { ops: ops.clone(), pos: 0 }), format!("t{i}"), None);
            }
            m.run(None).expect("completes")
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.virtual_ns, b.virtual_ns);
        prop_assert_eq!(a.ctx_switches, b.ctx_switches);
        prop_assert_eq!(a.migrations, b.migrations);
        prop_assert_eq!(a.voluntary_yields, b.voluntary_yields);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            prop_assert_eq!(x.cpu_time, y.cpu_time);
            prop_assert_eq!(x.work, y.work);
        }
    }

    /// Virtual time is bounded below by the critical path: a machine can
    /// never finish faster than the largest single-task work total, and
    /// never faster than total work spread over all contexts at peak
    /// throughput.
    #[test]
    fn virtual_time_lower_bounds(
        scripts in prop::collection::vec(arb_script(), 1..6),
        cores in 1usize..4,
    ) {
        let cfg = MachineConfig::small(cores, 1);
        let mut m = Machine::new(cfg);
        for (i, ops) in scripts.iter().enumerate() {
            m.add_task(Box::new(Script { ops: ops.clone(), pos: 0 }), format!("t{i}"), None);
        }
        let r = m.run(None).expect("completes");
        let per_task_max = scripts.iter().map(|s| total_work(s)).max().unwrap_or(0);
        let total: u64 = scripts.iter().map(|s| total_work(s)).sum();
        prop_assert!(r.virtual_ns >= per_task_max, "{} < {}", r.virtual_ns, per_task_max);
        prop_assert!(
            r.virtual_ns >= total / cores as u64,
            "{} < {}", r.virtual_ns, total / cores as u64
        );
    }
}
